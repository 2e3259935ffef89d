"""Sequence presentations: re-threading correctness and exact classification."""

import ast
import copy
import inspect
import math
import pickle
import random
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.compactify import BasedSpace
from extseq.core import EvSet, FinitePoint, TailPoint, Universe, ev_set
from extseq.errors import PresentationError, UniverseMismatch
from extseq.exteriority import EReport, Externology, ExtSpace, make_ext_space
from extseq.generate import (
    Instance,
    MAX_AFFINE,
    PROFILES,
    _draw_seq,
    _drawn_seq,
    gen_seq,
    gen_space,
    generate_instances,
    sample_point,
)
from extseq.instances import NAT_TAIL, nat_plus_space, nat_space
from extseq.maps import MapProps, SpaceMap, TailToConst, TailToTail
from extseq.sequences import (
    IDENTITY,
    Affine,
    ConstThread,
    IdealShape,
    Seq,
    SeqClass,
    WalkThread,
    _no_conv_subseq,
    _proper,
    _tail_bits,
    _thread_limits,
    classify,
    const_seq,
    convergence_ideal,
    first_difference,
    interleave,
    limit_set,
    make_seq,
    seq_compose,
    seq_equal,
    subseq,
    thread_selector,
    walk_seq,
)
from extseq.sheaves import CMap, CMapReport, ConvElem, CoverResult, GlueResult, Ideal, Sigma
from extseq.spaces import SetProps, Space, SpaceReport, open_basic_neighborhood, validate_space
from support import mixed_space, sierpinski_space, value_types

NN = nat_space()
NP = nat_plus_space()
SP = sierpinski_space()
MIX = mixed_space()


def test_affine_composition_and_identity():
    u, v = Affine(2, 3), Affine(3, 1)
    assert u.then(v) == Affine(6, 5)
    assert IDENTITY.then(u) == u.then(IDENTITY) == u
    with pytest.raises(PresentationError):
        Affine(0, 1)


def dataclass_twin(cls):
    """`cls` as the dataclass decorator alone builds it: the same fields,
    defaults, name, own docstring and own repr, with the generated
    `__init__`."""
    ns = {"__annotations__": dict(cls.__annotations__), "__module__": cls.__module__}
    ns["__doc__"] = ast.get_docstring(ast.parse(inspect.getsource(cls)).body[0], clean=False)
    ns.update((f.name, f.default) for f in fields(cls) if f.default is not MISSING)
    if cls.__repr__.__code__.co_filename == sys.modules[cls.__module__].__file__:
        ns["__repr__"] = cls.__repr__
    twin = type(cls.__name__, (), ns)
    twin.__qualname__ = cls.__qualname__
    return dataclass(frozen=True, slots=True)(twin)


def init_params(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def _value_type_args():
    """Two or more argument lists for every value type of the package."""
    inst = generate_instances(3, 1, seqs_per=1, maps_per=1)[0]
    ext, (f,), (s,) = inst.ext, inst.maps, inst.seqs
    v, t2 = FinitePoint("v"), TailPoint("t2", 3)
    walk = WalkThread("t2", 2, 1)
    seq = Seq(MIX.universe, (v,), (walk, ConstThread(v)))
    nat = make_seq(NP.universe, (), (WalkThread(NAT_TAIL),))
    a = open_basic_neighborhood(MIX, "v", 2)
    b = ev_set(MIX.universe, (), True, {"t2": (0, 4)})
    return {
        FinitePoint: [("p0",), ("x'",)],
        TailPoint: [("t", 0), ("n", 7)],
        ConstThread: [(v,), (t2,)],
        WalkThread: [("t2",), ("t2", 3), ("t2", 3, 5)],
        Seq: [(seq.universe, seq.prefix, seq.threads), (s.universe, s.prefix, s.threads)],
        Affine: [(1, 0), (3, 8)],
        Universe: [(("a", "b"), ("t",)), ((), ())],
        EvSet: [(a.universe, a.finite, a.rows), (b.universe, b.finite, b.rows)],
        Space: [(MIX.points, MIX.min_open, MIX.tails, MIX.attach), (SP.points, SP.min_open, (), ())],
        SetProps: [(True,) * 6, (False, True, False, True, False, True)],
        SpaceReport: [(True,) * 9, (False,) * 8 + (True,)],
        Externology: [(("v",), ("t2",)), ((), ())],
        ExtSpace: [(ext.space, ext.ext), (MIX, Externology((), ("t2",)))],
        EReport: [(True, True), (False, True)],
        SeqClass: [(True, frozenset({v}), False, True), (False, frozenset(), True, False)],
        IdealShape: [("full",), ("partial", Affine(2, 0)), ("partial", Affine(2, 0), IDENTITY)],
        TailToTail: [("t",), ("t", 2), ("t", 2, 3, ((0, v),))],
        TailToConst: [(v,), (v, ((1, t2),))],
        SpaceMap: [(f.dom, f.cod, f.on_points, f.on_tails), (MIX, MIX, (), ())],
        MapProps: [(True, False, True, False), (False,) * 4],
        BasedSpace: [(NP, "inf"), (SP, "x")],
        ConvElem: [(nat, FinitePoint("inf")), (seq, v)],
        Ideal: [("M", (IDENTITY,)), ("M+", (Affine(2, 0), Affine(2, 1)))],
        CoverResult: [("yes",), ("no", Affine(2, 1)), ("no", Affine(2, 1), 4)],
        Sigma: [(ext,), (make_ext_space(MIX),)],
        CMap: [(str, repr, len), (len, str, repr)],
        CMapReport: [(True,), (False, "cte")],
        GlueResult: [
            ("amalgamation", seq),
            ("incompatible", None, (Affine(1, 0), "points", 3)),
            ("no_amalgamation", None, None, "not exterior"),
        ],
        Instance: [(inst.ext, inst.partner, inst.seqs, inst.maps), (ext, ext, (), ())],
    }


VALUE_TYPES = list(_value_type_args().items())


def test_every_value_type_has_argument_lists():
    assert {cls for cls, _ in VALUE_TYPES} == set(value_types())


@pytest.mark.parametrize("cls, arg_lists", VALUE_TYPES, ids=lambda x: getattr(x, "__name__", ""))
def test_value_types_built_through_their_slots_match_their_dataclass_twins(cls, arg_lists):
    # Each value type writes its fields through its slots' own setters;
    # the values must be the ones the dataclass's own __init__ would give,
    # with its signature and defaults, docstring, eq, hash, repr, match
    # args, replace, copy and pickle.  A slot that is not a field starts
    # at None, and copy and pickle start it again.
    twin = dataclass_twin(cls)
    assert [(f.name, f.type, f.default) for f in fields(cls)] == [
        (f.name, f.type, f.default) for f in fields(twin)
    ]
    assert init_params(cls) == init_params(twin)
    assert cls.__match_args__ == twin.__match_args__ and cls.__doc__ == twin.__doc__
    n = len(fields(cls))
    assert cls.__slots__[:n] == twin.__slots__
    extra = cls.__slots__[n:]
    first = fields(cls)[0].name
    for args, other in zip(arg_lists, arg_lists[1:] + arg_lists[:1]):
        x, y = cls(*args), twin(*args)
        assert [getattr(x, f.name) for f in fields(cls)] == [getattr(y, f.name) for f in fields(twin)]
        assert repr(x) == repr(y) and hash(x) == hash(y)
        assert x == cls(*args) and not hasattr(x, "__dict__")
        assert x != cls(*other) and y != twin(*other)
        for z in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)), replace(x)):
            assert type(z) is cls and z == x and hash(z) == hash(x) and repr(z) == repr(x)
            assert [getattr(z, slot) for slot in extra] == [None] * len(extra)
        changed = {first: other[0]}
        assert repr(replace(x, **changed)) == repr(replace(y, **changed))
        with pytest.raises(FrozenInstanceError):
            setattr(x, first, args[0])
    assert len({cls(*args) for args in arg_lists}) == len(arg_lists)


def test_affine_refuses_a_bad_slope_or_offset_before_building():
    for (a, b), message in (
        ((0, 0), "a: a must be at least 1"),
        ((0, -1), "a: a must be at least 1"),
        ((1, -1), "b: b must be at least 0"),
    ):
        with pytest.raises(PresentationError) as err:
            Affine(a, b)
        assert str(err.value) == message and type(err.value) is PresentationError


def test_subseq_identity_is_unit():
    rng = random.Random(1)
    for _ in range(30):
        space = gen_space(rng)
        s = gen_seq(rng, space)
        assert seq_equal(subseq(s, IDENTITY), s)


def test_subseq_selects_single_thread():
    s = make_seq(
        MIX.universe,
        (),
        (ConstThread(FinitePoint("v")), WalkThread("t2", 1, 0)),
    )
    picked = subseq(s, Affine(2, 0))
    # Pointwise oracle on 0..60: the even positions hit the constant thread.
    for n in range(61):
        assert picked.at(n) == s.at(2 * n)
    assert all(isinstance(th, ConstThread) for th in picked.threads)


def test_subseq_action_associative():
    rng = random.Random(2)
    for _ in range(40):
        space = gen_space(rng)
        s = gen_seq(rng, space)
        u = Affine(rng.randrange(1, 5), rng.randrange(0, 5))
        v = Affine(rng.randrange(1, 5), rng.randrange(0, 5))
        left = subseq(subseq(s, u), v)
        right = subseq(s, u.then(v))
        for n in range(61):
            assert left.at(n) == right.at(n)


def test_subseq_pointwise_on_500_random_pairs():
    # Validation obligation for the residue-cycle re-threading.
    rng = random.Random(3)
    for _ in range(500):
        space = gen_space(rng)
        s = gen_seq(rng, space)
        u = Affine(rng.randrange(1, 9), rng.randrange(0, 9))
        # An offset at the prefix's end starts on the threads: no prefix.
        at_threads = Affine(u.a, len(s.prefix))
        assert subseq(s, at_threads).prefix == ()
        for u in (u, at_threads):
            t = subseq(s, u)
            for n in range(200):
                assert t.at(n) == s.at(u(n))


def test_interleave_schedules_round_robin():
    rng = random.Random(4)
    for _ in range(60):
        space = gen_space(rng)
        pieces = [gen_seq(rng, space) for _ in range(rng.randrange(1, 4))]
        woven = interleave(pieces)
        k = len(pieces)
        for n in range(120):
            assert woven.at(n) == pieces[n % k].at(n // k)


def test_classify_nplus_walk_converges_to_limit():
    cls = classify(NP, walk_seq(NP.universe, NAT_TAIL))
    assert cls.convergent and cls.limit_set == frozenset({FinitePoint("inf")})
    assert not cls.proper and not cls.no_conv_subseq


def test_classify_sierpinski_constant_two_limits():
    cls = classify(SP, const_seq(SP.universe, FinitePoint("1")))
    assert cls.limit_set == frozenset({FinitePoint("0"), FinitePoint("1")})


def test_classify_tail_point_constant():
    p = TailPoint(NAT_TAIL, 4)
    cls = classify(NN, const_seq(NN.universe, p))
    assert cls.convergent and cls.limit_set == frozenset({p})


def eventually_in_oracle(space, s, target, upto=200):
    return all(target.member(s.at(n)) for n in range(40, upto))


def test_classify_mix_interleave_by_brute_force():
    s = make_seq(
        MIX.universe, (), (ConstThread(FinitePoint("v")), WalkThread("t2", 1, 0))
    )
    cls = classify(MIX, s)
    assert (cls.convergent, cls.proper, cls.no_conv_subseq) == (False, False, False)
    # Brute force: no affine subsequence with a, b <= 6 makes it converge to v
    # while the walk thread stays active; neighborhood check at truncation 20.
    nbhd = open_basic_neighborhood(MIX, "v", 20)
    full_misses = any(not nbhd.member(s.at(n)) for n in range(50, 200))
    assert full_misses
    # ... but some affine subsequence does converge, and some does not:
    witnesses = []
    non_witnesses = []
    for a in range(1, 7):
        for b in range(0, 7):
            sub = subseq(s, Affine(a, b))
            if classify(MIX, sub).convergent:
                witnesses.append((a, b))
            else:
                non_witnesses.append((a, b))
    assert witnesses and non_witnesses


def test_convergence_ideal_shapes():
    conv = walk_seq(NP.universe, NAT_TAIL)
    assert convergence_ideal(NP, conv).kind == "full"

    proper = walk_seq(NN.universe, NAT_TAIL)
    shape = convergence_ideal(NN, proper)
    assert shape.kind == "empty"
    # Brute force: no affine u with a, b <= 8 yields a convergent subsequence.
    for a in range(1, 9):
        for b in range(0, 9):
            assert not classify(NN, subseq(proper, Affine(a, b))).convergent

    s = make_seq(
        MIX.universe, (), (ConstThread(FinitePoint("v")), WalkThread("t2", 1, 0))
    )
    shape = convergence_ideal(MIX, s)
    assert shape.kind == "partial"
    assert classify(MIX, subseq(s, shape.witness)).convergent
    assert not classify(MIX, subseq(s, shape.non_witness)).convergent
    # Explicit residue computation: the witness selects the constant thread.
    assert shape.witness == Affine(2, 0) or shape.witness.a % 2 == 0


def test_thread_selector_targets_thread():
    rng = random.Random(6)
    for _ in range(30):
        space = gen_space(rng)
        s = gen_seq(rng, space)
        r = rng.randrange(len(s.threads))
        sel = thread_selector(s, r)
        picked = subseq(s, sel)
        for n in range(40):
            assert picked.at(n) == s.at(sel(n))


def test_properness_stable_under_affine_action():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        space = gen_space(rng)
        s = gen_seq(rng, space)
        if not classify(space, s).proper:
            continue
        checked += 1
        u = Affine(rng.randrange(1, 6), rng.randrange(0, 6))
        assert classify(space, subseq(s, u)).proper
    assert checked > 10


def test_proper_iff_noconv_on_s2_and_one_way_on_hausdorff():
    from extseq.spaces import space_report

    rng = random.Random(8)
    s2_seen = 0
    for _ in range(200):
        space = gen_space(rng)
        rep = space_report(space)
        s = gen_seq(rng, space)
        cls = classify(space, s)
        if rep.s2:
            s2_seen += 1
            assert cls.proper == cls.no_conv_subseq
        if rep.hausdorff and cls.proper:
            assert cls.no_conv_subseq
        if cls.no_conv_subseq:
            assert not cls.convergent
    assert s2_seen > 20


def test_ideal_empty_iff_noconv_full_if_convergent():
    rng = random.Random(9)
    for _ in range(150):
        space = gen_space(rng)
        s = gen_seq(rng, space)
        cls = classify(space, s)
        shape = convergence_ideal(space, s)
        assert (shape.kind == "empty") == cls.no_conv_subseq
        if cls.convergent:
            assert shape.kind == "full"


def test_seq_equal_is_function_equality():
    s = walk_seq(NN.universe, NAT_TAIL)
    # Same function presented with two threads and a prefix.
    t = make_seq(
        NN.universe,
        (TailPoint(NAT_TAIL, 0), TailPoint(NAT_TAIL, 1)),
        (WalkThread(NAT_TAIL, 2, 2), WalkThread(NAT_TAIL, 2, 3)),
    )
    assert seq_equal(s, t)
    assert not seq_equal(s, walk_seq(NN.universe, NAT_TAIL, 1, 1))


def test_first_difference_is_the_least_differing_index():
    s = walk_seq(NN.universe, NAT_TAIL)
    same = make_seq(NN.universe, (TailPoint(NAT_TAIL, 0),), (WalkThread(NAT_TAIL, 1, 1),))
    assert first_difference(s, same) is None
    late = make_seq(
        NN.universe,
        (TailPoint(NAT_TAIL, 0), TailPoint(NAT_TAIL, 1), TailPoint(NAT_TAIL, 7)),
        (WalkThread(NAT_TAIL, 1, 3),),
    )
    assert first_difference(s, late) == first_difference(late, s) == 2
    # No prefix: the second thread parts from s at index 3 (5 against 3).
    odd = make_seq(NN.universe, (), (WalkThread(NAT_TAIL, 2, 0), WalkThread(NAT_TAIL, 4, 1)))
    assert [s.at(n) == odd.at(n) for n in range(4)] == [True, True, True, False]
    assert first_difference(s, odd) == 3
    with pytest.raises(UniverseMismatch):
        first_difference(s, walk_seq(NP.universe, NAT_TAIL))


def refuse_to_read(self, n):
    raise AssertionError("an equal presentation read a point")


def test_equal_presentations_read_no_point(monkeypatch):
    # The same prefix and threads, as distinct objects, are the same function.
    rng = random.Random(4)
    pairs = []
    for _ in range(40):
        space = gen_space(rng, "all")
        s = gen_seq(rng, space)
        pairs.append((s, Seq(s.universe, tuple(list(s.prefix)), tuple(list(s.threads)))))
    monkeypatch.setattr(Seq, "at", refuse_to_read)
    for s, twin in pairs:
        assert twin is not s
        assert first_difference(s, twin) is None and seq_equal(twin, s)
    with pytest.raises(UniverseMismatch):
        first_difference(s, Seq(NN.universe, s.prefix, s.threads))


def unrolled(s):
    """The same function as s, its first cycle moved into the prefix: each
    walk starts one step on, and a constant stays itself."""
    cycle = tuple(s.at(len(s.prefix) + r) for r in range(len(s.threads)))
    threads = tuple(
        WalkThread(th.tail, th.a, th.b + th.a) if isinstance(th, WalkThread) else th
        for th in s.threads
    )
    return Seq(s.universe, s.prefix + cycle, threads)


def doubled(s):
    """The same function as s over twice its threads: each walk split into
    its even and odd steps."""
    threads = tuple(
        WalkThread(th.tail, 2 * th.a, th.b + c * th.a) if isinstance(th, WalkThread) else th
        for c in range(2)
        for th in s.threads
    )
    return Seq(s.universe, s.prefix, threads)


def nudged(s, space, rng):
    """s with one thread changed past the prefix: a walk steps one further
    on, a constant moves to another point of the space."""
    r = rng.randrange(len(s.threads))
    th = s.threads[r]
    if isinstance(th, WalkThread):
        th = WalkThread(th.tail, th.a, th.b + 1)
    elif isinstance(th.point, TailPoint):
        th = ConstThread(TailPoint(th.point.tail, th.point.index + 1))
    else:
        others = [FinitePoint(x) for x in space.points if x != th.point.id]
        th = ConstThread(rng.choice(others)) if others else WalkThread(space.tails[0])
    return Seq(s.universe, s.prefix, s.threads[:r] + (th,) + s.threads[r + 1 :])


def scanned_difference(a, b):
    """The least n below max prefix + 2·lcm(thread counts) where a and b
    differ, read point by point; past that window they agree for another
    four cycles whenever they agree in it."""
    bound = max(len(a.prefix), len(b.prefix)) + 2 * math.lcm(len(a.threads), len(b.threads))
    first = next((n for n in range(bound) if a.at(n) != b.at(n)), None)
    if first is None:
        extra = 4 * math.lcm(len(a.threads), len(b.threads))
        assert all(a.at(n) == b.at(n) for n in range(bound, bound + extra))
    return first


@pytest.mark.parametrize("profile", ["tailed", "all"])
def test_first_difference_agrees_with_a_scan(profile):
    rng = random.Random(11)
    for _ in range(60):
        space = gen_space(rng, profile)
        if not space.tails:
            continue  # a lone point leaves nothing to nudge a constant to
        s = gen_seq(rng, space)
        same = [unrolled(s), doubled(s), doubled(unrolled(s))]
        late = nudged(unrolled(s), space, rng)
        for t in same:
            assert t != s and first_difference(s, t) is first_difference(t, s) is None
            assert scanned_difference(s, t) is None
        # late agrees with s on both prefixes and differs only past them.
        n = first_difference(s, late)
        assert n is not None
        assert n == first_difference(late, s) == scanned_difference(s, late)
        assert n >= len(late.prefix) >= len(s.prefix)


def test_walk_requires_injective_parameters():
    with pytest.raises(PresentationError):
        make_seq(NN.universe, (), (WalkThread(NAT_TAIL, 0, 0),))


def test_make_seq_needs_a_thread():
    with pytest.raises(PresentationError, match="at least one thread"):
        make_seq(NN.universe, (TailPoint(NAT_TAIL, 0),), ())


# -- independent oracle and sequence shapes ------------------------------------


def basic_neighborhood(space, x, k):
    """Membership in N(U_x, k), rebuilt from the presentation tuples alone:
    U_x, and the points past k of every tail attaching into U_x."""
    u = set(dict(space.min_open)[x])
    hit = {t for t, a in space.attach if u & set(a)}

    def member(p):
        if isinstance(p, FinitePoint):
            return p.id in u
        return p.tail in hit and p.index >= k

    return member


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(["tailed", "all", "s2-only"]))
def test_limit_set_agrees_with_basic_neighborhoods(seed, profile):
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    for _ in range(10):
        s = gen_seq(rng, space)
        lim = limit_set(space, s)
        # k past every index a constant thread names; the window starts where
        # every walk is past k, since a walk's q-th value is at least q.
        consts = [th.point for th in s.threads if isinstance(th, ConstThread)]
        k = 1 + max((p.index for p in consts if isinstance(p, TailPoint)), default=0)
        start = len(s.prefix) + len(s.threads) * (k + 1)
        window = [s.at(n) for n in range(start, start + 3 * len(s.threads))]
        for x in space.points:
            member = basic_neighborhood(space, x, k)
            assert (FinitePoint(x) in lim) == all(member(p) for p in window)
        # Tail points are isolated: a limit there is an eventual constant.
        constant = set(window) if len(set(window)) == 1 else set()
        tail_limits = {p for p in constant if isinstance(p, TailPoint)}
        assert {p for p in lim if isinstance(p, TailPoint)} == tail_limits


def shape_of(s):
    """s without its prefix, every walk set to n -> n, repeated threads dropped."""
    threads = []
    for th in s.threads:
        th = WalkThread(th.tail) if isinstance(th, WalkThread) else th
        if th not in threads:
            threads.append(th)
    return make_seq(s.universe, (), threads)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(["tailed", "all", "s2-only"]))
def test_classify_reads_only_the_sequence_shape(seed, profile):
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    for _ in range(10):
        s = gen_seq(rng, space)
        assert classify(space, shape_of(s)) == classify(space, s)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(PROFILES))
def test_the_sequence_rules_read_a_draw_as_its_seq(seed, profile):
    # One rule on two inputs: the suites decide a drawn sequence on the
    # draw's thread bits, classify on the Seq built from the same draw.
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    v = space.compiled
    for _ in range(10):
        draw = _draw_seq(rng, space)
        s = _drawn_seq(space, draw)
        bits = draw[2]
        assert bits == _tail_bits(v, s)
        cls = classify(space, s)
        assert (_proper(v, bits), _no_conv_subseq(v, bits)) == (cls.proper, cls.no_conv_subseq)


def test_thread_bits_check_the_universe():
    with pytest.raises(UniverseMismatch):
        _tail_bits(NP.compiled, walk_seq(NN.universe, NAT_TAIL))


@pytest.mark.parametrize("profile", PROFILES)
def test_thread_rule_agrees_with_limit_set(profile):
    # The rule names a thread by its head: a constant's point or a walk's
    # tail.  On every one-thread sequence its mask is the finite part of
    # limit_set, and a constant at a tail point keeps that point alone.  Both
    # match the presentation read by name: a constant at y converges to the
    # x with y in minOpen(x), a walk out t to the x whose minOpen meets
    # attach(t).
    rng = random.Random(20)
    for _ in range(30):
        space = gen_space(rng, profile)
        v, uni = space.compiled, space.universe
        min_open, attach = dict(space.min_open), dict(space.attach)

        def by_name(head):
            if isinstance(head, str):
                return {x for x, u in min_open.items() if set(u) & set(attach[head])}
            if isinstance(head, FinitePoint):
                return {x for x, u in min_open.items() if head.id in u}
            return set()

        heads = [FinitePoint(x) for x in space.points]
        heads += [TailPoint(t, m) for t in space.tails for m in range(MAX_AFFINE + 1)]
        heads += list(space.tails)
        for head in heads:
            th = WalkThread(head) if isinstance(head, str) else ConstThread(head)
            lim = limit_set(space, make_seq(uni, (), (th,)))
            assert set(v.names(_thread_limits(v, head))) == by_name(head)
            assert {p.id for p in lim if isinstance(p, FinitePoint)} == by_name(head)
            assert {p for p in lim if isinstance(p, TailPoint)} == (
                {head} if isinstance(head, TailPoint) else set()
            )


_index = st.integers(0, MAX_AFFINE)
_INF = FinitePoint("inf")
_value = st.one_of(st.just(_INF), st.builds(lambda k: TailPoint(NAT_TAIL, k), _index))
_index_thread = st.one_of(
    st.builds(ConstThread, _value),
    st.builds(lambda a, b: WalkThread(NAT_TAIL, a, b), st.integers(1, 4), _index),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prefix=st.lists(_value, max_size=3),
    threads=st.lists(_index_thread, min_size=1, max_size=3),
)
def test_seq_compose_is_pointwise(seed, prefix, threads):
    # s o u read point by point for u over ℕ⁺: a tail point p = u(n) is an
    # argument index into s, and the added point inf reads `special`, as in
    # conv_compose.  A walk of u is read into s as a whole re-indexing.
    rng = random.Random(seed)
    space = gen_space(rng, "tailed")
    s = gen_seq(rng, space)
    special = {_INF: sample_point(rng, space)}
    u = make_seq(NP.universe, prefix, threads)
    composite = seq_compose(s, u, special)
    for n in range(len(u.prefix) + 3 * len(u.threads)):
        p = u.at(n)
        assert composite.at(n) == (special[p] if p == _INF else s.at(p.index))


def pieces_of(s, u, special):
    """`seq_compose` by its pieces, the reference for its one-thread path:
    u's prefix resolved point by point, then one piece per index thread (a
    constant, or `subseq` by the walk's slope and offset) to interleave."""

    def resolve(p):
        return special[p] if p == _INF else s.at(p.index)

    pieces = [
        Seq(s.universe, (), (ConstThread(resolve(th.point)),))
        if isinstance(th, ConstThread)
        else subseq(s, Affine(th.a, th.b))
        for th in u.threads
    ]
    return tuple(resolve(p) for p in u.prefix), pieces


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prefix=st.lists(_value, max_size=3),
    threads=st.lists(_index_thread, min_size=1, max_size=3),
    with_special=st.booleans(),
)
def test_rethreading_kernel_reads_pointwise(seed, prefix, threads, with_special):
    # subseq, seq_compose (1-3 index threads, with and without `special`)
    # and interleave, each read against s o u through its prefix plus two
    # full cycles.  With one index thread, seq_compose returns exactly the
    # tuples its one piece gave through interleave; with more, those of the
    # interleaved pieces.
    rng = random.Random(seed)
    space = gen_space(rng, "tailed")
    s = gen_seq(rng, space)
    special = {_INF: sample_point(rng, space)} if with_special else None
    if not with_special:  # no point for inf to read: index it as 0
        zero = TailPoint(NAT_TAIL, 0)
        prefix = [zero if p == _INF else p for p in prefix]
        threads = [ConstThread(zero) if th == ConstThread(_INF) else th for th in threads]
    u = make_seq(NP.universe, prefix, threads)

    def read(p):
        return special[p] if p == _INF else s.at(p.index)

    composite = seq_compose(s, u, special)
    cycle = math.lcm(len(composite.threads), len(u.threads))
    for n in range(max(len(composite.prefix), len(u.prefix)) + 2 * cycle):
        assert composite.at(n) == read(u.at(n))
    head, pieces = pieces_of(s, u, special)
    glued = interleave(pieces)
    assert (composite.prefix, composite.threads) == (head + glued.prefix, glued.threads)
    if len(pieces) == 1:
        assert (glued.prefix, glued.threads) == (pieces[0].prefix, pieces[0].threads)
    for n in range(len(glued.prefix) + 2 * len(glued.threads)):
        assert glued.at(n) == pieces[n % len(pieces)].at(n // len(pieces))
    aff = Affine(rng.randrange(1, 9), rng.randrange(0, 9))
    sub = subseq(s, aff)
    for n in range(len(sub.prefix) + 2 * len(sub.threads)):
        assert sub.at(n) == s.at(aff(n))


def test_seq_compose_refuses_a_tail_point_key():
    # A walk of u yields tail points and is read into s as a whole, so it
    # could not honour a tail point key: the key is refused, not ignored.
    s, u = walk_seq(NP.universe, NAT_TAIL, 1, 10), walk_seq(NN.universe, NAT_TAIL)
    with pytest.raises(PresentationError, match="not a finite point"):
        seq_compose(s, u, {TailPoint(NAT_TAIL, 0): FinitePoint("inf")}).at(0)


def test_seq_compose_refuses_an_index_sequence_over_two_tails():
    # A tail point of u is read by its index alone, so u over two tails
    # would read tp(a,m) and tp(b,m) as the same argument m.
    two = validate_space((), {}, ("a", "b"), {"a": (), "b": ()})
    s = walk_seq(nat_plus_space().universe, "n")
    u = make_seq(two.universe, (), (WalkThread("a"), WalkThread("b")))
    with pytest.raises(PresentationError, match="2 tails"):
        seq_compose(s, u)
    nat_free = validate_space(("x",), {"x": ["x"]}, (), {})
    with pytest.raises(PresentationError, match="0 tails"):
        seq_compose(s, const_seq(nat_free.universe, FinitePoint("x")), {FinitePoint("x"): s.at(0)})
