"""Sequence presentations: re-threading correctness and exact classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.core import FinitePoint, TailPoint
from extseq.errors import PresentationError
from extseq.generate import gen_seq, gen_space
from extseq.instances import NAT_TAIL, mixed_space, nat_plus_space, nat_space, sierpinski_space
from extseq.sequences import (
    IDENTITY,
    Affine,
    ConstThread,
    Seq,
    WalkThread,
    classify,
    const_seq,
    convergence_ideal,
    interleave,
    limit_set,
    make_seq,
    seq_equal,
    subseq,
    thread_selector,
    walk_seq,
)
from extseq.spaces import open_basic_neighborhood

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


def test_walk_requires_injective_parameters():
    with pytest.raises(PresentationError):
        make_seq(NN.universe, (), (WalkThread(NAT_TAIL, 0, 0),))


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
