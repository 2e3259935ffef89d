"""One-point constructions, s-compactness, and the round-trip equivalences."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.compactify import (
    BasedSpace,
    bar,
    based_iso,
    epsilon_sc,
    infinity,
    is_omega_sequential,
    is_s_compact,
    make_based,
    plus,
    plus_map,
    space_isos,
    wedge,
)
from extseq.core import FinitePoint, ev_set
from extseq.errors import PresentationError
from extseq.exteriority import (
    ExtSpace,
    Externology,
    canonicalize,
    cocompact_ext_space,
    cocompact_externology,
    is_e_open,
    make_ext_space,
)
from extseq.generate import PROFILES, gen_ext, gen_map, gen_space, sample_evset
from extseq.instances import NAT_TAIL, nat_plus_space, nat_space, point_space
from extseq.maps import compose_maps, is_seq_continuous, map_properties
from extseq.sequences import classify
from extseq.spaces import (
    CompiledSpace,
    is_open,
    is_sequentially_open,
    set_properties,
    space_report,
    subspace,
    validate_space,
)
from support import (
    coproduct,
    empty_space,
    full_set,
    identity_map,
    indiscrete_point,
    mixed_space,
    sierpinski_space,
)

NN = nat_space()
NP = nat_plus_space()
SP = sierpinski_space()
MIX = mixed_space()


def with_isolated_point(space, name="iso"):
    """The space plus one isolated base point, presented from scratch."""
    min_open = {**dict(space.min_open), name: (name,)}
    return make_based(
        validate_space((*space.points, name), min_open, space.tails, dict(space.attach)), name
    )


# -- s-compact sets -------------------------------------------------------------


def test_empty_set_s_compact():
    for space in (NN, NP, SP, MIX):
        assert is_s_compact(space, ev_set(space.universe))


def test_nn_full_not_s_compact():
    # The identity walk is proper and never leaves the set.
    assert not is_s_compact(NN, full_set(NN.universe))
    from extseq.sequences import walk_seq

    assert classify(NN, walk_seq(NN.universe, NAT_TAIL)).proper


def test_nplus_full_s_compact():
    # No proper sequences exist; sampled sequences confirm.
    assert is_s_compact(NP, full_set(NP.universe))
    from extseq.generate import gen_seq

    rng = random.Random(1)
    for _ in range(50):
        assert not classify(NP, gen_seq(rng, NP)).proper


def test_epsilon_sc_examples():
    assert epsilon_sc(NN) == cocompact_externology(NN)
    assert epsilon_sc(point_space()) == cocompact_externology(point_space())
    assert epsilon_sc(MIX).tails == ("t2",)
    rng = random.Random(2)
    e = make_ext_space(MIX, (), epsilon_sc(MIX).tails)
    cc = cocompact_ext_space(MIX)
    for _ in range(100):
        s = sample_evset(rng, MIX)
        assert is_e_open(e, s) == is_e_open(cc, s)


def test_epsilon_sc_equals_cocompact_on_generated():
    rng = random.Random(3)
    for _ in range(100):
        space = gen_space(rng)
        assert epsilon_sc(space) == cocompact_externology(space)


def test_omega_sequential_examples():
    assert is_omega_sequential(NN)
    assert is_omega_sequential(NP)
    assert is_omega_sequential(MIX)
    rng = random.Random(4)
    for _ in range(60):
        assert is_omega_sequential(gen_space(rng))


# -- plus ------------------------------------------------------------------------


def test_plus_of_naturals_is_convergent_sequence():
    assert based_iso(plus(NN), make_based(NP, "inf")) is not None


def test_plus_of_empty_is_isolated_point():
    b = plus(empty_space())
    assert b.space.points == ("inf",) and not b.space.tails


def test_plus_of_compact_adds_isolated_point():
    b = plus(NP)
    iso = based_iso(b, with_isolated_point(NP))
    assert iso is not None
    from extseq.spaces import min_open_map

    assert min_open_map(b.space)[b.base_point] == {b.base_point}


def test_plus_opens_at_infinity_are_cocompact_members():
    rng = random.Random(5)
    for _ in range(40):
        space = gen_space(rng)
        b = plus(space)
        cc = cocompact_ext_space(space)
        for _ in range(25):
            s = sample_evset(rng, b.space)
            if not s.member(FinitePoint(b.base_point)):
                continue
            restricted = ev_set(
                space.universe,
                [x for x in space.points if x in s.finite],
                {t: s.is_cofinite_on(t) for t in space.tails},
                {t: s.flips_on(t) for t in space.tails},
            )
            assert is_open(b.space, s) == is_e_open(cc, restricted)


# -- wedge -----------------------------------------------------------------------


def test_wedge_of_sequentially_compact_is_coproduct():
    b = wedge(NP)
    assert based_iso(b, with_isolated_point(NP)) is not None


def test_wedge_of_naturals_is_convergent_sequence():
    assert based_iso(wedge(NN), make_based(NP, "inf")) is not None


def test_wedge_equals_plus_on_s2_instances():
    rng = random.Random(6)
    for _ in range(60):
        space = gen_space(rng, "s2-only")
        assert based_iso(wedge(space), plus(space)) is not None


# -- infinity and bar ------------------------------------------------------------


def test_infinity_over_cocompact_is_plus():
    rng = random.Random(7)
    for _ in range(60):
        space = gen_space(rng)
        assert based_iso(infinity(cocompact_ext_space(space)), plus(space)) is not None


def test_infinity_of_indiscrete_point_is_sierpinski():
    b = infinity(indiscrete_point())
    target = make_based(SP, "0")  # open point 1, closed base point 0
    assert based_iso(b, target) is not None


def test_infinity_of_discrete_externology_adds_isolated_point():
    e = make_ext_space(MIX)  # discrete: empty set is a member
    b = infinity(e)
    assert based_iso(b, with_isolated_point(MIX)) is not None


def ext_spaces_iso(a, b):
    """Exterior spaces are isomorphic iff their one-point extensions are, as
    based spaces: the added point's minimal open is {inf} ∪ L, and the
    tails it captures are those of the canonical D."""
    return based_iso(infinity(a), infinity(b))


def test_bar_examples():
    assert ext_spaces_iso(bar(make_based(NP, "inf")), cocompact_ext_space(NN)) is not None
    b = bar(make_based(SP, "0"))
    assert b.space.points == ("1",) and b.ext.limits == ("1",)
    assert ext_spaces_iso(b, indiscrete_point()) is not None


def test_infinity_iso_matches_tails_by_membership_in_d():
    free_two = validate_space([], {}, ["a", "b"])
    only_b = make_ext_space(free_two, (), ["b"])
    assert ext_spaces_iso(only_b, only_b)[1] == {"a": "a", "b": "b"}
    only_a = make_ext_space(free_two, (), ["a"])
    assert ext_spaces_iso(only_a, only_b)[1] == {"a": "b", "b": "a"}
    assert ext_spaces_iso(only_a, make_ext_space(free_two, (), ["a", "b"])) is None


def test_infinity_iso_compares_canonical_pairs():
    # The raw pair L = {0} presents the filter of its canonical form.
    raw = ExtSpace(SP, Externology(("0",), ()))
    canonical = make_ext_space(SP, ["0"])
    assert ext_spaces_iso(raw, canonical) is not None
    assert ext_spaces_iso(canonical, raw) is not None
    assert infinity(raw) == infinity(canonical)


def test_bar_rejects_bad_base_points():
    with pytest.raises(PresentationError):
        bar(BasedSpace(SP, "1"))  # {1} is not closed
    with pytest.raises(PresentationError):
        make_based(SP, "1")
    with pytest.raises(PresentationError):
        make_based(SP, NAT_TAIL)


def test_round_trips_on_generated_instances():
    rng = random.Random(8)
    for _ in range(200):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        assert bar(infinity(e)) == e
        b = infinity(e)
        assert based_iso(infinity(bar(b)), b) is not None


@pytest.mark.parametrize("profile", PROFILES)
def test_bar_reads_a_canonical_pair(profile):
    # bar builds its pair from the based space's view with no
    # canonicalize: the pair must already be the canonical one, on every
    # based space the package builds and on every closed point of a
    # generated space.
    rng = random.Random(39)
    outputs = 0
    for _ in range(150):
        space = gen_space(rng, profile)
        raw = ExtSpace(space, Externology(tuple(x for x in space.points if rng.random() < 0.4), ()))
        based = [infinity(gen_ext(rng, space)), infinity(raw), plus(space), wedge(space)]
        based.append(infinity(cocompact_ext_space(space)))
        for x in space.points:
            try:
                based.append(make_based(space, x))
            except PresentationError:  # not closed
                pass
        for b in based:
            e = bar(b)
            assert e.ext == canonicalize(e.space, e.ext.limits, e.ext.tails)
            outputs += 1
    assert outputs > 1000


def revalidated(space):
    """validate_space of a space's own presentation."""
    return validate_space(space.points, dict(space.min_open), space.tails, dict(space.attach))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    profile=st.sampled_from(["finite", "tailed", "s2-only", "all"]),
)
def test_derived_spaces_are_canonical_presentations(seed, profile):
    # Derivations build their spaces without the law checks; each must be
    # exactly what validate_space makes of its presentation.
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    derived = []
    if space.tails:
        # A point named like the trace member (t, m): the subspace keeping
        # both renames the member.
        t, m = space.tails[0], rng.randrange(12)
        space = coproduct(space, point_space(f"{t}#{m}"))
        both = subspace(space, ev_set(space.universe, [f"{t}#{m}"], {t: False}, {t: [m]}))
        assert f"{t}#{m}'" in both.points
        derived += [space, both]
    ext = gen_ext(rng, space)
    derived += [subspace(space, sample_evset(rng, space)) for _ in range(10)]
    derived += [coproduct(space, gen_space(rng, profile)), coproduct(space, space)]
    for b in (plus(space), wedge(space), infinity(ext)):
        derived += [b.space, bar(b).space]
    for d in derived:
        assert revalidated(d) == d


# -- the statement-level invariants ----------------------------------------------


def test_closed_s_compact_sets_are_countably_compact():
    rng = random.Random(9)
    for _ in range(80):
        space = gen_space(rng)
        for _ in range(25):
            c = sample_evset(rng, space)
            if set_properties(space, c).closed and is_s_compact(space, c):
                assert space_report(subspace(space, c)).countably_compact


def test_three_way_equivalence_on_s2():
    rng = random.Random(10)
    for _ in range(80):
        space = gen_space(rng, "s2-only")
        for _ in range(25):
            c = sample_evset(rng, space)
            sub = space_report(subspace(space, c))
            assert is_s_compact(space, c) == sub.countably_compact == sub.seq_compact


def test_plus_space_is_sequential_iff_omega():
    rng = random.Random(11)
    for _ in range(50):
        space = gen_space(rng)
        assert is_omega_sequential(space)
        b = plus(space)
        for _ in range(30):
            s = sample_evset(rng, b.space)
            assert is_sequentially_open(b.space, s) == is_open(b.space, s)


def test_seq_proper_iff_plus_map_seq_continuous():
    rng = random.Random(12)
    for _ in range(150):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        assert map_properties(f).seq_proper == is_seq_continuous(plus_map(f))


def test_plus_is_functorial():
    rng = random.Random(13)
    for _ in range(60):
        a, b, c = gen_space(rng), gen_space(rng), gen_space(rng)
        f, g = gen_map(rng, a, b), gen_map(rng, b, c)
        assert plus_map(compose_maps(f, g)) == compose_maps(plus_map(f), plus_map(g))


def test_equivalence_round_trip_on_discrete_instances():
    # On discrete-preorder instances, stripping the added point recovers the
    # cocompact structure, and compact based instances arise as one-point
    # compactifications of their complements.
    rng = random.Random(14)
    for _ in range(60):
        space = gen_space(rng, "s2-only")
        b = plus(space)
        back = bar(b)
        assert back.space == space
        assert back.ext == cocompact_externology(space)
        if space_report(b.space).hausdorff:
            assert based_iso(plus(back.space), b) is not None


def test_iso_search_finds_relabeled_copies():
    import string

    from extseq.compactify import space_isos
    from extseq.spaces import validate_space

    rng = random.Random(16)
    for _ in range(50):
        space = gen_space(rng)
        pm = dict(zip(space.points, rng.sample(string.ascii_lowercase, len(space.points))))
        tm = {t: f"T{i}" for i, t in enumerate(space.tails)}
        other = validate_space(
            [pm[x] for x in space.points],
            {pm[x]: [pm[y] for y in u] for x, u in space.min_open},
            list(tm.values()),
            {tm[t]: [pm[z] for z in row] for t, row in space.attach},
        )
        sigma, tau = next(space_isos(space, other))
        assert {sigma[x] for x in space.points} == set(other.points)
        assert {tau[t] for t in space.tails} == set(other.tails)


def test_iso_search_rejects_structurally_different_spaces():
    from extseq.compactify import space_isos
    from extseq.spaces import validate_space

    discrete_two = validate_space(["0", "1"], {"0": ["0"], "1": ["1"]})
    assert next(space_isos(SP, discrete_two), None) is None
    assert next(space_isos(NN, NP), None) is None
    both_attached = validate_space(
        ["v"], {"v": ["v"]}, ["t1", "t2"], {"t1": ["v"], "t2": ["v"]}
    )
    assert next(space_isos(MIX, both_attached), None) is None
    # Sizes that differ, either way round: a point more, and a tail more
    # on the same points.
    one_tail = validate_space(["v"], {"v": ["v"]}, ["t1"], {"t1": ["v"]})
    for a, b in ((SP, point_space()), (MIX, one_tail)):
        assert next(space_isos(a, b), None) is None
        assert next(space_isos(b, a), None) is None


def search_answer(a, b):
    """The first isomorphism the permutation search yields for two based spaces."""
    return next(space_isos(a.space, b.space, {a.base_point: b.base_point}), None)


def test_equal_presentations_get_the_search_answer():
    # The pairs the suites compare are equal presentations, and based_iso
    # answers them without a search: with the very dicts, in the same order,
    # that the search yields first (the stream-cold digest hashes them).
    shared = 0
    for profile in PROFILES:
        rng = random.Random(38)
        for _ in range(40):
            space = gen_space(rng, profile)
            b = infinity(gen_ext(rng, space))
            pairs = (
                (wedge(space), plus(space)),
                (infinity(cocompact_ext_space(space)), plus(space)),
                (infinity(bar(b)), b),
            )
            for x, y in pairs:
                assert x.space == y.space and x.base_point == y.base_point
                got, want = based_iso(x, y), search_answer(x, y)
                assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
            caps = list(b.space.compiled.capture_masks.values())
            shared += len(set(caps)) < len(caps)
    assert shared > 0
    # Two tails with one capture mask are matched in reverse, as the
    # search's pool pops them.
    free_two = validate_space([], {}, ["a", "b"])
    both = infinity(make_ext_space(free_two, (), ["a", "b"]))
    reversed_match = ({"inf": "inf"}, {"a": "b", "b": "a"})
    assert based_iso(both, both) == search_answer(both, both) == reversed_match


def test_equal_presentations_compile_no_view_of_the_first_space(monkeypatch):
    rng = random.Random(39)
    cases = []
    for _ in range(40):
        space = gen_space(rng)
        b = infinity(gen_ext(rng, space))
        cases += [(infinity(bar(b)), b), (wedge(space), plus(space))]
    compiled = []
    real_init = CompiledSpace.__init__

    def counting_init(self, space):
        compiled.append(space)
        real_init(self, space)

    monkeypatch.setattr(CompiledSpace, "__init__", counting_init)
    for a, b in cases:
        assert a.space == b.space and a.space is not b.space
        assert based_iso(a, b) is not None
    assert not any(s is a.space for s in compiled for a, _ in cases)


def relabeled(b, rng):
    """A copy of a based space under random point and tail names whose
    sorted order differs from the original's, with the renamings."""
    space = b.space
    while True:
        pm = dict(zip(space.points, rng.sample(string.ascii_lowercase, len(space.points))))
        tm = dict(zip(space.tails, rng.sample([f"T{i}" for i in range(10)], len(space.tails))))
        order = [pm[x] for x in space.points], [tm[t] for t in space.tails]
        if order != (sorted(pm.values()), sorted(tm.values())):
            break
    other = validate_space(
        pm.values(),
        {pm[x]: [pm[y] for y in u] for x, u in space.min_open},
        tm.values(),
        {tm[t]: [pm[z] for z in row] for t, row in space.attach},
    )
    return make_based(other, pm[b.base_point]), pm


def capture_names(space, t):
    """The points that capture tail t, by name."""
    v = space.compiled
    return set(v.names(v.capture_masks[v.tail_bit[t]]))


def name_signature(space, x):
    """|minOpen(x)|, the points whose minimal open holds x, the tails x captures."""
    return (
        len(dict(space.min_open)[x]),
        sum(x in u for _, u in space.min_open),
        sum(x in capture_names(space, t) for t in space.tails),
    )


def test_iso_search_carries_up_sets_and_capture_sets_of_relabeled_copies():
    # Generated based spaces, and two 2-chains, whose points pair up by
    # signature in two ways of which only one keeps the minimal opens.
    rng = random.Random(40)
    chains = validate_space("pqrs", {"p": "p", "q": "pq", "r": "r", "s": "rs"}, ["t"], {"t": "q"})
    based = [infinity(gen_ext(rng, gen_space(rng))) for _ in range(80)]
    based += [plus(chains)] * 20
    searched = 0
    for b in based:
        if len(b.space.points) < 2 and len(b.space.tails) < 2:
            continue
        c, _ = relabeled(b, rng)
        assert c.space != b.space
        sigma, tau = based_iso(b, c)
        searched += 1
        assert sigma[b.base_point] == c.base_point
        assert sorted(sigma.values()) == list(c.space.points)
        assert sorted(tau.values()) == list(c.space.tails)
        up_c = dict(c.space.min_open)
        for x, u in b.space.min_open:
            assert {sigma[y] for y in u} == set(up_c[sigma[x]])
        for t in b.space.tails:
            assert {sigma[x] for x in capture_names(b.space, t)} == capture_names(c.space, tau[t])
    assert searched > 40


def test_iso_search_returns_none_on_non_isomorphic_based_spaces():
    # One space based at two closed points in different roles: x captures
    # the tail and y does not, though sizes and signature lists agree.
    three = validate_space(
        ["x", "y", "z"], {"x": ["x"], "y": ["y"], "z": ["z"]}, ["t"], {"t": ["x"]}
    )
    assert based_iso(make_based(three, "y"), make_based(three, "x")) is None
    assert based_iso(make_based(three, "y"), make_based(three, "z")) is not None
    # Generated: a relabeled copy based at a closed point whose signature
    # differs from the base point's.
    rng = random.Random(41)
    refused = 0
    for _ in range(60):
        space = gen_space(rng)
        b = infinity(gen_ext(rng, space))
        if len(b.space.points) < 2 and len(b.space.tails) < 2:
            continue
        c, pm = relabeled(b, rng)
        base_sig = name_signature(b.space, b.base_point)
        for x in b.space.points:
            if name_signature(b.space, x) == base_sig:
                continue
            try:
                elsewhere = make_based(c.space, pm[x])
            except PresentationError:  # not closed
                continue
            assert based_iso(b, elsewhere) is None
            refused += 1
    assert refused > 20


def test_identity_plus_map_roundtrip():
    rng = random.Random(15)
    for _ in range(30):
        space = gen_space(rng)
        assert plus_map(identity_map(space)) == identity_map(plus(space).space)
