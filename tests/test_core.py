"""Set algebra: frozen examples with brute-force oracles, then law checks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.core import (
    EvSet,
    FinitePoint,
    TailPoint,
    ev_complement,
    ev_intersect,
    ev_set,
    ev_union,
    make_universe,
)
from extseq.errors import PresentationError, UniverseMismatch
from extseq.generate import gen_space, sample_evset, sample_open_set
from support import from_points, full_set

U = make_universe(["a", "b"], ["t", "u"])


def members_upto(s: EvSet, bound: int) -> set:
    """Brute-force membership table: finite points plus tail indices < bound."""
    out = {x for x in s.universe.points if s.member(FinitePoint(x))}
    for t in s.universe.tails:
        out |= {(t, m) for m in range(bound) if s.member(TailPoint(t, m))}
    return out


def test_flip_of_eventual_set():
    s = ev_set(U, eventual={"t": True}, flips={"t": [3]})
    assert s.member(TailPoint("t", 3)) is False
    assert s.member(TailPoint("t", 2)) is True


def test_empty_presentation_has_no_members():
    s = ev_set(U)
    assert not s.member(FinitePoint("a"))
    assert not s.member(TailPoint("t", 7))


def test_complement_membership_against_enumerated_complement():
    singleton = from_points(U, [TailPoint("t", 0)])
    comp = ev_complement(singleton)
    # Oracle: enumerate the complement of {(t,0)} over indices 0..10 directly.
    expected = {("t", m) for m in range(11) if m != 0}
    expected |= {("u", m) for m in range(11)}
    expected |= {"a", "b"}
    assert members_upto(comp, 11) == expected
    assert comp.member(TailPoint("t", 1)) is True


def test_complement_involution():
    s = ev_set(U, ["a"], eventual={"t": True}, flips={"t": [1, 4], "u": [0]})
    assert ev_complement(ev_complement(s)) == s


def test_excluded_middle():
    s = ev_set(U, ["b"], eventual={"u": True}, flips={"t": [2]})
    assert ev_union(s, ev_complement(s)) == full_set(U)
    assert not any(
        ev_intersect(s, ev_complement(s)).member(p)
        for p in [FinitePoint("a"), TailPoint("t", 2), TailPoint("u", 9)]
    )


def test_intersection_of_eventual_tails_merges_flips():
    a = ev_set(U, eventual={"t": True}, flips={"t": [1]})
    b = ev_set(U, eventual={"t": True}, flips={"t": [2]})
    got = ev_intersect(a, b)
    # Oracle: pointwise intersection over indices 0..20.
    for m in range(21):
        assert got.member(TailPoint("t", m)) == (
            a.member(TailPoint("t", m)) and b.member(TailPoint("t", m))
        )
    assert got == ev_set(U, eventual={"t": True}, flips={"t": [1, 2]})


def test_cofinite_on_tail():
    assert ev_set(U, eventual={"t": True}, flips={"t": [5]}).is_cofinite_on("t")
    assert not ev_set(U, flips={"t": [0, 1, 2]}).is_cofinite_on("t")
    cofinite = ev_set(U, eventual={"t": True}, flips={"t": [7]})
    comp = ev_complement(cofinite)
    # Oracle: enumerate indices 0..50 of the complement.
    assert sum(comp.member(TailPoint("t", m)) for m in range(51)) == 1
    assert not comp.is_cofinite_on("t")


def test_unknown_ids_rejected():
    with pytest.raises(PresentationError):
        ev_set(U, ["zzz"])
    with pytest.raises(PresentationError):
        ev_set(U, flips={"nope": [1]})
    s = ev_set(U)
    with pytest.raises(PresentationError):
        s.member(TailPoint("nope", 0))


def test_universe_mismatch():
    other = make_universe(["a"], ["t"])
    with pytest.raises(UniverseMismatch):
        ev_union(ev_set(U), ev_set(other))


def test_namespace_clash_rejected():
    with pytest.raises(PresentationError):
        make_universe(["x"], ["x"])


ev_sets = st.builds(
    lambda fin, ev_t, ev_u, fl_t, fl_u: ev_set(
        U, fin, {"t": ev_t, "u": ev_u}, {"t": fl_t, "u": fl_u}
    ),
    st.sets(st.sampled_from(["a", "b"])),
    st.booleans(),
    st.booleans(),
    st.sets(st.integers(min_value=0, max_value=12), max_size=4),
    st.sets(st.integers(min_value=0, max_value=12), max_size=4),
)

points = st.one_of(
    st.sampled_from([FinitePoint("a"), FinitePoint("b")]),
    st.builds(TailPoint, st.sampled_from(["t", "u"]), st.integers(min_value=0, max_value=50)),
)


@given(ev_sets, ev_sets, points)
def test_union_is_pointwise_or(a, b, p):
    assert ev_union(a, b).member(p) == (a.member(p) or b.member(p))


@given(ev_sets, ev_sets, points)
def test_intersection_is_pointwise_and(a, b, p):
    assert ev_intersect(a, b).member(p) == (a.member(p) and b.member(p))


@given(ev_sets, points)
def test_complement_is_pointwise_not(a, p):
    assert ev_complement(a).member(p) != a.member(p)


@given(ev_sets, ev_sets)
@settings(max_examples=200)
def test_canonical_form_unique(a, b):
    same_everywhere = members_upto(a, 30) == members_upto(b, 30) and all(
        a.is_cofinite_on(t) == b.is_cofinite_on(t) for t in ("t", "u")
    )
    assert same_everywhere == (a == b)


@given(ev_sets)
def test_cofinite_iff_finitely_many_missing(a):
    for t in ("t", "u"):
        missing = [m for m in range(30) if not a.member(TailPoint(t, m))]
        if a.is_cofinite_on(t):
            assert len(missing) <= len(a.flips_on(t))
        else:
            assert len(missing) >= 30 - len(a.flips_on(t))


# Exhaustive oracle: every set of a few small universes, pairwise, against
# the pointwise combination of flags and flips evaluated element by element.


def _reference_combine(a: EvSet, b: EvSet, op) -> EvSet:
    fin = tuple(sorted(x for x in a.universe.points if op(x in a.finite, x in b.finite)))
    rows = []
    for (t, ea, fa), (_, eb, fb) in zip(a.rows, b.rows):
        ev = op(ea, eb)
        # Outside both flip sets the pointwise value equals op(ea, eb).
        fl = tuple(
            sorted(
                m
                for m in set(fa) | set(fb)
                if op(ea != (m in fa), eb != (m in fb)) != ev
            )
        )
        rows.append((t, ev, fl))
    return EvSet(a.universe, fin, tuple(rows))


def _reference_complement(a: EvSet) -> EvSet:
    fin = tuple(sorted(set(a.universe.points) - set(a.finite)))
    return EvSet(a.universe, fin, tuple((t, not ev, fl) for t, ev, fl in a.rows))


def _all_sets(universe, indices):
    """Every set whose flips lie in the given indices, each built by ev_set."""
    finite_parts = [
        [x for x, keep in zip(universe.points, bits) if keep]
        for bits in itertools.product((False, True), repeat=len(universe.points))
    ]
    flip_sets = [
        [m for m, keep in zip(indices, bits) if keep]
        for bits in itertools.product((False, True), repeat=len(indices))
    ]
    rows = list(itertools.product((False, True), flip_sets))
    for fin in finite_parts:
        for per_tail in itertools.product(rows, repeat=len(universe.tails)):
            yield ev_set(
                universe,
                fin,
                {t: ev for t, (ev, _) in zip(universe.tails, per_tail)},
                {t: fl for t, (_, fl) in zip(universe.tails, per_tail)},
            )


def _rebuilt(s: EvSet) -> EvSet:
    return ev_set(
        s.universe,
        s.finite,
        {t: ev for t, ev, _ in s.rows},
        {t: fl for t, _, fl in s.rows},
    )


# Indices 7 and 8 iterate as (8, 7) in a CPython set, so flips left in set
# order rather than sorted show up as a non-canonical result.
SMALL_UNIVERSES = [
    pytest.param(make_universe(["a"], ["t", "u"]), (0, 1), id="1pt-2tails"),
    pytest.param(make_universe(["a", "b"], ["t"]), (0, 1, 2), id="2pts-1tail"),
    pytest.param(make_universe(["a", "b", "c"], []), (), id="no-tails"),
    pytest.param(make_universe([], ["t", "u"]), (7, 8), id="no-points"),
]


@pytest.mark.parametrize("universe, indices", SMALL_UNIVERSES)
def test_algebra_matches_reference_on_every_set(universe, indices):
    sets = list(_all_sets(universe, indices))
    assert len(set(sets)) == len(sets)
    for a in sets:
        comp = ev_complement(a)
        assert comp == _reference_complement(a)
        assert comp == _rebuilt(comp)
        for b in sets:
            union = ev_union(a, b)
            assert union == _reference_combine(a, b, lambda p, q: p or q)
            assert union == _rebuilt(union)
            inter = ev_intersect(a, b)
            assert inter == _reference_combine(a, b, lambda p, q: p and q)
            assert inter == _rebuilt(inter)


# Generated universes: up to 6 points and 4 tails, with the flip sets and
# open sets the suites draw, past the reach of the exhaustive test above.
samplers = st.sampled_from([sample_evset, sample_open_set])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draw_a=samplers, draw_b=samplers)
def test_algebra_matches_reference_on_generated_universes(seed, draw_a, draw_b):
    rng = random.Random(seed)
    space = gen_space(rng)
    a, b = draw_a(rng, space), draw_b(rng, space)
    for x, y in ((a, b), (b, a), (a, a)):
        union = ev_union(x, y)
        assert union == _reference_combine(x, y, lambda p, q: p or q)
        assert union == _rebuilt(union)
        inter = ev_intersect(x, y)
        assert inter == _reference_combine(x, y, lambda p, q: p and q)
        assert inter == _rebuilt(inter)
    comp = ev_complement(a)
    assert comp == _reference_complement(a)
    assert comp == _rebuilt(comp)
