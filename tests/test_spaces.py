"""Space deciders against brute-force topological oracles on small instances."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.core import TailPoint, ev_complement, ev_set, full_set, is_subset, shapes
from extseq.errors import PresentationError
from extseq.generate import gen_space, sample_evset
from extseq.instances import (
    NAT_TAIL,
    mixed_space,
    nat_plus_space,
    nat_space,
    sierpinski_space,
)
from extseq.serial import canonical_dumps, entity_to_json
from extseq.spaces import (
    SetProps,
    attach_map,
    captures,
    coproduct,
    is_open,
    is_sequentially_open,
    min_open_map,
    open_basic_neighborhood,
    set_properties,
    space_report,
    subspace,
    validate_space,
)

NN = nat_space()
NP = nat_plus_space()
SP = sierpinski_space()
MIX = mixed_space()


# -- validation ---------------------------------------------------------------


def test_sierpinski_presentation_valid():
    space = validate_space(["0", "1"], {"0": ["0", "1"], "1": ["1"]})
    assert min_open_map(space)["0"] == {"0", "1"}


def test_symmetric_two_point_preorder_valid():
    space = validate_space(["0", "1"], {"0": ["0", "1"], "1": ["0", "1"]})
    assert not space_report(space).t0


def test_dangling_attach_rejected():
    with pytest.raises(PresentationError):
        validate_space(["x"], {"x": ["x"]}, ["t"], {"t": ["z"]})


def test_missing_reflexivity_rejected():
    with pytest.raises(PresentationError):
        validate_space(["x", "y"], {"x": ["y"], "y": ["y"]})


def test_transitivity_violation_rejected():
    with pytest.raises(PresentationError):
        validate_space(
            ["x", "y", "z"], {"x": ["x", "y"], "y": ["y", "z"], "z": ["z"]}
        )


def test_repeated_names_rejected():
    with pytest.raises(PresentationError, match="repeated point name 'x'"):
        validate_space(["x", "x"], {"x": ["x"]})
    with pytest.raises(PresentationError, match="repeated tail name 't'"):
        validate_space(["x"], {"x": ["x"]}, ["t", "t"])


# -- open and sequentially open ----------------------------------------------


def test_sierpinski_opens():
    u = SP.universe
    assert is_open(SP, ev_set(u, ["1"]))
    assert is_open(SP, ev_set(u))
    assert is_open(SP, ev_set(u, ["0", "1"]))
    assert not is_open(SP, ev_set(u, ["0"]))


def test_empty_set_open_everywhere():
    for space in (NN, NP, SP, MIX):
        assert is_open(space, ev_set(space.universe))


def test_nplus_limit_singleton_not_open():
    s = ev_set(NP.universe, ["inf"])
    # Oracle: every basic neighborhood up to truncation contains tail points.
    for k in range(11):
        nbhd = open_basic_neighborhood(NP, "inf", k)
        assert nbhd.member(TailPoint(NAT_TAIL, k))
        assert not is_subset(nbhd, s)
    assert not is_open(NP, s)


def test_sierpinski_closed_point_not_sequentially_open():
    # Oracle: the constant sequence at 1 converges to 0 (1 lies in every
    # neighborhood of 0) but never enters {0}.
    assert "1" in min_open_map(SP)["0"]
    assert not is_sequentially_open(SP, ev_set(SP.universe, ["0"]))


def test_full_universe_sequentially_open():
    for space in (NN, NP, SP, MIX):
        assert is_sequentially_open(space, full_set(space.universe))


def test_nplus_neighborhood_of_limit_sequentially_open():
    from extseq.sequences import classify
    from extseq.generate import gen_seq

    s = ev_set(NP.universe, ["inf"], eventual={NAT_TAIL: True}, flips={NAT_TAIL: [0, 1]})
    assert is_sequentially_open(NP, s)
    # Oracle: every generated convergent sequence with a limit in the set is
    # eventually inside it (sample budget 50).
    rng = random.Random(5)
    from extseq.sequences import eventually_in

    for _ in range(50):
        seq = gen_seq(rng, NP)
        cls = classify(NP, seq)
        if cls.convergent and any(s.member(p) for p in cls.limit_set):
            assert eventually_in(seq, s)


# -- compactness ---------------------------------------------------------------


def brute_force_compact(space, s, k: int = 8) -> bool:
    """Cover oracle: the most adversarial basic-open cover at truncation k.

    Cover the set by N(U_x, k) for its finite members plus singletons for
    its tail points; a finite subcover exists iff the basic members leave
    only finitely many points uncovered.  Basic sets shrink as k grows and
    differ by finite sets beyond the presentation, so one truncation decides.
    """
    union = ev_set(space.universe)
    from extseq.core import ev_union

    for x in s.finite:
        union = ev_union(union, open_basic_neighborhood(space, x, k))
    leftover = ev_complement(union)
    from extseq.core import ev_intersect, is_finite

    return is_finite(ev_intersect(s, leftover))


def test_nn_full_not_compact():
    assert not set_properties(NN, full_set(NN.universe)).compact
    assert not brute_force_compact(NN, full_set(NN.universe))


def test_nplus_full_closed_compact():
    props = set_properties(NP, full_set(NP.universe))
    assert props.closed_compact
    assert brute_force_compact(NP, full_set(NP.universe))


def test_empty_set_closed_and_compact():
    for space in (NN, NP, SP, MIX):
        props = set_properties(space, ev_set(space.universe))
        assert props.closed and props.compact


def test_compactness_decider_matches_cover_oracle_on_small_spaces():
    # Validation obligation: brute-force cover checking on every space with
    # at most 3 points and 2 tails, truncation 8.
    rng = random.Random(99)
    spaces = []
    for _ in range(60):
        space = gen_space(rng)
        if len(space.points) <= 3 and len(space.tails) <= 2:
            spaces.append(space)
    spaces += [NN, NP, SP, MIX]
    assert len(spaces) > 10
    for space in spaces:
        for _ in range(40):
            s = sample_evset(rng, space)
            assert set_properties(space, s).compact == brute_force_compact(space, s)


# -- reports -------------------------------------------------------------------


def test_sierpinski_not_sequentially_hausdorff():
    assert not space_report(SP).seq_hausdorff


def test_nplus_report():
    rep = space_report(NP)
    assert rep.seq_compact and rep.countably_compact and rep.compact
    assert rep.s2 and rep.hausdorff and rep.sequential
    # Oracle: every generated sequence admits a convergent subsequence.
    from extseq.sequences import classify
    from extseq.generate import gen_seq

    rng = random.Random(11)
    for _ in range(50):
        assert not classify(NP, gen_seq(rng, NP)).no_conv_subseq


def test_nn_not_sequentially_compact():
    from extseq.sequences import classify, walk_seq

    rep = space_report(NN)
    assert not rep.seq_compact
    assert classify(NN, walk_seq(NN.universe, NAT_TAIL)).no_conv_subseq


def test_report_invariants_on_generated_spaces():
    rng = random.Random(3)
    for _ in range(120):
        space = gen_space(rng)
        rep = space_report(space)
        assert rep.s2 == (rep.sequential and rep.seq_hausdorff)
        if rep.seq_hausdorff:
            assert rep.t1
        if rep.hausdorff:
            assert rep.seq_hausdorff
        if rep.t0:
            assert rep.countably_compact == rep.seq_compact


def test_sequentially_open_equals_open_on_samples():
    rng = random.Random(7)
    for _ in range(60):
        space = gen_space(rng)
        for _ in range(20):
            s = sample_evset(rng, space)
            assert is_open(space, s) == is_sequentially_open(space, s)


def test_closed_sets_capture_attach_points():
    rng = random.Random(13)
    for _ in range(80):
        space = gen_space(rng)
        for _ in range(20):
            s = sample_evset(rng, space)
            props = set_properties(space, s)
            if props.closed:
                for t in space.tails:
                    if s.is_cofinite_on(t) and attach_map(space)[t]:
                        # A closed set swallowing a tail holds its attach points.
                        assert attach_map(space)[t] <= set(s.finite)
            if props.closed_compact:
                assert props.seq_closed
                for t in space.tails:
                    if not attach_map(space)[t]:
                        assert not s.is_cofinite_on(t)


# -- coproduct -----------------------------------------------------------------


def test_coproduct_with_empty_is_identity():
    from extseq.instances import empty_space

    assert coproduct(empty_space(), NN) == NN
    assert coproduct(NN, empty_space()) == NN


def test_coproduct_componentwise():
    both = coproduct(NN, NP)
    assert len(both.tails) == 2
    assert sorted(len(a) for _, a in both.attach) == [0, 1]


def test_coproduct_opens_agree_componentwise():
    rng = random.Random(21)
    both = coproduct(MIX, NP)
    # Tail/point ids of MIX survive; NP ids may be renamed, so rebuild the
    # correspondence from the attach structure.
    for _ in range(100):
        s = sample_evset(rng, both)
        left = ev_set(
            MIX.universe,
            [x for x in MIX.points if x in s.finite],
            {t: s.eventual_on(t) for t in MIX.tails},
            {t: s.flips_on(t) for t in MIX.tails},
        )
        right_tail = [t for t in both.tails if t not in MIX.tails][0]
        right_point = [x for x in both.points if x not in MIX.points][0]
        right = ev_set(
            NP.universe,
            ["inf"] if right_point in s.finite else [],
            {NAT_TAIL: s.eventual_on(right_tail)},
            {NAT_TAIL: s.flips_on(right_tail)},
        )
        assert is_open(both, s) == (is_open(MIX, left) and is_open(NP, right))


# -- subspace ------------------------------------------------------------------


def test_finite_spaces_reduce_to_classical_algorithms():
    # Degenerate inputs: zero tails mean a finite space, where every subset
    # is compact and open means down-closed under specialization.
    rng = random.Random(31)
    for _ in range(40):
        space = gen_space(rng, "finite")
        mo = min_open_map(space)
        for _ in range(15):
            s = sample_evset(rng, space)
            props = set_properties(space, s)
            assert props.compact
            down_closed = all(set(mo[x]) <= set(s.finite) for x in s.finite)
            assert props.open == down_closed
            assert props.open == props.seq_open
        rep = space_report(space)
        assert rep.compact and rep.seq_compact and rep.countably_compact


def test_subspace_of_closed_tail_chunk():
    u = NP.universe
    c = ev_set(u, ["inf"], eventual={NAT_TAIL: True}, flips={NAT_TAIL: [0]})
    sub = subspace(NP, c)
    assert space_report(sub).countably_compact
    finite_chunk = ev_set(u, flips={NAT_TAIL: [0, 1, 2]})
    sub2 = subspace(NP, finite_chunk)
    assert len(sub2.points) == 3 and not sub2.tails


def test_subspace_renames_a_tail_trace_only_on_collision():
    # A point already named like the trace member (t, 1) keeps its name, and
    # the trace member gets a fresh one instead of merging with it.
    space = validate_space(["t#1"], {"t#1": ["t#1"]}, ["t"])
    both = ev_set(space.universe, ["t#1"], eventual={"t": False}, flips={"t": [1]})
    assert subspace(space, both).points == ("t#1", "t#1'")
    trace = ev_set(space.universe, (), eventual={"t": False}, flips={"t": [1, 2]})
    assert subspace(space, trace).points == ("t#1", "t#2")


# -- the compiled view against the definitions --------------------------------


def neighborhood_from_presentation(space, x, k):
    """N(U_x, k) read off the presentation tuples, without the compiled view."""
    u = dict(space.min_open)[x]
    hit = [t for t, a in space.attach if set(a) & set(u)]
    return ev_set(space.universe, u, {t: True for t in hit}, {t: range(k) for t in hit})


def pointwise_subset(a, b) -> bool:
    """Inclusion checked on the finite parts, the eventual flags and every
    tail index up to the last flip of either set."""
    if not set(a.finite) <= set(b.finite):
        return False
    for (t, ev_a, fl_a), (_, ev_b, fl_b) in zip(a.rows, b.rows):
        if ev_a and not ev_b:
            return False
        for m in range(1 + max(fl_a + fl_b, default=-1)):
            if a.member(TailPoint(t, m)) and not b.member(TailPoint(t, m)):
                return False
    return True


def open_by_definition(space, s) -> bool:
    """Every finite member has a basic neighborhood inside s.  Neighborhoods
    shrink as k grows, so k past the last flip of s decides."""
    k = 1 + max((m for _, _, fl in s.rows for m in fl), default=-1)
    for x in s.finite:
        nbhd = open_basic_neighborhood(space, x, k)
        assert nbhd == neighborhood_from_presentation(space, x, k)
        if not pointwise_subset(nbhd, s):
            return False
    return True


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(["tailed", "all", "s2-only"]))
def test_mask_deciders_match_definitions(seed, profile):
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    small = len(space.points) <= 3 and len(space.tails) <= 2
    sets = list(shapes(space.universe)) + [sample_evset(rng, space) for _ in range(20)]
    for s in sets:
        comp = ev_complement(s)
        opened = open_by_definition(space, s)
        assert is_open(space, s) == opened
        assert is_sequentially_open(space, s) == opened
        compact = set_properties(space, s).compact
        if small:
            assert compact == brute_force_compact(space, s)
        assert set_properties(space, s) == SetProps(
            open=opened,
            closed=is_open(space, comp),
            seq_open=is_sequentially_open(space, s),
            seq_closed=is_sequentially_open(space, comp),
            compact=compact,
            closed_compact=is_open(space, comp) and compact,
        )


def fingerprint(space):
    return (
        hash(space),
        repr(space),
        [f.name for f in dataclasses.fields(space)],
        canonical_dumps(entity_to_json(space)),
    )


def small_space():
    return validate_space(["a", "b"], {"a": ["a", "b"], "b": ["b"]}, ["t", "u"], {"t": ["b"]})


def test_compiled_view_is_invisible():
    space, twin = small_space(), small_space()
    before = fingerprint(space)
    assert space.universe is space.universe
    assert space.compiled is space.compiled
    assert fingerprint(space) == before == fingerprint(twin)
    assert space == twin and twin == space
    for back in (pickle.loads(pickle.dumps(space)), copy.copy(space), copy.deepcopy(space)):
        assert back == space and fingerprint(back) == before
        assert set_properties(back, full_set(back.universe)) == set_properties(
            space, full_set(space.universe)
        )


def test_name_caches_are_bounded():
    helpers = (min_open_map, attach_map, captures)
    assert all(h.cache_info().maxsize is not None for h in helpers)
    rng = random.Random(41)
    for _ in range(max(h.cache_info().maxsize for h in helpers) + 50):
        space = gen_space(rng, "tailed")
        s = sample_evset(rng, space)
        set_properties(space, s)
        min_open_map(space)
        attach_map(space)
        for t in space.tails:
            captures(space, t)
    for h in helpers:
        info = h.cache_info()
        assert info.currsize <= info.maxsize
