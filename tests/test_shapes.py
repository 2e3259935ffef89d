"""Set shapes: every set predicate ignores flip sets, so enumerating the
flip-free shapes of a space (the mask pairs of `CompiledSpace.shapes`)
checks a statement about all of its sets; the exhaustive checks built on
that still fail when a decider is broken."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from extseq import compactify, suites
from extseq.compactify import is_omega_sequential, is_s_compact
from extseq.core import EvSet, ev_set
from extseq.exteriority import ExtSpace, Externology, _seq_e_open, is_e_open, sequentially_e_open
from extseq.generate import gen_ext, gen_space, sample_evset
from extseq.instances import nat_cofinite, nat_space
from extseq.spaces import CompiledSpace, is_open, is_sequentially_open, set_properties
from extseq.suites import PREDICATES


def without_flips(s: EvSet) -> EvSet:
    return EvSet(s.universe, s.finite, tuple((t, ev, ()) for t, ev, _ in s.rows))


def flip_free_sets(uni):
    """Every flip-free set, built by name through ev_set: each finite part
    with each choice of cofinite tails."""
    for keep in itertools.product((False, True), repeat=len(uni.points)):
        fin = list(itertools.compress(uni.points, keep))
        for ev in itertools.product((False, True), repeat=len(uni.tails)):
            yield ev_set(uni, fin, dict(zip(uni.tails, ev)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(["tailed", "all", "s2-only"]))
def test_verdicts_ignore_flips_and_shapes_cover_every_set(seed, profile):
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    ext = gen_ext(rng, space)
    uni = space.universe
    every = set(flip_free_sets(uni))
    assert len(every) == 2 ** (len(uni.points) + len(uni.tails))
    for _ in range(20):
        s = sample_evset(rng, space)
        shape = without_flips(s)
        assert shape in every
        assert is_open(space, s) == is_open(space, shape)
        assert is_sequentially_open(space, s) == is_sequentially_open(space, shape)
        assert set_properties(space, s) == set_properties(space, shape)
        assert is_s_compact(space, s) == is_s_compact(space, shape)
        assert is_e_open(ext, s) == is_e_open(ext, shape)
        assert sequentially_e_open(ext, s) == sequentially_e_open(ext, shape)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(["finite", "tailed", "all"]))
def test_compiled_shapes_are_the_flip_free_sets_read_once(seed, profile):
    space = gen_space(random.Random(seed), profile)
    v = space.compiled
    pairs = list(v.shapes())
    assert len(pairs) == len(set(pairs)) == 2 ** (len(space.points) + len(space.tails))
    assert {v.read(s) for s in flip_free_sets(space.universe)} == set(pairs)


# -- the exhaustive checks can fail ------------------------------------------


def test_omega_sequential_fails_without_the_escape_clause(monkeypatch):
    space = nat_space()
    assert is_omega_sequential(space)
    # s-compact reduced to "sequentially closed": the full naturals pass it
    # but are not compact.
    monkeypatch.setattr(
        compactify,
        "_s_compact",
        lambda v, fin, ev: v.seq_open(fin ^ v.all_points, ev ^ v.all_tails),
    )
    assert not is_omega_sequential(space)


def test_plus_space_sequential_fails_when_tails_are_ignored(monkeypatch):
    plus_space_sequential = PREDICATES["plus-space-sequential"][0]
    space = nat_space()
    assert plus_space_sequential(space)
    # Every tail treated as cofinite: only the constant-sequence clause is
    # left, so {inf} of the convergent sequence passes though it is not
    # open.  The naturals themselves have no point for the mutant to miss.
    seq_open = CompiledSpace.seq_open
    monkeypatch.setattr(
        CompiledSpace, "seq_open", lambda v, fin, ev: seq_open(v, fin, v.all_tails)
    )
    assert is_omega_sequential(space)
    assert not plus_space_sequential(space)


def test_coreflection_identity_fails_when_d_is_ignored(monkeypatch):
    coreflection_identity = PREDICATES["coreflection-identity"][0]
    ext = nat_cofinite()
    raw = ExtSpace(ext.space, Externology((), ()))
    assert coreflection_identity(ext, raw)
    # Without D the empty set counts as sequentially e-open, but it is not
    # cofinite on the naturals.
    monkeypatch.setattr(
        suites,
        "_seq_e_open",
        lambda v, lim, dt, fin, ev: _seq_e_open(v, lim, 0, fin, ev),
    )
    assert not coreflection_identity(ext, raw)
