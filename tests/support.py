"""Constructions, oracles and named instances that only the tests use.

The package ships what its suites, CLI and benchmark run; what a test
needs beyond that lives here: the list of the package's value types, set
constructors and relations for oracle sets, small named spaces, a
disjoint union of spaces, the identity map, a by-definition "eventually
in" test, exact ideal membership, a proper
sequence draw whose stream `stream_digest.py` pins, and a deliberately
wrong decider with a suite that runs it, for the failure path.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import random
from pathlib import Path
from typing import Iterable

import extseq
from extseq import suites
from extseq.core import EvSet, FinitePoint, PointRef, Universe, ev_intersect, ev_set
from extseq.errors import UniverseMismatch
from extseq.exteriority import ExtSpace, Externology, coreflect, make_ext_space
from extseq.generate import MAX_AFFINE, sample_point
from extseq.instances import point_space
from extseq.maps import SpaceMap, TailToTail, make_map
from extseq.sequences import Affine, ConstThread, Seq, WalkThread
from extseq.sheaves import Ideal
from extseq.spaces import Space, _derived_space, _fresh, space_report, validate_space

# -- value types -------------------------------------------------------------


def value_types() -> list[type]:
    """Every frozen dataclass of the package, module by module."""
    out = []
    for path in sorted(Path(extseq.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"extseq.{path.stem}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
                    out.append(cls)
    return out


# -- sets --------------------------------------------------------------------


def full_set(universe: Universe) -> EvSet:
    return ev_set(universe, universe.points, eventual=True)


def from_points(universe: Universe, points: Iterable[PointRef]) -> EvSet:
    """The finite set holding exactly the given points."""
    fin: set[str] = set()
    flips: dict[str, set[int]] = {}
    for p in points:
        universe.check_ref(p)
        if isinstance(p, FinitePoint):
            fin.add(p.id)
        else:
            flips.setdefault(p.tail, set()).add(p.index)
    return ev_set(universe, fin, eventual=False, flips=flips)


def is_subset(a: EvSet, b: EvSet) -> bool:
    return ev_intersect(a, b) == a


def is_finite(a: EvSet) -> bool:
    """True iff the set has finitely many members (no cofinite tail trace)."""
    return all(not ev for _, ev, _ in a.rows)


# -- named instances ---------------------------------------------------------


def empty_space() -> Space:
    return validate_space((), {})


def sierpinski_space() -> Space:
    """Two points; {1} open, {0} closed."""
    return validate_space(("0", "1"), {"0": ("0", "1"), "1": ("1",)})


def mixed_space() -> Space:
    """One finite point, one tail converging to it, one escaping tail."""
    return validate_space(("v",), {"v": ("v",)}, ("t1", "t2"), {"t1": ("v",), "t2": ()})


def indiscrete_point() -> ExtSpace:
    """One point whose only filter member is the whole space."""
    space = point_space()
    return make_ext_space(space, limits=space.points)


# -- constructions -----------------------------------------------------------


def raw_pair(rng: random.Random, space: Space) -> ExtSpace:
    """A pair drawn without saturating L or closing D."""
    limits = tuple(x for x in space.points if rng.random() < 0.3)
    tails = tuple(t for t in space.tails if rng.random() < 0.3)
    return ExtSpace(space, Externology(limits, tails))


def exterior_by_names(e: ExtSpace, s: Seq) -> bool:
    """Exteriority of a sequence by definition, on names: every thread is
    constant at a point of `coreflect(e).ext.limits` or walks one of its
    tails."""
    ext = coreflect(e).ext
    return all(
        th.tail in ext.tails
        if isinstance(th, WalkThread)
        else isinstance(th.point, FinitePoint) and th.point.id in ext.limits
        for th in s.threads
    )


def coproduct(a: Space, b: Space) -> Space:
    """Disjoint union; colliding ids on the right are renamed."""
    used = set(a.points) | set(a.tails)
    ren = {name: _fresh(name, used) for name in b.points + b.tails}
    mo = dict(a.min_open)
    mo.update({ren[x]: tuple(ren[y] for y in u) for x, u in b.min_open})
    at = dict(a.attach)
    at.update({ren[t]: tuple(ren[z] for z in row) for t, row in b.attach})
    return _derived_space(mo, at)


def identity_map(space: Space) -> SpaceMap:
    return make_map(
        space,
        space,
        {x: FinitePoint(x) for x in space.points},
        {t: TailToTail(t, 1, 0) for t in space.tails},
    )


# -- oracles -----------------------------------------------------------------


def eventually_in(s: Seq, target: EvSet) -> bool:
    """True iff s(n) is in target for all but finitely many n (exact)."""
    if s.universe != target.universe:
        raise UniverseMismatch("sequence and set over different universes")
    for th in s.threads:
        if isinstance(th, ConstThread):
            if not target.member(th.point):
                return False
        else:
            if not target.is_cofinite_on(th.tail):
                return False
            # A walk leaves the cofinite trace only at flipped indices, of
            # which it hits finitely many.
    return True


def affine_divide(g: Affine, gen: Affine) -> Affine | None:
    """Solve gen ∘ w = g over affine injections."""
    if g.a % gen.a or g.b < gen.b or (g.b - gen.b) % gen.a:
        return None
    return Affine(g.a // gen.a, (g.b - gen.b) // gen.a)


def ideal_member(ideal: Ideal, g: Affine) -> Affine | None:
    """A right factor w with gen ∘ w = g for the first generator that
    divides g, or None.  A generator is injective, so w is forced, and it
    is a monoid element iff it is affine: the test is exact."""
    for gen in ideal.generators:
        w = affine_divide(g, gen)
        if w is not None:
            return w
    return None


# -- draws -------------------------------------------------------------------


def gen_proper_seq(rng: random.Random, space: Space) -> Seq | None:
    """Walks out unattached tails after a short prefix, or None on a space
    with no unattached tail.  Its draws are pinned by `stream_digest.py`."""
    v = space.compiled
    free = v.tail_names(v.unattached)
    if not free:
        return None
    threads = [
        WalkThread(rng.choice(free), 1 + rng.randrange(3), rng.randrange(MAX_AFFINE + 1))
        for _ in range(1 + rng.randrange(3))
    ]
    prefix = [sample_point(rng, space) for _ in range(rng.randrange(3))]
    return Seq(space.universe, tuple(prefix), tuple(threads))


# -- a failing suite ---------------------------------------------------------

MUTANT = "mutant-compactness"
MUTANT_SUITE = "fixture-mutant"


def mutant_compactness(space: Space) -> bool:
    """Deliberately wrong decider: every space is claimed compact."""
    return space_report(space).compact


def suite_fixture_mutant(seed, samples, budget):
    """Runs the wrong decider on 20 generated spaces, so some cases fail
    and carry witnesses."""
    insts = suites._instances(seed, 20, "all", maps_per=0)
    for i, inst in enumerate(insts):
        yield suites._check(MUTANT, inst.ext.space, instance=i)


def register_mutant(mp) -> str:
    """Registers the wrong decider in PREDICATES and its suite in SUITES
    until the pytest MonkeyPatch `mp` is undone; returns the suite's name."""
    mp.setitem(suites.PREDICATES, MUTANT, (mutant_compactness, ("space",)))
    mp.setitem(suites.SUITES, MUTANT_SUITE, (suite_fixture_mutant, None))
    return MUTANT_SUITE
