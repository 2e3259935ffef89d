"""Deterministic seeded generation of spaces, externologies, sequences and maps.

Instance streams are reproducible functions of (seed, profile, index): each
instance derives its own sub-seed, so reports do not depend on evaluation
order.  Size bounds: at most 6 finite points, 4 tails, affine parameters
at most 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import EvSet, FinitePoint, PointRef, TailPoint, ev_set
from .exteriority import ExtSpace, make_ext_space
from .maps import SpaceMap, TailToConst, TailToTail, make_map
from .sequences import ConstThread, Seq, Thread, WalkThread, make_seq
from .spaces import Space, space_report, validate_space

PROFILES = ("finite", "tailed", "s2-only", "all")

MAX_POINTS = 6
MAX_TAILS = 4
MAX_AFFINE = 8


@dataclass(frozen=True, slots=True)
class Instance:
    """One generated test case: an exterior space, a partner to map into,
    sequences over the space, and maps toward the partner."""

    ext: ExtSpace
    partner: ExtSpace
    seqs: tuple[Seq, ...]
    maps: tuple[SpaceMap, ...]


def gen_space(rng: random.Random, profile: str = "all") -> Space:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    n_points = rng.randrange(0, MAX_POINTS + 1)
    if profile == "finite":
        n_tails = 0
        n_points = max(1, n_points)
    elif profile == "tailed":
        n_tails = rng.randrange(1, MAX_TAILS + 1)
    else:
        n_tails = rng.randrange(0, MAX_TAILS + 1)
    if n_points == 0 and n_tails == 0:
        n_points = 1
    pts = [f"p{i}" for i in range(n_points)]
    tails = [f"t{i}" for i in range(n_tails)]
    discrete = profile == "s2-only" or rng.random() < 0.3
    below = {x: {x} for x in pts}
    if not discrete:
        for x in pts:
            for y in pts:
                if x != y and rng.random() < 0.25:
                    below[x].add(y)
        changed = True
        while changed:
            changed = False
            for x in pts:
                for y in list(below[x]):
                    if not below[y] <= below[x]:
                        below[x] |= below[y]
                        changed = True
    attach = {}
    for t in tails:
        if not pts:
            size = 0
        elif profile == "s2-only":
            size = rng.randrange(0, 2)
        else:
            size = rng.randrange(0, min(3, len(pts)) + 1)
        attach[t] = rng.sample(pts, size) if size else []
    space = validate_space(pts, {x: sorted(below[x]) for x in pts}, tails, attach)
    if profile == "s2-only":
        assert space_report(space).s2
    return space


def gen_ext(rng: random.Random, space: Space) -> ExtSpace:
    limits = [x for x in space.points if rng.random() < 0.25]
    tails = [t for t in space.tails if rng.random() < 0.5]
    return make_ext_space(space, limits, tails)


def sample_point(rng: random.Random, space: Space, tail_index_bound: int = MAX_AFFINE) -> PointRef:
    choices: list[PointRef] = [FinitePoint(x) for x in space.points]
    choices += [TailPoint(t, rng.randrange(0, tail_index_bound + 1)) for t in space.tails]
    return rng.choice(choices)


def gen_seq(rng: random.Random, space: Space) -> Seq:
    uni = space.universe
    prefix = [sample_point(rng, space) for _ in range(rng.randrange(0, 4))]
    threads: list[Thread] = []
    for _ in range(rng.randrange(1, 4)):
        if space.tails and rng.random() < 0.6:
            threads.append(
                WalkThread(
                    rng.choice(space.tails),
                    rng.randrange(1, 5),
                    rng.randrange(0, MAX_AFFINE + 1),
                )
            )
        else:
            threads.append(ConstThread(sample_point(rng, space)))
    return make_seq(uni, prefix, threads)


def gen_convergent_seq(rng: random.Random, space: Space) -> tuple[Seq, PointRef] | None:
    """A sequence together with one of its limits, or None if the space has
    no convergence to offer.  Options are listed in point and tail order,
    so the draws do not depend on string hashing."""
    v = space.compiled
    finite_targets = list(space.points)
    rng.shuffle(finite_targets)
    for x in finite_targets:
        b = v.point_bit[x]
        const_opts: list[Thread] = [ConstThread(FinitePoint(y)) for y in v.names(v.up[b])]
        walk_opts: list[Thread] = [
            WalkThread(t, rng.randrange(1, 4), rng.randrange(0, MAX_AFFINE + 1))
            for t in v.tail_names(v.cofinite_tails[b])
        ]
        opts = const_opts + walk_opts
        if not opts:
            continue
        threads = [rng.choice(opts) for _ in range(rng.randrange(1, 4))]
        prefix = [sample_point(rng, space) for _ in range(rng.randrange(0, 3))]
        return make_seq(space.universe, prefix, threads), FinitePoint(x)
    if space.tails:
        p = TailPoint(rng.choice(space.tails), rng.randrange(0, MAX_AFFINE + 1))
        prefix = [sample_point(rng, space) for _ in range(rng.randrange(0, 3))]
        return make_seq(space.universe, prefix, (ConstThread(p),)), p
    return None


def gen_proper_seq(rng: random.Random, space: Space) -> Seq | None:
    v = space.compiled
    free = v.tail_names(v.unattached)
    if not free:
        return None
    threads = [
        WalkThread(rng.choice(free), rng.randrange(1, 4), rng.randrange(0, MAX_AFFINE + 1))
        for _ in range(rng.randrange(1, 4))
    ]
    prefix = [sample_point(rng, space) for _ in range(rng.randrange(0, 3))]
    return make_seq(space.universe, prefix, threads)


def gen_map(rng: random.Random, dom: Space, cod: Space) -> SpaceMap:
    structure_bias = rng.random() < 0.5
    dv, cv = dom.compiled, cod.compiled
    free_cod = cv.tail_names(cv.unattached)
    on_points = {x: sample_point(rng, cod) for x in dom.points}
    on_tails = {}
    for t, tb in dv.tail_bit.items():
        free_dom = dv.unattached & tb
        if structure_bias and free_dom and free_cod:
            on_tails[t] = TailToTail(
                rng.choice(free_cod), rng.randrange(1, 4), rng.randrange(0, MAX_AFFINE + 1)
            )
            continue
        if cod.tails and rng.random() < 0.6:
            exc = tuple(
                (m, sample_point(rng, cod))
                for m in rng.sample(range(7), rng.randrange(0, 3))
            )
            on_tails[t] = TailToTail(
                rng.choice(cod.tails),
                rng.randrange(1, 4),
                rng.randrange(0, MAX_AFFINE + 1),
                exc,
            )
        else:
            exc = tuple(
                (m, sample_point(rng, cod))
                for m in rng.sample(range(7), rng.randrange(0, 3))
            )
            on_tails[t] = TailToConst(sample_point(rng, cod), exc)
    return make_map(dom, cod, on_points, on_tails)


def sample_evset(rng: random.Random, space: Space) -> EvSet:
    fin = [x for x in space.points if rng.random() < 0.5]
    eventual = {t: rng.random() < 0.5 for t in space.tails}
    flips = {t: rng.sample(range(12), rng.randrange(0, 4)) for t in space.tails}
    return ev_set(space.universe, fin, eventual, flips)


def sample_open_set(rng: random.Random, space: Space) -> EvSet:
    v = space.compiled
    fin = required = 0
    for b in v.point_bit.values():
        if rng.random() < 0.4:
            fin |= v.up[b]
            required |= v.cofinite_tails[b]
    eventual = {t: bool(required & tb) or rng.random() < 0.4 for t, tb in v.tail_bit.items()}
    flips = {t: rng.sample(range(12), rng.randrange(0, 4)) for t in space.tails}
    return ev_set(space.universe, v.names(fin), eventual, flips)


def sub_rng(seed: int, profile: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{profile}:{index}:")


def generate_instances(
    seed: int,
    count: int,
    profile: str = "all",
    seqs_per: int = 8,
    maps_per: int = 4,
) -> list[Instance]:
    """Deterministic stream of instances; identical arguments give identical
    streams regardless of how earlier instances were consumed."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    out = []
    for i in range(count):
        rng = sub_rng(seed, profile, i)
        space = gen_space(rng, profile)
        partner = gen_space(rng, profile)
        ext = gen_ext(rng, space)
        partner_ext = gen_ext(rng, partner)
        seqs = tuple(gen_seq(rng, space) for _ in range(seqs_per))
        maps = tuple(gen_map(rng, space, partner) for _ in range(maps_per))
        out.append(Instance(ext, partner_ext, seqs, maps))
    return out
