"""Deterministic seeded generation of spaces, externologies, sequences and maps.

Instance streams are reproducible functions of (seed, profile, index): each
instance derives its own sub-seed, so reports do not depend on evaluation
order.  Size bounds: at most 6 finite points, 4 tails, affine parameters
at most 8.

A stream is defined by the `random.Random` calls it makes, in order, not
by the stdlib functions that make them.  `randrange(n)`,
`randrange(a, a + n)`, `choice(range(n))` and `choice` on any sequence of
length n each make the one call `_randbelow(n)`, which on a plain
`random.Random` is `_randbelow_with_getrandbits` (CPython 3.10-3.13):
`getrandbits(n.bit_length())`, drawn again while the result is >= n.
A draw here is a `random.Random` method call, except in the three hot
kernels whose saving was measured: `_point_code` and `_draw_seq` write
that loop out on one bound `rng.getrandbits`, and `_flips` writes out the
pool branch of `rng.sample(range(12), k)`.  Each written-out draw whose
range can be empty refuses it, as `randrange` does.  An attach set is
`rng.sample` of at most 6 points, and a map's exception indices are
`rng.sample(range(7), k)`: on pools that small the pool branch draws by
`_randbelow` alone.

A stream is drawn in two steps.  The base draw (`_draw_base`) gives each
instance its spaces and externologies and leaves its rng where the
sequences and maps start; `_extend` draws those on that rng.
`generate_instances` is the two in a row.  The suites draw each base
once per run, keep only the words each instance's draw took
(`_words_drawn`), and extend it on rngs rebuilt past them (`_rng_after`,
`suites._instances`).

Each set kind has one draw, `_draw_evset` or `_draw_open_set`: the
(finite, eventual) masks of its membership flags, then each tail's flips
as a mask (`_flips`).  `sample_evset` and `sample_open_set` build the
`EvSet` of their draw (`_sampled_set`), and the set suites decide a draw
on its masks and build its set only for a failing case's witness.

A point has one draw, `_point_code`, which gives it as a code, and one
build, `_code_point`; `sample_point` builds each point as soon as it is
drawn, and `gen_map` draws every point through it.  A sequence has one
draw too, `_draw_seq`: small ints, a code for each point and each
thread's tail bit.  `gen_seq` builds the `Seq` of its draw
(`_drawn_seq`), and the sequence suites decide a draw on its thread bits
and build its `Seq` only for a failing case's witness.  Every `Seq` here
is built directly, and `gen_map` builds its map through
`maps._derived_map`, since every ref comes from the space.
`tests/stream_digest.py` pins the streams draw for draw.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from .core import EvSet, FinitePoint, PointRef, TailPoint, value
from .exteriority import ExtSpace, make_ext_space
from .maps import SpaceMap, TailToConst, TailToTail, _derived_map
from .sequences import ConstThread, Seq, Thread, WalkThread
from .spaces import CompiledSpace, Space, validate_space

PROFILES = ("finite", "tailed", "s2-only", "all")

MAX_POINTS = 6
MAX_TAILS = 4
MAX_AFFINE = 8
# The getrandbits width of `rng.randrange(MAX_AFFINE + 1)`, written out.
_AFFINE_BITS = (MAX_AFFINE + 1).bit_length()


@value
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
    n_points = rng.randrange(MAX_POINTS + 1)
    if profile == "finite":
        n_tails = 0
        n_points = max(1, n_points)
    elif profile == "tailed":
        n_tails = 1 + rng.randrange(MAX_TAILS)
    else:
        n_tails = rng.randrange(MAX_TAILS + 1)
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
            size = rng.randrange(2)
        else:
            size = rng.randrange(min(3, len(pts)) + 1)
        attach[t] = rng.sample(pts, size)
    return validate_space(pts, {x: sorted(below[x]) for x in pts}, tails, attach)


def gen_ext(rng: random.Random, space: Space) -> ExtSpace:
    limits = [x for x in space.points if rng.random() < 0.25]
    tails = [t for t in space.tails if rng.random() < 0.5]
    return make_ext_space(space, limits, tails)


def sample_point(rng: random.Random, space: Space, tail_index_bound: int = MAX_AFFINE) -> PointRef:
    """A point or tail point of the space, each finite point and each tail
    equally likely.  An index in [0, tail_index_bound] is drawn for every
    tail, in tail order, before the choice is drawn: the point of one code
    (`_point_code`, `_code_point`)."""
    return _code_point(space, _point_code(rng.getrandbits, space, tail_index_bound + 1))


def gen_seq(rng: random.Random, space: Space) -> Seq:
    """A prefix of up to 3 points, then 1 to 3 threads: each a walk along a
    tail with probability 0.6 where there are tails, else a constant.  It
    is the `Seq` (`_drawn_seq`) of one draw (`_draw_seq`)."""
    return _drawn_seq(space, _draw_seq(rng, space))


def _draw_seq(rng: random.Random, space: Space) -> tuple[list[int], list, tuple[int, ...]]:
    """The draw of `gen_seq` as small ints: the prefix's point codes
    (`_point_code`), the threads (a constant's point code, or a walk's
    (tail index, slope, offset)), and each thread's bit, which the
    sequence rules read (`sequences._tail_bits`): its tail's bit for a
    walk, 0 for a constant.  Points are drawn by `_point_code`, the rest
    by `rng.randrange` written out, all on the bound `getrandbits`; a
    walk draws its tail, its slope in 1..4 and its offset in 0..MAX_AFFINE."""
    bits, random = rng.getrandbits, rng.random
    tails = space.tails
    nt = len(tails)
    kt = nt.bit_length()
    c = bits(3)
    while c >= 4:
        c = bits(3)
    prefix = [_point_code(bits, space) for _ in range(c)]
    c = bits(2)
    while c >= 3:
        c = bits(2)
    threads, heads = [], []
    for _ in range(1 + c):
        if tails and random() < 0.6:
            j = bits(kt)
            while j >= nt:
                j = bits(kt)
            a = bits(3)
            while a >= 4:
                a = bits(3)
            b = bits(_AFFINE_BITS)
            while b > MAX_AFFINE:
                b = bits(_AFFINE_BITS)
            threads.append((j, 1 + a, b))
            heads.append(1 << j)
        else:
            threads.append(_point_code(bits, space))
            heads.append(0)
    return prefix, threads, tuple(heads)


def _drawn_seq(space: Space, draw: tuple[list[int], list, tuple[int, ...]]) -> Seq:
    """The `Seq` of a draw (`_draw_seq`), built directly: every ref comes
    from the space itself."""
    prefix, threads, _ = draw
    tails = space.tails
    return Seq(
        space.universe,
        tuple(_code_point(space, p) for p in prefix),
        tuple(
            WalkThread(tails[th[0]], th[1], th[2])
            if type(th) is tuple
            else ConstThread(_code_point(space, th))
            for th in threads
        ),
    )


def _point_code(bits, space: Space, n: int = MAX_AFFINE + 1) -> int:
    """The one point draw, on the bound `getrandbits` of its rng: an index
    below n for every tail, then the choice.  It gives a code: i for the
    i-th finite point, and i + m*r for the tail point of index r on the
    tail of choice i, of the m = |points| + |tails| choices.  Each draw is
    `rng.randrange` written out and, like it, refuses an empty range: no
    index below n < 1, no point of the empty space.  `_code_point` builds
    the point."""
    points, tails = space.points, space.tails
    if tails:
        if n < 1:
            raise ValueError(f"no tail index in [0, {n - 1}]")
        k = n.bit_length()
        indices = []
        for _ in tails:
            r = bits(k)
            while r >= n:
                r = bits(k)
            indices.append(r)
    elif not points:
        raise ValueError("no point to draw in the empty space")
    f = len(points)
    m = f + len(tails)
    k = m.bit_length()
    i = bits(k)
    while i >= m:
        i = bits(k)
    return i if i < f else i + m * indices[i - f]


def _code_point(space: Space, code: int) -> PointRef:
    """The point of a code (`_point_code`)."""
    points = space.points
    n = len(points)
    r, i = divmod(code, n + len(space.tails))
    return FinitePoint(points[i]) if i < n else TailPoint(space.tails[i - n], r)


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
            WalkThread(t, 1 + rng.randrange(3), rng.randrange(MAX_AFFINE + 1))
            for t in v.tail_names(v.cofinite_tails[b])
        ]
        opts = const_opts + walk_opts
        if not opts:
            continue
        threads = [rng.choice(opts) for _ in range(1 + rng.randrange(3))]
        prefix = [sample_point(rng, space) for _ in range(rng.randrange(3))]
        return Seq(space.universe, tuple(prefix), tuple(threads)), FinitePoint(x)
    if space.tails:
        p = TailPoint(rng.choice(space.tails), rng.randrange(MAX_AFFINE + 1))
        prefix = [sample_point(rng, space) for _ in range(rng.randrange(3))]
        return Seq(space.universe, tuple(prefix), (ConstThread(p),)), p
    return None


def gen_map(rng: random.Random, dom: Space, cod: Space) -> SpaceMap:
    """A map with each point sent to a sampled point of cod (`sample_point`).
    With probability 1/2 the map favours structure: each unattached tail
    goes along an unattached tail of cod where there is one.  Any other
    tail goes, with probability 0.6 where cod has tails, along a tail of
    cod, else to a constant, with up to 2 exceptions among its first 7
    indices.  A tail goes along its target with slope in 1..3 and offset in
    0..MAX_AFFINE.  Every other draw is a `random.Random` call."""
    structure_bias = rng.random() < 0.5
    dv, cv = dom.compiled, cod.compiled
    free_cod = cv.tail_names(cv.unattached)
    on_points = {x: sample_point(rng, cod) for x in dom.points}
    on_tails = {}
    for t, tb in dv.tail_bit.items():
        if structure_bias and dv.unattached & tb and free_cod:
            targets, exc = free_cod, ()
        else:
            targets = cod.tails if cod.tails and rng.random() < 0.6 else None
            ms = rng.sample(range(7), rng.randrange(3))
            exc = tuple((m, sample_point(rng, cod)) for m in ms)
            if targets is None:
                on_tails[t] = TailToConst(sample_point(rng, cod), exc)
                continue
        walk = (rng.choice(targets), 1 + rng.randrange(3), rng.randrange(MAX_AFFINE + 1))
        on_tails[t] = TailToTail(*walk, exc)
    return _derived_map(dom, cod, on_points, on_tails)


def sample_evset(rng: random.Random, space: Space) -> EvSet:
    v = space.compiled
    fin, ev, flips = _draw_evset(rng, v)
    return _sampled_set(v, fin, ev, flips)


def sample_open_set(rng: random.Random, space: Space) -> EvSet:
    v = space.compiled
    fin, ev, flips = _draw_open_set(rng, v)
    return _sampled_set(v, fin, ev, flips)


def _draw_evset(rng: random.Random, v: CompiledSpace) -> tuple[int, int, list[int]]:
    """The draw of `sample_evset`: each point, then each tail's eventual
    flag, with probability 1/2, then the flips (`_flips`)."""
    random = rng.random
    fin = ev = 0
    for b in v.point_bit.values():
        if random() < 0.5:
            fin |= b
    for tb in v.tail_bit.values():
        if random() < 0.5:
            ev |= tb
    return fin, ev, _flips(rng.getrandbits, len(v.tail_bit))


def _draw_open_set(rng: random.Random, v: CompiledSpace) -> tuple[int, int, list[int]]:
    """The draw of `sample_open_set`: each point with probability 0.4, with
    its minimal open; each tail cofinite where a chosen point requires it,
    and otherwise with probability 0.4 (no draw where it is required); then
    the flips (`_flips`)."""
    random = rng.random
    fin = required = 0
    for b in v.point_bit.values():
        if random() < 0.4:
            fin |= v.up[b]
            required |= v.cofinite_tails[b]
    ev = required
    for tb in v.tail_bit.values():
        if not required & tb and random() < 0.4:
            ev |= tb
    return fin, ev, _flips(rng.getrandbits, len(v.tail_bit))


def _sampled_set(v: CompiledSpace, fin: int, ev: int, flips: list[int]) -> EvSet:
    """The set of a draw, built directly in canonical form: each tail's row
    holds its flag from the eventual mask and its flips, read sorted off
    their mask (`_FLIP_SETS`).  The names come from the space itself, so
    `ev_set` would have nothing to reject."""
    rows = []
    for (t, tb), m in zip(v.tail_bit.items(), flips):
        rows.append((t, ev & tb != 0, _FLIP_SETS[m]))
    return EvSet(v.universe, tuple(v.names(fin)), tuple(rows))


# Each flip mask of at most three flips, to its flips in ascending order.
_FLIP_SETS = {
    sum(1 << i for i in c): c for k in range(4) for c in combinations(range(12), k)
}


def _flips(bits, n: int) -> list[int]:
    """The flips of n tails, one mask per tail (bit i for flip i): up to
    three distinct flips below 12, drawn on the bound `getrandbits` of the
    sampler's rng.  The draws of a tail are those of
    `rng.sample(range(12), rng.randrange(4))`, written out: the count
    takes `getrandbits(3)`, and each pool index, below 12, 11 or 10,
    `getrandbits(4)`.  No pool is built: `random.Random.sample`'s pool
    branch moves the last unchosen flip (11, then 10) into each vacancy,
    so a chosen index reads the flip those at most two moves left there."""
    out = []
    for _ in range(n):
        k = bits(3)
        while k >= 4:
            k = bits(3)
        if not k:
            out.append(0)
            continue
        i = bits(4)
        while i >= 12:
            i = bits(4)
        mask = 1 << i
        if k > 1:
            j = bits(4)
            while j >= 11:
                j = bits(4)
            mask |= 1 << (11 if j == i else j)
            if k > 2:
                h = bits(4)
                while h >= 10:
                    h = bits(4)
                if h == j:
                    # The vacancy at j took the flip then at 10.
                    h = 11 if i == 10 else 10
                elif h == i:
                    h = 11
                mask |= 1 << h
        out.append(mask)
    return out


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
    streams regardless of how earlier instances were consumed.  It is the
    base draw (`_draw_base`) extended by its sequences and maps
    (`_extend`)."""
    return _extend(*_draw_base(seed, count, profile), seqs_per, maps_per)


def _draw_base(seed: int, count: int, profile: str) -> tuple[list[Instance], list[random.Random]]:
    """The instances of a stream without sequences or maps, and each
    instance's rng where its sequences and maps are drawn: per instance
    `sub_rng`, then both spaces (`gen_space`) and both externologies
    (`gen_ext`)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    insts, rngs = [], []
    for i in range(count):
        rng = sub_rng(seed, profile, i)
        space = gen_space(rng, profile)
        partner = gen_space(rng, profile)
        ext = gen_ext(rng, space)
        insts.append(Instance(ext, gen_ext(rng, partner), (), ()))
        rngs.append(rng)
    return insts, rngs


def _words_drawn(rng: random.Random) -> int:
    """The number of 32-bit words drawn from a `sub_rng` so far: the
    Mersenne Twister state's index, which counts them while they fit in
    one state (624 words).  A base draw takes about 200 (at most 220 over
    seeds 0-299 of every profile), which the tests pin."""
    return rng.getstate()[1][-1]


def _rng_after(seed: int, profile: str, index: int, words: int) -> random.Random:
    """`sub_rng(seed, profile, index)` past its first `words` words
    (`_words_drawn`), drawn in one `getrandbits` call: the rng a base draw
    left, rebuilt, which costs about a third of a `copy.copy` of it."""
    rng = sub_rng(seed, profile, index)
    rng.getrandbits(32 * words)
    return rng


def _extend(
    base: list[Instance], rngs: Iterable[random.Random], seqs_per: int, maps_per: int
) -> list[Instance]:
    """The base instances with `seqs_per` sequences and then `maps_per`
    maps each, drawn on the instance's rng, which they consume; the spaces
    are the base's own objects."""
    out = []
    for inst, rng in zip(base, rngs):
        space, partner = inst.ext.space, inst.partner.space
        seqs = tuple(gen_seq(rng, space) for _ in range(seqs_per))
        maps = tuple(gen_map(rng, space, partner) for _ in range(maps_per))
        out.append(Instance(inst.ext, inst.partner, seqs, maps))
    return out
