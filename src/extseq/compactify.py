"""s-compact sets, the one-point constructions, and presentation isomorphism.

Three ways of adding a point at infinity live here: `plus` (complements of
closed compact sets open at infinity), `wedge` (complements of the sets
every no-convergent-subsequence sequence escapes), and `infinity` (an
arbitrary externology's members open at infinity).  `bar` strips a closed
base point back off and recovers the externology it induced; `infinity`
and `bar` are mutually inverse on presentations.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .core import EvSet, FinitePoint, ev_complement, ev_set, shapes
from .errors import PresentationError
from .exteriority import (
    ExtSpace,
    Externology,
    canonicalize,
    cocompact_externology,
)
from .maps import SpaceMap, make_map
from .sequences import classify, walk_seq
from .spaces import (
    Space,
    attach_map,
    captures,
    is_open,
    min_open_map,
    validate_space,
)


@dataclass(frozen=True, slots=True)
class BasedSpace:
    space: Space
    base_point: str


def make_based(space: Space, base_point: str) -> BasedSpace:
    if base_point not in space.points:
        raise PresentationError(f"base point {base_point!r} is not a finite point")
    mo = min_open_map(space)
    for y in space.points:
        if y != base_point and base_point in mo[y]:
            raise PresentationError(f"base point {base_point!r} is not closed")
    return BasedSpace(space, base_point)


def is_s_compact(space: Space, c: EvSet) -> bool:
    """Sequentially closed, and escaped eventually by every proper sequence.

    Proper sequences are exactly the walk mixtures on unattached tails, so
    the escape condition is a finite trace on each unattached tail.
    """
    v = space.compiled
    fin, ev = v.read(c)
    return v.seq_open(fin ^ v.all_points, ev ^ v.all_tails) and not ev & v.unattached


def epsilon_sc(space: Space) -> Externology:
    """Open sets with s-compact complement, presented canonically.

    No finite point is forced (the complement of any up-set is a member),
    and a tail is forced exactly when the candidate member that drops the
    tail and its capturing points fails the s-compact complement test.
    """
    uni = space.universe
    forced = []
    for t in space.tails:
        cap = captures(space, t)
        candidate = ev_set(
            uni,
            set(space.points) - set(cap),
            eventual={u: True for u in space.tails if u != t},
        )
        if not (is_open(space, candidate) and is_s_compact(space, ev_complement(candidate))):
            forced.append(t)
    return canonicalize(space, (), forced)


def is_omega_sequential(space: Space) -> bool:
    """The s-compact sets are exactly the closed compact ones, checked on
    every set shape (neither side reads flip sets; see core.shapes)."""
    v = space.compiled
    for c in shapes(v.universe):
        fin, ev = v.read(c)
        closed_compact = v.open(fin ^ v.all_points, ev ^ v.all_tails) and v.compact(fin, ev)
        if is_s_compact(space, c) != closed_compact:
            return False
    return True


def _fresh_id(space: Space, stem: str = "inf") -> str:
    used = set(space.points) | set(space.tails)
    name = stem
    while name in used:
        name += "'"
    return name


def _one_point_from(space: Space, ext: Externology, name: str) -> BasedSpace:
    mo = {x: list(u) for x, u in space.min_open}
    mo[name] = [name] + list(ext.limits)
    attach = {t: list(row) for t, row in space.attach}
    for t in ext.tails:
        attach[t] = attach.get(t, []) + [name]
    bigger = validate_space(list(space.points) + [name], mo, space.tails, attach)
    return make_based(bigger, name)


def plus(space: Space) -> BasedSpace:
    """Alexandroff compactification: the added point's neighborhoods are the
    complements of closed compact sets."""
    return _one_point_from(space, cocompact_externology(space), _fresh_id(space))


def wedge(space: Space) -> BasedSpace:
    """One-point sequential compactification: the added point's neighborhoods
    are the open sets met eventually by every sequence without convergent
    subsequences.  On a sequentially compact space this is the coproduct
    with an isolated point."""
    uni = space.universe
    forced = [
        t
        for t in space.tails
        if classify(space, walk_seq(uni, t)).no_conv_subseq
    ]
    return _one_point_from(space, canonicalize(space, (), forced), _fresh_id(space))


def infinity(e: ExtSpace) -> BasedSpace:
    """Adjoin a base point whose neighborhoods are the filter members."""
    return _one_point_from(e.space, e.ext, _fresh_id(e.space))


def bar(b: BasedSpace) -> ExtSpace:
    """Remove a closed base point; its punctured neighborhoods become the
    externology of the remainder."""
    if b.base_point not in b.space.points:
        raise PresentationError("base point must be a finite point")
    make_based(b.space, b.base_point)  # re-checks closedness
    x0 = b.base_point
    mo = min_open_map(b.space)
    pts = [x for x in b.space.points if x != x0]
    min_open = {x: [y for y in mo[x] if y != x0] for x in pts}
    attach = {t: [z for z in row if z != x0] for t, row in b.space.attach}
    smaller = validate_space(pts, min_open, b.space.tails, attach)
    lbar = [y for y in mo[x0] if y != x0]
    dbar = [t for t in b.space.tails if attach_map(b.space)[t] & mo[x0]]
    return ExtSpace(smaller, canonicalize(smaller, lbar, dbar))


def plus_map(f: SpaceMap, dom_plus: BasedSpace, cod_plus: BasedSpace) -> SpaceMap:
    """The based extension sending added point to added point."""
    on_points: dict = dict(f.on_points)
    on_points[dom_plus.base_point] = FinitePoint(cod_plus.base_point)
    return make_map(dom_plus.space, cod_plus.space, on_points, dict(f.on_tails))


def _point_signature(space: Space, x: str):
    mo = min_open_map(space)
    return (
        len(mo[x]),
        sum(1 for y in space.points if x in mo[y]),
        sum(1 for t in space.tails if x in captures(space, t)),
    )


def space_isos(a: Space, b: Space, fixed: Mapping[str, str] | None = None):
    """Yield (point bijection, tail bijection) presentation isomorphisms.

    Comparison is against the capture-normalized form: attach sets induce
    the same topology iff they capture the same points, so tails are
    matched by their capture sets under the point bijection.
    """
    fixed = dict(fixed or {})
    if len(a.points) != len(b.points) or len(a.tails) != len(b.tails):
        return
    sig_a = {x: _point_signature(a, x) for x in a.points}
    sig_b = {x: _point_signature(b, x) for x in b.points}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return
    moa, mob = min_open_map(a), min_open_map(b)
    caps_b = Counter(frozenset(captures(b, t)) for t in b.tails)
    for perm in itertools.permutations(b.points):
        sigma = dict(zip(a.points, perm))
        if any(sigma[x] != y for x, y in fixed.items()):
            continue
        if any(sig_a[x] != sig_b[sigma[x]] for x in a.points):
            continue
        if any(frozenset(sigma[y] for y in moa[x]) != mob[sigma[x]] for x in a.points):
            continue
        caps_a = Counter(
            frozenset(sigma[y] for y in captures(a, t)) for t in a.tails
        )
        if caps_a != caps_b:
            continue
        pool: dict[frozenset, list[str]] = {}
        for t in b.tails:
            pool.setdefault(frozenset(captures(b, t)), []).append(t)
        tau = {}
        for t in a.tails:
            key = frozenset(sigma[y] for y in captures(a, t))
            tau[t] = pool[key].pop()
        yield sigma, tau


def based_iso(a: BasedSpace, b: BasedSpace):
    """Base-point-preserving presentation isomorphism, or None."""
    return next(space_isos(a.space, b.space, {a.base_point: b.base_point}), None)


def ext_iso(a: ExtSpace, b: ExtSpace):
    """Presentation isomorphism translating the externologies, or None; tails
    are matched by capture set and by membership in D."""
    for sigma, _ in space_isos(a.space, b.space):
        if frozenset(sigma[x] for x in a.ext.limits) != frozenset(b.ext.limits):
            continue
        pool: dict[tuple[frozenset, bool], list[str]] = {}
        for t in b.space.tails:
            pool.setdefault((captures(b.space, t), t in b.ext.tails), []).append(t)
        tau = {}
        for t in a.space.tails:
            bucket = pool.get((frozenset(sigma[y] for y in captures(a.space, t)), t in a.ext.tails))
            if not bucket:
                break
            tau[t] = bucket.pop()
        else:
            return sigma, tau
    return None


def coproduct_with_isolated_point(space: Space) -> BasedSpace:
    """The space plus one isolated base point (what wedge yields on
    sequentially compact inputs)."""
    return _one_point_from(space, Externology((), ()), _fresh_id(space))
