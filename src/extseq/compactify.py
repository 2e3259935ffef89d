"""s-compact sets, the one-point constructions, and presentation isomorphism.

Three ways of adding a point at infinity live here: `plus` (complements of
closed compact sets open at infinity), `wedge` (complements of the sets
every no-convergent-subsequence sequence escapes), and `infinity` (an
arbitrary externology's members open at infinity).  `bar` strips a closed
base point back off and recovers the externology it induced, reading its
canonical pair off the based space's view with no second view built;
`infinity` and `bar` are mutually inverse on presentations.

`based_iso` answers equal presentations with equal base points at once,
with the isomorphism the permutation search would yield first: the suites
compare `wedge` with `plus` and `infinity(bar(b))` with `b`, which come out
equal, and only other pairs are searched.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import EvSet, FinitePoint
from .errors import PresentationError
from .exteriority import (
    ExtSpace,
    Externology,
    canonicalize,
    cocompact_externology,
    coreflect,
)
from .maps import SpaceMap
from .sequences import _has_convergent_subseq
from .spaces import CompiledSpace, Space, _derived_space, _fresh


@dataclass(frozen=True, slots=True)
class BasedSpace:
    space: Space
    base_point: str


def make_based(space: Space, base_point: str) -> BasedSpace:
    if base_point not in space.points:
        raise PresentationError(f"base point {base_point!r} is not a finite point", ("basePoint",))
    v = space.compiled
    b = v.point_bit[base_point]
    if v.const_limits[b] & ~b:  # in minOpen(y) for some other y
        raise PresentationError(f"base point {base_point!r} is not closed", ("basePoint",))
    return BasedSpace(space, base_point)


def is_s_compact(space: Space, c: EvSet) -> bool:
    """Sequentially closed, and escaped eventually by every proper sequence.

    Proper sequences are exactly the walk mixtures on unattached tails, so
    the escape condition is a finite trace on each unattached tail.
    """
    v = space.compiled
    return _s_compact(v, *v.read(c))


def _s_compact(v: CompiledSpace, fin: int, ev: int) -> bool:
    return v.seq_open(fin ^ v.all_points, ev ^ v.all_tails) and not ev & v.unattached


def _closed_s_compact(v: CompiledSpace, fin: int, ev: int) -> bool:
    """The complement test of epsilon_sc, and the hypothesis of Lemma 3.7."""
    return v.open(fin ^ v.all_points, ev ^ v.all_tails) and _s_compact(v, fin, ev)


def epsilon_sc(space: Space) -> Externology:
    """Open sets with s-compact complement, presented canonically.

    No finite point is forced (the complement of any up-set is a member),
    and a tail is forced exactly when the candidate member that drops the
    tail and its capturing points fails the s-compact complement test.
    """
    v = space.compiled
    forced = []
    for t, tb in v.tail_bit.items():
        cap = v.capture_masks[tb]  # the candidate's complement is (cap, t)
        if not _closed_s_compact(v, cap, tb):
            forced.append(t)
    return canonicalize(space, (), forced)


def is_omega_sequential(space: Space) -> bool:
    """The s-compact sets are exactly the closed compact ones, checked on
    every set shape (neither side reads flip sets; see CompiledSpace.shapes)."""
    v = space.compiled
    for fin, ev in v.shapes():
        closed_compact = v.open(fin ^ v.all_points, ev ^ v.all_tails) and v.compact(fin, ev)
        if _s_compact(v, fin, ev) != closed_compact:
            return False
    return True


def _fresh_id(space: Space) -> str:
    return _fresh("inf", set(space.points) | set(space.tails))


def _one_point_from(space: Space, ext: Externology, name: str) -> BasedSpace:
    """Adjoin a fresh point whose minimal open is {name} ∪ L, attached to the
    tails of D.  L must be saturated, as in a canonical pair; the new point
    lies in no other minimal open, so it is closed."""
    mo = dict(space.min_open)
    mo[name] = (name, *ext.limits)
    attach = dict(space.attach)
    for t in ext.tails:
        attach[t] += (name,)
    return BasedSpace(_derived_space(mo, attach), name)


def plus(space: Space) -> BasedSpace:
    """Alexandroff compactification: the added point's neighborhoods are the
    complements of closed compact sets.  It is built once per compiled view
    and held in its `plus` slot, so `plus(s) is plus(s)`."""
    v = space.compiled
    if v.plus is None:
        v.plus = _one_point_from(space, cocompact_externology(space), _fresh_id(space))
    return v.plus


def wedge(space: Space) -> BasedSpace:
    """One-point sequential compactification: the added point's neighborhoods
    are the open sets met eventually by every sequence without convergent
    subsequences.  On a sequentially compact space this is the disjoint union
    with an isolated point."""
    v = space.compiled
    forced = [t for t in space.tails if not _has_convergent_subseq(v, t)]
    return _one_point_from(space, canonicalize(space, (), forced), _fresh_id(space))


def infinity(e: ExtSpace) -> BasedSpace:
    """Adjoin a base point whose neighborhoods are the filter members (of the
    filter a raw pair presents, through its canonical pair)."""
    return _one_point_from(e.space, coreflect(e).ext, _fresh_id(e.space))


def bar(b: BasedSpace) -> ExtSpace:
    """Remove a closed base point; its punctured neighborhoods become the
    externology of the remainder.

    The pair ε(L̄, D̄), L̄ = minOpen(x0) ∖ {x0} and D̄ the tails x0
    captures, is read off b's view and is already canonical.  A closed x0
    lies in no other minimal open, so the remainder keeps every other
    point's minimal open, and each y of L̄ has minOpen(y) ⊆ minOpen(x0) ∖
    {x0} = L̄: L̄ is saturated.  A tail y captures attaches into
    minOpen(y) ⊆ minOpen(x0), so x0 captures it too: D̄ is closed under
    capture.  Both lists are in the remainder's name order, a Space's
    names being sorted.
    """
    make_based(b.space, b.base_point)  # a closed finite point
    x0 = b.base_point
    # A closed point lies in no other minimal open, so only attach rows lose it.
    min_open = {x: u for x, u in b.space.min_open if x != x0}
    attach = {t: [z for z in row if z != x0] for t, row in b.space.attach}
    v = b.space.compiled
    b0 = v.point_bit[x0]
    lbar = tuple(v.names(v.up[b0] & ~b0))
    dbar = tuple(v.tail_names(v.cofinite_tails[b0]))
    return ExtSpace(_derived_space(min_open, attach), Externology(lbar, dbar))


def plus_map(f: SpaceMap) -> SpaceMap:
    """The based extension plus(f.dom) -> plus(f.cod), sending added point
    to added point.  f's images are canonical refs of the larger codomain,
    so nothing is checked again: its tail images are reused as they are
    (the tails and their order do not change)."""
    dom_plus, cod_plus = plus(f.dom), plus(f.cod)
    images = dict(f.on_points)
    images[dom_plus.base_point] = FinitePoint(cod_plus.base_point)
    on_points = tuple((x, images[x]) for x in dom_plus.space.points)
    return SpaceMap(dom_plus.space, cod_plus.space, on_points, f.on_tails)


def _point_signature(v: CompiledSpace, b: int):
    """|minOpen(x)|, the points whose minimal open holds x, the tails x captures."""
    return (
        v.up[b].bit_count(),
        v.const_limits[b].bit_count(),
        v.cofinite_tails[b].bit_count(),
    )


def _mover(va: CompiledSpace, vb: CompiledSpace, sigma: Mapping[str, str]):
    """The image of a point mask of a under the point bijection sigma."""
    pairs = [(va.point_bit[x], vb.point_bit[y]) for x, y in sigma.items()]
    return lambda mask: sum(bb for ba, bb in pairs if mask & ba)


def space_isos(a: Space, b: Space, fixed: Mapping[str, str] | None = None):
    """Yield (point bijection, tail bijection) presentation isomorphisms.

    Comparison is against the capture-normalized form: attach sets induce
    the same topology iff they capture the same points, so tails are
    matched by their capture sets under the point bijection.  Sizes need
    no test of their own: unequal point counts give unequal signature
    lists, and unequal tail counts refuse every bijection at the capture
    count.
    """
    fixed = dict(fixed or {})
    va, vb = a.compiled, b.compiled
    sig_a = {x: _point_signature(va, bit) for x, bit in va.point_bit.items()}
    sig_b = {x: _point_signature(vb, bit) for x, bit in vb.point_bit.items()}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return
    caps_b = Counter(vb.capture_masks.values())
    for perm in itertools.permutations(b.points):
        sigma = dict(zip(a.points, perm))
        if any(sigma[x] != y for x, y in fixed.items()):
            continue
        if any(sig_a[x] != sig_b[sigma[x]] for x in a.points):
            continue
        move = _mover(va, vb, sigma)
        if any(move(va.up[ba]) != vb.up[move(ba)] for ba in va.up):
            continue
        if Counter(map(move, va.capture_masks.values())) != caps_b:
            continue
        wanted = ((t, move(va.capture_masks[tb])) for t, tb in va.tail_bit.items())
        yield sigma, _tail_bijection(vb, wanted)


def _tail_bijection(vb: CompiledSpace, wanted: Iterable[tuple[str, int]]) -> dict[str, str]:
    """Send each (tail, capture mask) of `wanted` to a tail of b with that
    capture mask, popped from the end of b's pool for the mask, so tails
    that share a capture mask are matched in reverse order."""
    pool: dict[int, list[str]] = {}
    for t, tb in vb.tail_bit.items():
        pool.setdefault(vb.capture_masks[tb], []).append(t)
    return {t: pool[cap].pop() for t, cap in wanted}


def based_iso(a: BasedSpace, b: BasedSpace):
    """Base-point-preserving presentation isomorphism, or None.

    Equal presentations with equal base points are answered at once with
    the isomorphism the search yields first: the identity on points (the
    first permutation, which passes every test), and the tails matched by
    `_tail_bijection` on b's view, as the search matches them.  Neither a
    view of a nor a permutation is built.
    """
    if a.base_point == b.base_point and a.space == b.space:
        vb = b.space.compiled
        sigma = {x: x for x in b.space.points}
        wanted = ((t, vb.capture_masks[tb]) for t, tb in vb.tail_bit.items())
        return sigma, _tail_bijection(vb, wanted)
    return next(space_isos(a.space, b.space, {a.base_point: b.base_point}), None)
