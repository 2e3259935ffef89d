"""Externologies, exterior sequences, and the sequential coreflection.

An externology here is always of the shape ε(L, D): the filter of open sets
that contain every point of L and are cofinite on every tail of D.  The
canonical pair saturates L under minimal opens and closes D under the tails
those points capture; two pairs present the same filter iff their canonical
forms agree.  The countable decreasing base E*_k = sat(L) ∪ {(t, m) :
m >= k, t in D} witnesses e-first countability for the whole class.  Each
E*_k of a canonical pair is open, and every filter member contains one, so
a map pulls the filter back exactly when it pulls back every E*_k; `maps`
decides exterior maps that way, on the single member past the indices its
presentation names.  The cocompact externology ε(∅, unattached tails) makes
properness the exterior notion.

An ExtSpace's pair is read into (point mask of L, tail mask of D) once
(`_pair_masks`) and held in a `_masks` slot that is not a dataclass
field, None until then, so equality, hashing, repr and the serial forms
never see it.  The deciders saturate those masks for the canonical pair
(`_saturate`, which `canonicalize` reads too), so each answers for the
filter a raw pair presents, and they build no ExtSpace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import EvSet, FinitePoint, PointRef
from .errors import PresentationError, UniverseMismatch
from .sequences import Seq, _head
from .spaces import CompiledSpace, Space


@dataclass(frozen=True, slots=True)
class Externology:
    limits: tuple[str, ...]  # sat(L): finite points every filter member contains
    tails: tuple[str, ...]  # D: tails every filter member is cofinite on


@dataclass(frozen=True)
class ExtSpace:
    # The two fields, plus a slot that is not a field: None, and the pair's
    # masks once `_pair_masks` has derived them.
    __slots__ = ("space", "ext", "_masks")

    space: Space
    ext: Externology

    def __init__(self, space: Space, ext: Externology) -> None:
        _set_space(self, space)
        _set_ext(self, ext)
        _store_pair_masks(self, None)

    def __reduce__(self):
        # Pickle and copy the fields only; the masks are derived again on use.
        return ExtSpace, (self.space, self.ext)


# Each slot's own setter, as in `core` for a set's; only `ExtSpace.__init__`
# calls the field setters.
_set_space = ExtSpace.space.__set__
_set_ext = ExtSpace.ext.__set__
_store_pair_masks = ExtSpace._masks.__set__


@dataclass(frozen=True, slots=True)
class EReport:
    e_sequential: bool
    e_first_countable: bool


def canonicalize(space: Space, limits: Iterable[str], tails: Iterable[str]) -> Externology:
    """Saturate the point part and close the tail part under capture.

    Filter laws force both: an open set containing x contains minOpen(x),
    and is cofinite on every tail minOpen(x) captures, so membership in the
    presented filter is unchanged.  An unknown id is named under its field
    as the JSON form does (`L`, `D`).
    """
    v = space.compiled
    lim = d = 0
    for x in limits:
        if x not in v.point_bit:
            raise PresentationError(f"unknown finite point {x!r}", ("L",))
        lim |= v.point_bit[x]
    for t in tails:
        if t not in v.tail_bit:
            raise PresentationError(f"unknown tail {t!r}", ("D",))
        d |= v.tail_bit[t]
    sat, d = _saturate(v, lim, d)
    return Externology(tuple(v.names(sat)), tuple(v.tail_names(d)))


def _saturate(v: CompiledSpace, lim: int, d: int) -> tuple[int, int]:
    """(sat L, D ∪ the tails L captures) from the masks of L and D."""
    sat = 0
    for b, u in v.up.items():  # each point of L: minOpen, and what it captures
        if lim & b:
            sat, d = sat | u, d | v.cofinite_tails[b]
    return sat, d


def _canonical_masks(e: ExtSpace) -> tuple[int, int]:
    """The masks of `coreflect(e)`'s pair, with no ExtSpace built."""
    return _saturate(e.space.compiled, *_pair_masks(e))


def make_ext_space(space: Space, limits: Iterable[str] = (), tails: Iterable[str] = ()) -> ExtSpace:
    return ExtSpace(space, canonicalize(space, limits, tails))


def is_e_open(e: ExtSpace, s: EvSet) -> bool:
    """Open, and a member of the filter: `_e_open` on the pair's masks
    (`_pair_masks`) and the set's."""
    v = e.space.compiled
    return _e_open(v, *_pair_masks(e), *v.read(s))


def _pair_masks(e: ExtSpace) -> tuple[int, int]:
    """(point mask of L, tail mask of D), derived on first use and held in
    the exterior space's `_masks` slot: its space and pair never change."""
    masks = e._masks
    if masks is None:
        v = e.space.compiled
        masks = v.points_mask(e.ext.limits), v.tails_mask(e.ext.tails)
        _store_pair_masks(e, masks)
    return masks


def _e_open(v: CompiledSpace, lim: int, dt: int, fin: int, ev: int) -> bool:
    return v.open(fin, ev) and _covers_ext(lim, dt, fin, ev)


def _covers_ext(lim: int, dt: int, fin: int, ev: int) -> bool:
    """Contains L and is cofinite on every tail of D, given as the pair's
    masks.  An open or sequentially open set that contains L holds sat(L)
    and is cofinite on every tail it captures, so a raw pair needs no
    canonical form here."""
    return not lim & ~fin and not dt & ~ev


def limit_points(e: ExtSpace) -> frozenset[str]:
    """Intersection of all filter members; tail points never survive, since
    the complement of any single tail point is itself a filter member."""
    return frozenset(coreflect(e).ext.limits)


def exterior_base(e: ExtSpace, k: int) -> EvSet:
    if k < 0:
        raise PresentationError("base index must be a natural number")
    return _base(coreflect(e), k)


def _base(e: ExtSpace, k: int) -> EvSet:
    """E*_k in canonical form: a canonical pair lists L in point order."""
    uni, flips = e.space.universe, tuple(range(k))
    rows = tuple((t, True, flips) if t in e.ext.tails else (t, False, ()) for t in uni.tails)
    return EvSet(uni, e.ext.limits, rows)


def base_index_for(e: ExtSpace, member: EvSet) -> int:
    """The least k with E*_k contained in the given filter member."""
    k = 0
    for t in coreflect(e).ext.tails:
        misses = [m for m in member.flips_on(t) if member.is_cofinite_on(t)]
        if misses:
            k = max(k, max(misses) + 1)
    return k


def cocompact_externology(space: Space) -> Externology:
    """Open sets with closed compact complement: ε(∅, unattached tails).

    An open set is cofinite on every unattached tail exactly when its
    complement is compact; attached tails take care of themselves because a
    closed set cofinite on an attached tail captures an attach point.  With
    no point part the pair is already canonical: its masks are
    (0, unattached), which the deciders read off the view.
    """
    return Externology((), tuple(space.compiled.tail_names(space.compiled.unattached)))


def cocompact_ext_space(space: Space) -> ExtSpace:
    return ExtSpace(space, cocompact_externology(space))


def is_exterior_seq(e: ExtSpace, s: Seq) -> bool:
    """Eventually inside every filter member: per thread, on canonical masks."""
    v = e.space.compiled
    if s.universe is not v.universe and s.universe != v.universe:
        raise UniverseMismatch("sequence not over this exterior space's universe")
    lim, d = _canonical_masks(e)
    return all(_exterior_head(v, lim, d, _head(th)) for th in s.threads)


def _exterior_head(v: CompiledSpace, lim: int, d: int, head: PointRef | str) -> bool:
    """One thread, named by its head (`sequences._head`), is exterior iff
    it is constant at a point of L or walks a tail of D (canonical masks)."""
    if type(head) is str:
        return bool(d & v.tail_bit[head])
    return isinstance(head, FinitePoint) and bool(lim & v.point_bit[head.id])


def sequentially_e_open(e: ExtSpace, s: EvSet) -> bool:
    """Sequentially open and met eventually by every exterior sequence.

    The quantification over all exterior sequences (not only presentable
    ones) reduces to: contains sat(L), and cofinite on every tail of D —
    a sequence enumerating an infinite miss set on a D-tail is exterior,
    and a constant at a missing limit point is exterior.
    """
    v = e.space.compiled
    return _seq_e_open(v, *_pair_masks(e), *v.read(s))


def _seq_e_open(v: CompiledSpace, lim: int, dt: int, fin: int, ev: int) -> bool:
    return v.seq_open(fin, ev) and _covers_ext(lim, dt, fin, ev)


def coreflect(e: ExtSpace) -> ExtSpace:
    """Replace topology and externology by their sequential refinements.

    In this class the topology is already sequential and the sequentially
    e-open sets form exactly the filter ε(sat(L), D ∪ captured), so the
    coreflection is the canonical re-presentation; it is the identity on
    canonical inputs and idempotent on all inputs.
    """
    return ExtSpace(e.space, canonicalize(e.space, e.ext.limits, e.ext.tails))


def e_report(e: ExtSpace) -> EReport:
    """e-first countable always (the base E*_k); e-sequential iff the
    coreflection counit, the identity on points, is an isomorphism."""
    return EReport(e_sequential=coreflect(e) == e, e_first_countable=True)
