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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import EvSet, FinitePoint, ev_set
from .errors import PresentationError, UniverseMismatch
from .sequences import ConstThread, Seq, WalkThread
from .spaces import CompiledSpace, Space


@dataclass(frozen=True, slots=True)
class Externology:
    limits: tuple[str, ...]  # sat(L): finite points every filter member contains
    tails: tuple[str, ...]  # D: tails every filter member is cofinite on


@dataclass(frozen=True, slots=True)
class ExtSpace:
    space: Space
    ext: Externology


@dataclass(frozen=True, slots=True)
class EReport:
    e_sequential: bool
    e_first_countable: bool


def canonicalize(space: Space, limits: Iterable[str], tails: Iterable[str]) -> Externology:
    """Saturate the point part and close the tail part under capture.

    Filter laws force both: an open set containing x contains minOpen(x),
    and is cofinite on every tail minOpen(x) captures, so membership in the
    presented filter is unchanged.
    """
    v = space.compiled
    sat = d = 0
    for x in limits:
        if x not in v.point_bit:
            raise PresentationError(f"unknown finite point {x!r}")
        b = v.point_bit[x]
        sat |= v.up[b]
        d |= v.cofinite_tails[b]
    for t in tails:
        if t not in v.tail_bit:
            raise PresentationError(f"unknown tail {t!r}")
        d |= v.tail_bit[t]
    return Externology(tuple(v.names(sat)), tuple(v.tail_names(d)))


def make_ext_space(space: Space, limits: Iterable[str] = (), tails: Iterable[str] = ()) -> ExtSpace:
    return ExtSpace(space, canonicalize(space, limits, tails))


def is_e_open(e: ExtSpace, s: EvSet) -> bool:
    v = e.space.compiled
    fin, ev = v.read(s)
    return v.open(fin, ev) and _covers_ext(v, e.ext, fin, ev)


def _covers_ext(v: CompiledSpace, ext: Externology, fin: int, ev: int) -> bool:
    """Contains L and is cofinite on every tail of D.  An open or
    sequentially open set that contains L holds sat(L) and is cofinite on
    every tail it captures, so a raw pair needs no canonical form here."""
    return not v.points_mask(ext.limits) & ~fin and not v.tails_mask(ext.tails) & ~ev


# The deciders below that read L and D directly answer for the filter the
# pair presents, raw or canonical, by reading the canonical pair
# (`coreflect`).  `_base` and `_exterior_seq` trust a canonical pair, for
# callers that hold one already.


def limit_points(e: ExtSpace) -> frozenset[str]:
    """Intersection of all filter members; tail points never survive, since
    the complement of any single tail point is itself a filter member."""
    return frozenset(coreflect(e).ext.limits)


def exterior_base(e: ExtSpace, k: int) -> EvSet:
    if k < 0:
        raise PresentationError("base index must be a natural number")
    return _base(coreflect(e), k)


def _base(e: ExtSpace, k: int) -> EvSet:
    return ev_set(
        e.space.universe,
        e.ext.limits,
        eventual={t: True for t in e.ext.tails},
        flips={t: range(k) for t in e.ext.tails},
    )


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
    no point part the pair is already canonical.
    """
    v = space.compiled
    return Externology((), tuple(v.tail_names(v.unattached)))


def cocompact_ext_space(space: Space) -> ExtSpace:
    return ExtSpace(space, cocompact_externology(space))


def is_exterior_seq(e: ExtSpace, s: Seq) -> bool:
    """Eventually inside every filter member, decided per thread."""
    if s.universe != e.space.universe:
        raise UniverseMismatch("sequence not over this exterior space's universe")
    return _exterior_seq(coreflect(e).ext, s)


def _exterior_seq(ext: Externology, s: Seq) -> bool:
    for th in s.threads:
        if isinstance(th, ConstThread):
            if not (isinstance(th.point, FinitePoint) and th.point.id in ext.limits):
                return False
        elif isinstance(th, WalkThread):
            if th.tail not in ext.tails:
                return False
    return True


def sequentially_e_open(e: ExtSpace, s: EvSet) -> bool:
    """Sequentially open and met eventually by every exterior sequence.

    The quantification over all exterior sequences (not only presentable
    ones) reduces to: contains sat(L), and cofinite on every tail of D —
    a sequence enumerating an infinite miss set on a D-tail is exterior,
    and a constant at a missing limit point is exterior.
    """
    v = e.space.compiled
    fin, ev = v.read(s)
    return v.seq_open(fin, ev) and _covers_ext(v, e.ext, fin, ev)


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
