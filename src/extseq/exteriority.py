"""Externologies, exterior sequences and maps, and the sequential coreflection.

An externology here is always of the shape ε(L, D): the filter of open sets
that contain every point of L and are cofinite on every tail of D.  The
canonical pair saturates L under minimal opens and closes D under the tails
those points capture; two pairs present the same filter iff their canonical
forms agree.  The countable decreasing base E*_k = sat(L) ∪ {(t, m) :
m >= k, t in D} witnesses e-first countability for the whole class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import EvSet, FinitePoint, ev_set
from .errors import PresentationError, UniverseMismatch
from .maps import SpaceMap, _presentation_index_bound, is_continuous, preimage
from .sequences import ConstThread, Seq, WalkThread
from .spaces import CompiledSpace, Space, attach_map, min_open_map


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


def saturate(space: Space, limits: Iterable[str]) -> frozenset[str]:
    mo = min_open_map(space)
    out: set[str] = set()
    for x in limits:
        if x not in mo:
            raise PresentationError(f"unknown finite point {x!r}")
        out |= mo[x]
    return frozenset(out)


def canonicalize(space: Space, limits: Iterable[str], tails: Iterable[str]) -> Externology:
    """Saturate the point part and close the tail part under capture.

    Filter laws force both: an open set containing x contains minOpen(x),
    and is cofinite on every tail minOpen(x) captures, so membership in the
    presented filter is unchanged.
    """
    sat = saturate(space, limits)
    at = attach_map(space)
    d = set()
    for t in tails:
        if t not in at:
            raise PresentationError(f"unknown tail {t!r}")
        d.add(t)
    d |= {t for t in space.tails if at[t] & sat}
    return Externology(tuple(sorted(sat)), tuple(sorted(d)))


def make_ext_space(space: Space, limits: Iterable[str] = (), tails: Iterable[str] = ()) -> ExtSpace:
    return ExtSpace(space, canonicalize(space, limits, tails))


def is_e_open(e: ExtSpace, s: EvSet) -> bool:
    v = e.space.compiled
    fin, ev = v.read(s)
    return v.open(fin, ev) and _covers_ext(v, e.ext, fin, ev)


def _covers_ext(v: CompiledSpace, ext: Externology, fin: int, ev: int) -> bool:
    """Contains sat(L) and is cofinite on every tail of D."""
    return not v.points_mask(ext.limits) & ~fin and not v.tails_mask(ext.tails) & ~ev


def limit_points(e: ExtSpace) -> frozenset[str]:
    """Intersection of all filter members; tail points never survive, since
    the complement of any single tail point is itself a filter member."""
    return frozenset(e.ext.limits)


def exterior_base(e: ExtSpace, k: int) -> EvSet:
    if k < 0:
        raise PresentationError("base index must be a natural number")
    return ev_set(
        e.space.universe,
        e.ext.limits,
        eventual={t: True for t in e.ext.tails},
        flips={t: range(k) for t in e.ext.tails},
    )


def base_index_for(e: ExtSpace, member: EvSet) -> int:
    """The least k with E*_k contained in the given filter member."""
    k = 0
    for t in e.ext.tails:
        misses = [m for m in member.flips_on(t) if member.is_cofinite_on(t)]
        if misses:
            k = max(k, max(misses) + 1)
    return k


def cocompact_externology(space: Space) -> Externology:
    """Open sets with closed compact complement: ε(∅, unattached tails).

    An open set is cofinite on every unattached tail exactly when its
    complement is compact; attached tails take care of themselves because a
    closed set cofinite on an attached tail captures an attach point.
    """
    at = attach_map(space)
    return canonicalize(space, (), (t for t in space.tails if not at[t]))


def cocompact_ext_space(space: Space) -> ExtSpace:
    return ExtSpace(space, cocompact_externology(space))


def is_exterior_seq(e: ExtSpace, s: Seq) -> bool:
    """Eventually inside every filter member, decided per thread."""
    if s.universe != e.space.universe:
        raise UniverseMismatch("sequence not over this exterior space's universe")
    lims = set(e.ext.limits)
    d = set(e.ext.tails)
    for th in s.threads:
        if isinstance(th, ConstThread):
            if not (isinstance(th.point, FinitePoint) and th.point.id in lims):
                return False
        elif isinstance(th, WalkThread):
            if th.tail not in d:
                return False
    return True


def is_exterior_map(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Continuous, and pulls every base member of the codomain filter back
    into the domain filter; checked along the base up to the presentation
    bound, past which preimages change by finite tail-point sets only."""
    if f.dom != e_dom.space or f.cod != e_cod.space:
        raise UniverseMismatch("map not typed between these exterior spaces")
    if not is_continuous(f):
        return False
    for k in range(_presentation_index_bound(f) + 2):
        if not is_e_open(e_dom, preimage(f, exterior_base(e_cod, k))):
            return False
    return True


def is_e_sequential_map(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Sequentially continuous and preserving exterior sequences.

    The sequence route, independent of the filter-preimage route: exterior
    sequences are mixtures of constants at limit points and walks on filter
    tails, and thread images depend only on the generators checked here.
    """
    from .maps import map_seq
    from .sequences import const_seq, walk_seq
    from .maps import is_seq_continuous

    if f.dom != e_dom.space or f.cod != e_cod.space:
        raise UniverseMismatch("map not typed between these exterior spaces")
    if not is_seq_continuous(f):
        return False
    uni = e_dom.space.universe
    for x in e_dom.ext.limits:
        if not is_exterior_seq(e_cod, map_seq(f, const_seq(uni, FinitePoint(x)))):
            return False
    for t in e_dom.ext.tails:
        if not is_exterior_seq(e_cod, map_seq(f, walk_seq(uni, t))):
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
