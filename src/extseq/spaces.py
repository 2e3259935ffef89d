"""Tail-space presentations and exact deciders for their topological predicates.

A presentation is a finite preordered part (each point x carries its minimal
open set, a down-set of the specialization preorder) plus finitely many
tails, each a discrete copy of the naturals.  A tail t with attach set A
converges into the finite part: the basic neighborhoods of a finite point x
are N(U_x, k) = U_x ∪ {(t, m) : m >= k, attach(t) ∩ U_x != ∅}, and every
tail point is isolated.

All deciders below are exact on this class.  The compactness decider uses
the capture characterization (a cofinite tail trace needs a capturing
finite point inside the set); its agreement with a brute-force basic-open
cover checker on small spaces is established in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (
    EvSet,
    TailPoint,
    Universe,
    ev_complement,
    full_set,
    make_universe,
)
from .errors import PresentationError, UniverseMismatch


@dataclass(frozen=True, slots=True)
class Space:
    points: tuple[str, ...]
    min_open: tuple[tuple[str, tuple[str, ...]], ...]
    tails: tuple[str, ...]
    attach: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def universe(self) -> Universe:
        return Universe(self.points, self.tails)


@dataclass(frozen=True, slots=True)
class SetProps:
    open: bool
    closed: bool
    seq_open: bool
    seq_closed: bool
    compact: bool
    closed_compact: bool


@dataclass(frozen=True, slots=True)
class SpaceReport:
    t0: bool
    t1: bool
    seq_hausdorff: bool
    s2: bool
    hausdorff: bool
    compact: bool
    seq_compact: bool
    countably_compact: bool
    sequential: bool


def validate_space(
    points: Iterable[str],
    min_open: Mapping[str, Iterable[str]],
    tails: Iterable[str] = (),
    attach: Mapping[str, Iterable[str]] | None = None,
) -> Space:
    """Canonicalize a raw presentation, checking the preorder and attach laws."""
    pts = tuple(sorted(set(points)))
    tls = tuple(sorted(set(tails)))
    make_universe(pts, tls)
    attach = attach or {}
    mo: dict[str, tuple[str, ...]] = {}
    for x in pts:
        if x not in min_open:
            raise PresentationError(f"missing minimal open set for point {x!r}")
        ux = tuple(sorted(set(min_open[x])))
        for y in ux:
            if y not in pts:
                raise PresentationError(f"minOpen({x!r}) mentions unknown point {y!r}")
        if x not in ux:
            raise PresentationError(f"minOpen({x!r}) must contain {x!r}")
        mo[x] = ux
    for x in min_open:
        if x not in pts:
            raise PresentationError(f"minOpen defined for unknown point {x!r}")
    for x in pts:
        for y in mo[x]:
            if not set(mo[y]) <= set(mo[x]):
                raise PresentationError(
                    f"minOpen not transitive: {y!r} in minOpen({x!r}) "
                    f"but minOpen({y!r}) is not contained in it"
                )
    at: dict[str, tuple[str, ...]] = {}
    for t in tls:
        row = tuple(sorted(set(attach.get(t, ()))))
        for z in row:
            if z not in pts:
                raise PresentationError(f"attach({t!r}) mentions unknown point {z!r}")
        at[t] = row
    for t in attach or {}:
        if t not in tls:
            raise PresentationError(f"attach defined for unknown tail {t!r}")
    return Space(
        pts,
        tuple((x, mo[x]) for x in pts),
        tls,
        tuple((t, at[t]) for t in tls),
    )


@functools.lru_cache(maxsize=None)
def min_open_map(space: Space) -> dict[str, frozenset[str]]:
    return {x: frozenset(u) for x, u in space.min_open}


@functools.lru_cache(maxsize=None)
def attach_map(space: Space) -> dict[str, frozenset[str]]:
    return {t: frozenset(a) for t, a in space.attach}


@functools.lru_cache(maxsize=None)
def captures(space: Space, tail: str) -> frozenset[str]:
    """Finite points x whose every neighborhood swallows the tail cofinally."""
    at = attach_map(space)[tail]
    mo = min_open_map(space)
    return frozenset(x for x in space.points if at & mo[x])


def _check_universe(space: Space, s: EvSet) -> None:
    if s.universe != space.universe:
        raise UniverseMismatch("EvSet not over this space's universe")


def is_open(space: Space, s: EvSet) -> bool:
    _check_universe(space, s)
    mo = min_open_map(space)
    at = attach_map(space)
    fin = set(s.finite)
    for x in s.finite:
        if not set(mo[x]) <= fin:
            return False
        for t in space.tails:
            if at[t] & mo[x] and not s.is_cofinite_on(t):
                return False
    return True


def is_sequentially_open(space: Space, s: EvSet) -> bool:
    """Exact decider through the convergence generators of the class.

    A set fails to be sequentially open exactly when some convergent
    sequence has a limit inside it but does not stay in it.  The generators
    are the constant sequences (at y, converging to every x with y in
    minOpen(x)) and the escaping tail walks (on t, converging to every
    point of captures(t), with subsequences enumerating any infinite
    co-trace).  Tail points are isolated, so members on tails impose
    nothing.
    """
    _check_universe(space, s)
    mo = min_open_map(space)
    fin = set(s.finite)
    for y in space.points:
        const_limits = {x for x in space.points if y in mo[x]}
        if const_limits & fin and y not in fin:
            return False
    for t in space.tails:
        if captures(space, t) & fin and not s.is_cofinite_on(t):
            return False
    return True


def set_properties(space: Space, s: EvSet) -> SetProps:
    _check_universe(space, s)
    opn = is_open(space, s)
    comp = ev_complement(s)
    cls = is_open(space, comp)
    sopn = is_sequentially_open(space, s)
    scls = is_sequentially_open(space, comp)
    compact = _is_compact(space, s)
    return SetProps(opn, cls, sopn, scls, compact, cls and compact)


def _is_compact(space: Space, s: EvSet) -> bool:
    """Capture characterization: each cofinite tail trace must be swallowed
    by the neighborhoods of some finite member."""
    mo = min_open_map(space)
    at = attach_map(space)
    for t in space.tails:
        if s.is_cofinite_on(t):
            if not any(at[t] & mo[x] for x in s.finite):
                return False
    return True


def space_report(space: Space) -> SpaceReport:
    mo = min_open_map(space)
    t0 = len({mo[x] for x in space.points}) == len(space.points)
    t1 = all(mo[x] == {x} for x in space.points)
    # Limit sets of the convergence generators: constants at y converge to
    # {x : y in minOpen(x)}, escaping tail walks to captures(t).
    unique_const = all(
        sum(1 for x in space.points if y in mo[x]) <= 1 for y in space.points
    )
    unique_walks = all(len(captures(space, t)) <= 1 for t in space.tails)
    seq_h = unique_const and unique_walks
    hausdorff = all(
        not (mo[x] & mo[y])
        and not any(captures(space, t) >= {x, y} for t in space.tails)
        for i, x in enumerate(space.points)
        for y in space.points[i + 1 :]
    )
    # Cover route: the whole space is compact iff the full set is.
    compact = _is_compact(space, full_set(space.universe))
    countably = compact
    # Sequence route: every escaping walk must admit a convergent
    # subsequence, i.e. have a nonempty limit set.
    seq_compact = all(captures(space, t) for t in space.tails)
    return SpaceReport(
        t0=t0,
        t1=t1,
        seq_hausdorff=seq_h,
        s2=seq_h,
        hausdorff=hausdorff,
        compact=compact,
        seq_compact=seq_compact,
        countably_compact=countably,
        sequential=True,
    )


def coproduct(a: Space, b: Space) -> Space:
    """Disjoint union; colliding ids on the right are renamed."""
    used = set(a.points) | set(a.tails)
    ren: dict[str, str] = {}
    for name in list(b.points) + list(b.tails):
        new = name
        while new in used:
            new = new + "'"
        ren[name] = new
        used.add(new)
    mo = dict(a.min_open)
    mo.update({ren[x]: tuple(ren[y] for y in u) for x, u in b.min_open})
    at = dict(a.attach)
    at.update({ren[t]: tuple(ren[z] for z in row) for t, row in b.attach})
    return validate_space(
        list(a.points) + [ren[x] for x in b.points],
        {x: list(u) for x, u in mo.items()},
        list(a.tails) + [ren[t] for t in b.tails],
        {t: list(row) for t, row in at.items()},
    )


def subspace(space: Space, s: EvSet) -> Space:
    """The subspace presentation carried by an EvSet.

    Cofinite tail traces stay tails (their capture structure restricted to
    surviving points); finite tail traces become isolated finite points.
    """
    _check_universe(space, s)
    pts = [x for x in space.points if x in s.finite]
    mo = {x: [y for y in min_open_map(space)[x] if y in s.finite] for x in pts}
    tails = []
    attach: dict[str, list[str]] = {}
    extra: list[str] = []
    for t in space.tails:
        if s.is_cofinite_on(t):
            tails.append(t)
            attach[t] = [x for x in captures(space, t) if x in s.finite]
        else:
            for m in s.flips_on(t):
                if s.member(TailPoint(t, m)):
                    name = f"{t}#{m}"
                    extra.append(name)
                    mo[name] = [name]
    return validate_space(pts + extra, mo, tails, attach)


def open_basic_neighborhood(space: Space, x: str, k: int) -> EvSet:
    """N(U_x, k): the k-th basic neighborhood of a finite point."""
    mo = min_open_map(space)
    if x not in mo:
        raise PresentationError(f"unknown finite point {x!r}")
    from .core import ev_set

    hit = [t for t in space.tails if attach_map(space)[t] & mo[x]]
    return ev_set(
        space.universe,
        mo[x],
        eventual={t: True for t in hit},
        flips={t: range(k) for t in hit},
    )
