"""Decidable Boolean algebra of finitely presented subsets of a tail-space universe.

A universe consists of finitely many named finite points plus finitely many
tails, each tail a disjoint copy of the naturals.  A subset is presented by
its finite part together with, per tail, an eventual flag and a finite flip
set; the tail point (t, m) belongs iff eventual(t) XOR (m in flips(t)).
Subsets whose trace on some tail is neither finite nor cofinite are not
representable, which keeps every operation total and exact.

The algebra is exact in closed form.  On a tail, the flips of a cofinite
trace are its non-members and the flips of a finite trace are its members,
so each pair of eventual flags (ea, eb) fixes one set operation on the flip
sets (fa, fb):

    (ea, eb)               union      intersection
    cofinite, cofinite     fa & fb    fa | fb
    cofinite, finite       fa - fb    fb - fa
    finite,   cofinite     fb - fa    fa - fb
    finite,   finite       fa | fb    fa & fb

The result is cofinite iff ea or eb (union), ea and eb (intersection).  The
complement negates every eventual flag and keeps the flips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import PresentationError, UniverseMismatch


@dataclass(frozen=True, slots=True)
class FinitePoint:
    """A named point of the finite part."""

    id: str

    def __repr__(self) -> str:
        return f"pt({self.id})"


@dataclass(frozen=True, slots=True)
class TailPoint:
    """The index-th point of the named tail."""

    tail: str
    index: int

    def __repr__(self) -> str:
        return f"tp({self.tail},{self.index})"


PointRef = FinitePoint | TailPoint


@dataclass(frozen=True, slots=True)
class Universe:
    points: tuple[str, ...]
    tails: tuple[str, ...]

    def has_point(self, x: str) -> bool:
        return x in self.points

    def has_tail(self, t: str) -> bool:
        return t in self.tails

    def check_ref(self, p: PointRef) -> None:
        if isinstance(p, FinitePoint):
            if not self.has_point(p.id):
                raise PresentationError(f"unknown finite point {p.id!r}")
        elif isinstance(p, TailPoint):
            if not self.has_tail(p.tail):
                raise PresentationError(f"unknown tail {p.tail!r}")
            if p.index < 0:
                raise PresentationError(f"negative tail index {p.index}")
        else:
            raise PresentationError(f"not a point reference: {p!r}")


def make_universe(points: Iterable[str], tails: Iterable[str]) -> Universe:
    pts = tuple(sorted(points))
    tls = tuple(sorted(tails))
    for kind, names in (("point", pts), ("tail", tls)):
        for a, b in zip(names, names[1:]):
            if a == b:
                raise PresentationError(f"repeated {kind} name {a!r}")
    clash = set(pts) & set(tls)
    if clash:
        raise PresentationError(f"point/tail namespaces overlap: {sorted(clash)}")
    return Universe(pts, tls)


@dataclass(frozen=True, slots=True)
class EvSet:
    """Canonical presentation: finite part sorted, one row per tail, flips sorted."""

    universe: Universe
    finite: tuple[str, ...]
    rows: tuple[tuple[str, bool, tuple[int, ...]], ...]

    def eventual_on(self, tail: str) -> bool:
        for t, ev, _ in self.rows:
            if t == tail:
                return ev
        raise PresentationError(f"unknown tail {tail!r}")

    def flips_on(self, tail: str) -> tuple[int, ...]:
        for t, _, fl in self.rows:
            if t == tail:
                return fl
        raise PresentationError(f"unknown tail {tail!r}")

    def member(self, p: PointRef) -> bool:
        self.universe.check_ref(p)
        if isinstance(p, FinitePoint):
            return p.id in self.finite
        return self.eventual_on(p.tail) != (p.index in self.flips_on(p.tail))

    def is_cofinite_on(self, tail: str) -> bool:
        """True iff all but finitely many points of the tail belong."""
        return self.eventual_on(tail)

    def tail_members(self, tail: str, upto: int) -> list[int]:
        ev = self.eventual_on(tail)
        fl = self.flips_on(tail)
        return [m for m in range(upto) if ev != (m in fl)]

    def __or__(self, other: "EvSet") -> "EvSet":
        return ev_union(self, other)

    def __and__(self, other: "EvSet") -> "EvSet":
        return ev_intersect(self, other)

    def __invert__(self) -> "EvSet":
        return ev_complement(self)

    def __repr__(self) -> str:
        tails = ", ".join(
            f"{t}:{'cof' if ev else 'fin'}{list(fl) if fl else ''}" for t, ev, fl in self.rows
        )
        return f"EvSet({list(self.finite)}; {tails})"


def ev_set(
    universe: Universe,
    finite: Iterable[str] = (),
    eventual: Mapping[str, bool] | bool = False,
    flips: Mapping[str, Iterable[int]] | None = None,
) -> EvSet:
    """Build a canonical EvSet; unknown ids and negative indices are rejected."""
    fin = tuple(sorted(set(finite)))
    for x in fin:
        if not universe.has_point(x):
            raise PresentationError(f"unknown finite point {x!r}")
    ev_map: Mapping[str, bool]
    if isinstance(eventual, bool):
        ev_map = {t: eventual for t in universe.tails}
    else:
        ev_map = eventual
        for t in ev_map:
            if not universe.has_tail(t):
                raise PresentationError(f"unknown tail {t!r}")
    flips = flips or {}
    for t in flips:
        if not universe.has_tail(t):
            raise PresentationError(f"unknown tail {t!r}")
    rows = []
    for t in universe.tails:
        fl = tuple(sorted(set(flips.get(t, ()))))
        if fl and fl[0] < 0:
            raise PresentationError(f"negative flip index on tail {t!r}")
        rows.append((t, bool(ev_map.get(t, False)), fl))
    return EvSet(universe, fin, tuple(rows))


def full_set(universe: Universe) -> EvSet:
    return ev_set(universe, universe.points, eventual=True)


def shapes(universe: Universe) -> Iterator[EvSet]:
    """Each flip-free set once: every finite part with every choice of cofinite
    tails.  No set predicate reads flip sets, so a statement about all sets
    of a space holds iff it holds on these 2^(|P|+|T|) shapes."""
    for keep in itertools.product((False, True), repeat=len(universe.points)):
        fin = tuple(itertools.compress(universe.points, keep))
        for ev in itertools.product((False, True), repeat=len(universe.tails)):
            yield EvSet(universe, fin, tuple((t, e, ()) for t, e in zip(universe.tails, ev)))


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


def _check_same_universe(a: EvSet, b: EvSet) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatch("EvSets over different universes")


def ev_union(a: EvSet, b: EvSet) -> EvSet:
    _check_same_universe(a, b)
    fin = tuple(sorted(set(a.finite).union(b.finite)))
    rows = []
    for (t, ea, fa), (_, eb, fb) in zip(a.rows, b.rows):
        if not fa and not fb:
            rows.append((t, ea or eb, ()))
            continue
        if ea:
            fl = set(fa).intersection(fb) if eb else set(fa).difference(fb)
        else:
            fl = set(fb).difference(fa) if eb else set(fa).union(fb)
        rows.append((t, ea or eb, tuple(sorted(fl))))
    return EvSet(a.universe, fin, tuple(rows))


def ev_intersect(a: EvSet, b: EvSet) -> EvSet:
    _check_same_universe(a, b)
    fin = tuple(sorted(set(a.finite).intersection(b.finite)))
    rows = []
    for (t, ea, fa), (_, eb, fb) in zip(a.rows, b.rows):
        if not fa and not fb:
            rows.append((t, ea and eb, ()))
            continue
        if ea:
            fl = set(fa).union(fb) if eb else set(fb).difference(fa)
        else:
            fl = set(fa).difference(fb) if eb else set(fa).intersection(fb)
        rows.append((t, ea and eb, tuple(sorted(fl))))
    return EvSet(a.universe, fin, tuple(rows))


def ev_complement(a: EvSet) -> EvSet:
    fin = tuple([x for x in a.universe.points if x not in a.finite])
    rows = tuple([(t, not ev, fl) for t, ev, fl in a.rows])
    return EvSet(a.universe, fin, rows)


def is_subset(a: EvSet, b: EvSet) -> bool:
    return ev_intersect(a, b) == a


def is_finite(a: EvSet) -> bool:
    """True iff the set has finitely many members (no cofinite tail trace)."""
    return all(not ev for _, ev, _ in a.rows)
