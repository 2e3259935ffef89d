"""Tail-space presentations and exact deciders for their topological predicates.

A presentation is a finite preordered part (each point x carries its minimal
open set, a down-set of the specialization preorder) plus finitely many
tails, each a discrete copy of the naturals.  A tail t with attach set A
converges into the finite part: the basic neighborhoods of a finite point x
are N(U_x, k) = U_x ∪ {(t, m) : m >= k, attach(t) ∩ U_x != ∅}, and every
tail point is isolated.

Each Space compiles, once and on first use, into a `CompiledSpace` held on
the object itself (`Space.compiled`): its universe, one bit per point and
per tail, and the presentation as bit masks.  The view is the one derived
form of a space: the specialization preorder and the capture relation are
derived there and nowhere else, and every decider and generator of the
package reads them from it.  No set predicate reads flip sets, so a set is
read once into a (finite mask, eventual mask) pair and every set decider
works on that pair; the complement is the pair XOR the full masks.
`CompiledSpace.read` checks the set's universe on every call, and only
then returns the pair it stored on the set at its first read.  The
universe and the view of a space, and the pair of a set, sit in slots that
are not dataclass fields, so equality, hashing, repr and the serial forms
never see them.
`min_open_map`, `attach_map` and `captures` are small bounded caches that
read a space out by name, for tests and the benchmark; no decider calls
them.

All deciders below are exact on this class.  The compactness decider uses
the capture characterization (a cofinite tail trace needs a capturing
finite point inside the set); its agreement with a brute-force basic-open
cover checker on small spaces is established in the test suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .core import EvSet, Universe, _store_masks, make_universe
from .errors import PresentationError, UniverseMismatch


@dataclass(frozen=True)
class Space:
    # The four fields, plus slots that are not fields: the universe and the
    # compiled view, each built on first use.
    __slots__ = ("points", "min_open", "tails", "attach", "_universe", "_compiled")

    points: tuple[str, ...]
    min_open: tuple[tuple[str, tuple[str, ...]], ...]
    tails: tuple[str, ...]
    attach: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def compiled(self) -> CompiledSpace:
        """The bit-mask view of this presentation, built on first use."""
        try:
            return self._compiled
        except AttributeError:
            view = CompiledSpace(self)
            object.__setattr__(self, "_compiled", view)
            return view

    @property
    def universe(self) -> Universe:
        try:
            return self._universe
        except AttributeError:
            # Many spaces (parsed, or built only to be mapped into) need their
            # universe but never a set decision, so it is not left to the view.
            uni = Universe(self.points, self.tails)
            object.__setattr__(self, "_universe", uni)
            return uni

    def __reduce__(self):
        # Pickle and copy the presentation only; the view is rebuilt on use.
        return Space, (self.points, self.min_open, self.tails, self.attach)


class CompiledSpace:
    """A Space as bit masks: point i of `points` is bit 1 << i of a finite
    mask, tail j of `tails` is bit 1 << j of an eventual mask, and the
    per-point and per-tail tables below are keyed by those bits.

    `up` and `cofinite_tails` serve openness (minimal opens plus attach);
    `const_limits` and `capture_masks` serve sequential openness (the
    constant-sequence and escaping-walk generators) and compactness.  The
    two deciders read different tables, so the suites that compare them
    can still catch a fault in either.  Every other module reads these same
    tables.  `unattached` marks the tails with an empty attach set, the ones
    no point captures.

    `converging` holds each point's converging generators by point bit
    (the points of minOpen(x), then the tails x captures), None until
    `maps._converging` first reads it; and `plus` the one-point
    compactification, None until `compactify.plus` builds it (its new
    space holds no reference back).  Each lives as long as the view, so
    every decider over one space reads the same value.
    """

    __slots__ = (
        "universe", "point_bit", "tail_bit", "all_points", "all_tails",
        "up", "cofinite_tails", "const_limits", "capture_masks", "unattached",
        "converging", "plus",
    )  # fmt: skip

    def __init__(self, space: Space):
        pts, tls = space.points, space.tails
        self.universe = space.universe
        pbit = self.point_bit = {x: 1 << i for i, x in enumerate(pts)}
        tbit = self.tail_bit = {t: 1 << j for j, t in enumerate(tls)}
        self.all_points = (1 << len(pts)) - 1
        self.all_tails = (1 << len(tls)) - 1
        # up: point bit -> minOpen(x).  const_limits: point bit y -> the x
        # with y in minOpen(x), where the constant at y converges.
        up = self.up = {}
        limits = self.const_limits = dict.fromkeys(pbit.values(), 0)
        for x, u in space.min_open:
            b, m = pbit[x], 0
            for y in u:
                m |= pbit[y]
                limits[pbit[y]] |= b
            up[b] = m
        # A tail attaching into minOpen(x) is captured by x: every
        # neighborhood of x is cofinite on it, and its escaping walk
        # converges to x.
        cofinite = self.cofinite_tails = dict.fromkeys(up, 0)
        caps = self.capture_masks = {}
        self.unattached = 0
        for t, a in space.attach:
            tb, am, cm = tbit[t], 0, 0
            for z in a:
                am |= pbit[z]
            if not am:
                self.unattached |= tb
            for b, u in up.items():
                if u & am:
                    cm |= b
                    cofinite[b] |= tb
            caps[tb] = cm
        self.converging = self.plus = None

    def read(self, s: EvSet) -> tuple[int, int]:
        """(finite mask, eventual mask) of a set over this universe.

        The universe is checked on every call, before anything else.  The
        masks depend only on the universe's name order, so the first read
        stores them in the set's `_masks` slot and every later read, against
        any space over an equal universe, returns them."""
        if s.universe is not self.universe and s.universe != self.universe:
            raise UniverseMismatch("EvSet not over this space's universe")
        masks = s._masks
        if masks is not None:
            return masks
        bit = self.point_bit
        fin = 0
        for x in s.finite:
            fin |= bit[x]
        ev, b = 0, 1
        for row in s.rows:  # one row per tail, in universe order
            if row[1]:
                ev |= b
            b <<= 1
        masks = fin, ev
        _store_masks(s, masks)
        return masks

    def shapes(self) -> Iterator[tuple[int, int]]:
        """Every (finite mask, eventual mask) pair once: the 2^(|P|+|T|)
        flip-free sets.  No set predicate reads flip sets, so a statement
        about all sets of the space holds iff it holds on these pairs."""
        return itertools.product(range(self.all_points + 1), range(self.all_tails + 1))

    def points_mask(self, names: Iterable[str]) -> int:
        return sum(map(self.point_bit.__getitem__, names))

    def tails_mask(self, names: Iterable[str]) -> int:
        return sum(map(self.tail_bit.__getitem__, names))

    def names(self, mask: int) -> list[str]:
        return [x for x, b in self.point_bit.items() if mask & b]

    def tail_names(self, mask: int) -> list[str]:
        return [t for t, b in self.tail_bit.items() if mask & b]

    def open(self, fin: int, ev: int) -> bool:
        """Each member x holds minOpen(x) and is cofinite on every tail
        attaching into minOpen(x)."""
        up, cofinite = self.up, self.cofinite_tails
        rest = fin
        while rest:
            b = rest & -rest
            if up[b] & ~fin or cofinite[b] & ~ev:
                return False
            rest ^= b
        return True

    def seq_open(self, fin: int, ev: int) -> bool:
        """No convergence generator has a limit in the set without staying
        in it: no constant at a non-member converges into it, and no walk
        on a tail it is not cofinite on is captured by a member."""
        limits = self.const_limits
        rest = self.all_points & ~fin
        while rest:
            b = rest & -rest
            if limits[b] & fin:
                return False
            rest ^= b
        caps = self.capture_masks
        rest = self.all_tails & ~ev
        while rest:
            b = rest & -rest
            if caps[b] & fin:
                return False
            rest ^= b
        return True

    def compact(self, fin: int, ev: int) -> bool:
        """Capture characterization: each cofinite tail trace is captured by
        some finite member."""
        caps = self.capture_masks
        rest = ev
        while rest:
            b = rest & -rest
            if not caps[b] & fin:
                return False
            rest ^= b
        return True


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
    """Canonicalize a raw presentation, checking the preorder and attach
    laws.  An error names its field as the JSON form does (`minOpen/x`,
    `tails/t/attach`)."""
    uni = make_universe(points, tails)
    pts, tls = uni.points, uni.tails
    known = set(pts)
    attach = attach or {}
    # Each minimal open is built once, as a set for the checks and sorted
    # for the presentation.  A fault names the first offender in sorted
    # order, so the set tests run first and min() finds it only on a fault.
    ups: dict[str, set[str]] = {}
    rows: list[tuple[str, tuple[str, ...]]] = []
    for x in pts:
        if x not in min_open:
            raise PresentationError(f"missing minimal open set for point {x!r}", ("minOpen",))
        ux = ups[x] = set(min_open[x])
        rows.append((x, tuple(sorted(ux))))
        if not ux <= known:
            y = min(ux - known)
            raise PresentationError(f"minOpen({x!r}) mentions unknown point {y!r}", ("minOpen", x))
        if x not in ux:
            raise PresentationError(f"minOpen({x!r}) must contain {x!r}", ("minOpen", x))
    for x in min_open:
        if x not in known:
            raise PresentationError(f"minOpen defined for unknown point {x!r}", ("minOpen", x))
    for x, ux in ups.items():
        for y in ux:
            if not ups[y] <= ux:
                y = min(y for y in ux if not ups[y] <= ux)
                raise PresentationError(
                    f"minOpen not transitive: {y!r} in minOpen({x!r}) "
                    f"but minOpen({y!r}) is not contained in it",
                    ("minOpen", x),
                )
    at: list[tuple[str, tuple[str, ...]]] = []
    for t in tls:
        row = set(attach.get(t, ()))
        at.append((t, tuple(sorted(row))))
        if not row <= known:
            z = min(row - known)
            raise PresentationError(
                f"attach({t!r}) mentions unknown point {z!r}", ("tails", t, "attach")
            )
    for t in attach:
        if t not in tls:
            raise PresentationError(f"attach defined for unknown tail {t!r}", ("tails", t))
    return Space(pts, tuple(rows), tls, tuple(at))


def _derived_space(
    min_open: Mapping[str, Iterable[str]], attach: Mapping[str, Iterable[str]]
) -> Space:
    """The canonical Space of a presentation derived from validated spaces.

    Points are the keys of `min_open` and tails the keys of `attach`; names
    and rows are sorted as `validate_space` sorts them, but no law is
    checked.  Only derivations that keep the laws by construction (a
    subspace, adding or removing a closed point, and the disjoint union the
    tests build) may call it; input from outside the package goes through
    `validate_space`.
    """
    pts, tls = sorted(min_open), sorted(attach)
    return Space(
        tuple(pts),
        tuple((x, tuple(sorted(min_open[x]))) for x in pts),
        tuple(tls),
        tuple((t, tuple(sorted(attach[t]))) for t in tls),
    )


def _fresh(name: str, used: set[str]) -> str:
    """`name` with primes added until it is not in `used`; the result is
    added to `used`."""
    while name in used:
        name += "'"
    used.add(name)
    return name


# Name-level read-outs of a space, for tests and the benchmark; no decider
# calls them.  They are built here, on a miss, and not held by the compiled
# view: every space would otherwise carry a dozen more objects for the
# cyclic collector to walk.  Each entry keeps its Space alive, so the
# caches are bounded.
CACHE_SIZE = 256


@functools.lru_cache(maxsize=CACHE_SIZE)
def min_open_map(space: Space) -> Mapping[str, frozenset[str]]:
    return MappingProxyType({x: frozenset(u) for x, u in space.min_open})


@functools.lru_cache(maxsize=CACHE_SIZE)
def attach_map(space: Space) -> Mapping[str, frozenset[str]]:
    return MappingProxyType({t: frozenset(a) for t, a in space.attach})


@functools.lru_cache(maxsize=CACHE_SIZE)
def captures(space: Space, tail: str) -> frozenset[str]:
    """Finite points x whose every neighborhood swallows the tail cofinally,
    read out of `CompiledSpace.capture_masks`."""
    v = space.compiled
    return frozenset(v.names(v.capture_masks[v.tail_bit[tail]]))


def is_open(space: Space, s: EvSet) -> bool:
    v = space.compiled
    return v.open(*v.read(s))


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
    v = space.compiled
    return v.seq_open(*v.read(s))


def set_properties(space: Space, s: EvSet) -> SetProps:
    v = space.compiled
    fin, ev = v.read(s)
    cfin, cev = fin ^ v.all_points, ev ^ v.all_tails
    opn, sopn = v.open(fin, ev), v.seq_open(fin, ev)
    cls, scls = v.open(cfin, cev), v.seq_open(cfin, cev)
    compact = v.compact(fin, ev)
    return SetProps(opn, cls, sopn, scls, compact, cls and compact)


def space_report(space: Space) -> SpaceReport:
    v = space.compiled
    up = v.up
    # Limit sets of the convergence generators: constants at y converge to
    # {x : y in minOpen(x)}, escaping tail walks to captures(t).  A mask
    # m has at most one bit iff m & (m - 1) == 0.
    unique_const = all(not m & (m - 1) for m in v.const_limits.values())
    unique_walks = all(not m & (m - 1) for m in v.capture_masks.values())
    seq_h = unique_const and unique_walks
    # Pairwise disjoint minimal opens, and no tail captures two points.
    disjoint = sum(u.bit_count() for u in up.values()) == v.all_points.bit_count()
    # Cover route: the whole space is compact iff the full set is.
    compact = v.compact(v.all_points, v.all_tails)
    return SpaceReport(
        t0=len(set(up.values())) == len(up),
        t1=all(u == b for b, u in up.items()),
        seq_hausdorff=seq_h,
        s2=seq_h,
        hausdorff=disjoint and unique_walks,
        compact=compact,
        # Sequence route: every escaping walk must admit a convergent
        # subsequence, i.e. have a nonempty limit set.
        seq_compact=all(v.capture_masks.values()),
        countably_compact=compact,
        sequential=True,
    )


def subspace(space: Space, s: EvSet) -> Space:
    """The subspace presentation carried by an EvSet.

    Cofinite tail traces stay tails (their capture structure restricted to
    surviving points); finite tail traces become isolated finite points.
    """
    v = space.compiled
    fin, _ = v.read(s)
    mo = {x: v.names(v.up[v.point_bit[x]] & fin) for x in s.finite}
    attach = {t: v.names(v.capture_masks[v.tail_bit[t]] & fin) for t, ev, _ in s.rows if ev}
    used = set(mo) | set(attach)
    for t, ev, flips in s.rows:
        if not ev:
            # Off a finite trace the members are exactly the flips; a name
            # already taken gets primes.
            for m in flips:
                name = _fresh(f"{t}#{m}", used)
                mo[name] = [name]
    return _derived_space(mo, attach)


def open_basic_neighborhood(space: Space, x: str, k: int) -> EvSet:
    """N(U_x, k): the k-th basic neighborhood of a finite point."""
    v = space.compiled
    if x not in v.point_bit:
        raise PresentationError(f"unknown finite point {x!r}")
    if k < 0:
        raise PresentationError("neighborhood index must be a natural number")
    b, flips = v.point_bit[x], tuple(range(k))
    hit = v.cofinite_tails[b]
    rows = tuple((t, True, flips) if hit & tb else (t, False, ()) for t, tb in v.tail_bit.items())
    return EvSet(v.universe, tuple(v.names(v.up[b])), rows)
