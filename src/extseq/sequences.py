"""Finitely presented sequences, affine subsequence actions, and exact classification.

A sequence is a finite prefix followed by a round-robin of threads, each
thread either constant at a point or an affine walk out a tail.  Every
thread fires infinitely often, which is what makes the classifiers below
exact: convergence, properness and the no-convergent-subsequence predicate
are each determined by per-thread conditions.

The monoid of monotone injections acts through its affine fragment
(n -> a*n + b, a >= 1); composing with an affine injection re-threads the
presentation along the residue cycle of the slope modulo the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence as PySequence

from .core import EvSet, FinitePoint, PointRef, TailPoint, Universe
from .errors import PresentationError, UniverseMismatch
from .spaces import CompiledSpace, Space


@dataclass(frozen=True, slots=True)
class Affine:
    """The monotone injection n -> a*n + b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 0:
            raise PresentationError(f"not monotone injective: n -> {self.a}*n+{self.b}")

    def __call__(self, n: int) -> int:
        return self.a * n + self.b

    def then(self, inner: "Affine") -> "Affine":
        """self o inner: n -> self(inner(n))."""
        return Affine(self.a * inner.a, self.a * inner.b + self.b)


IDENTITY = Affine(1, 0)


@dataclass(frozen=True, slots=True)
class ConstThread:
    point: PointRef


@dataclass(frozen=True, slots=True)
class WalkThread:
    tail: str
    a: int = 1
    b: int = 0


Thread = ConstThread | WalkThread


@dataclass(frozen=True, slots=True)
class Seq:
    universe: Universe
    prefix: tuple[PointRef, ...]
    threads: tuple[Thread, ...]

    def at(self, n: int) -> PointRef:
        if n < 0:
            raise PresentationError("negative sequence index")
        if n < len(self.prefix):
            return self.prefix[n]
        q, r = divmod(n - len(self.prefix), len(self.threads))
        th = self.threads[r]
        if isinstance(th, ConstThread):
            return th.point
        return TailPoint(th.tail, th.a * q + th.b)

    def values(self, upto: int) -> list[PointRef]:
        return [self.at(n) for n in range(upto)]


def make_seq(
    universe: Universe,
    prefix: Iterable[PointRef] = (),
    threads: Iterable[Thread] = (),
) -> Seq:
    pre = tuple(prefix)
    ths = tuple(threads)
    if not ths:
        raise PresentationError("a sequence needs at least one thread")
    for p in pre:
        universe.check_ref(p)
    for th in ths:
        if isinstance(th, ConstThread):
            universe.check_ref(th.point)
        elif isinstance(th, WalkThread):
            if not universe.has_tail(th.tail):
                raise PresentationError(f"unknown tail {th.tail!r}")
            if th.a < 1 or th.b < 0:
                raise PresentationError("walk parameters must satisfy a >= 1, b >= 0")
        else:
            raise PresentationError(f"not a thread: {th!r}")
    return Seq(universe, pre, ths)


def const_seq(universe: Universe, p: PointRef) -> Seq:
    return make_seq(universe, (), (ConstThread(p),))


def walk_seq(universe: Universe, tail: str, a: int = 1, b: int = 0) -> Seq:
    return make_seq(universe, (), (WalkThread(tail, a, b),))


def prepend(values: Iterable[PointRef], s: Seq) -> Seq:
    vals = tuple(values)
    for p in vals:
        s.universe.check_ref(p)
    return Seq(s.universe, vals + s.prefix, s.threads)


def subseq(s: Seq, u: Affine) -> Seq:
    """The presentation of s o u, re-threaded along the residue cycle of u."""
    big_l, big_t = len(s.prefix), len(s.threads)
    a, b = u.a, u.b
    n0 = 0 if b >= big_l else -((b - big_l) // a)
    prefix = tuple(s.at(u(n)) for n in range(n0))
    period = big_t // math.gcd(a, big_t)
    threads: list[Thread] = []
    for j in range(period):
        m0 = a * (n0 + j) + b - big_l
        r = m0 % big_t
        q0 = m0 // big_t
        step = (a * period) // big_t
        th = s.threads[r]
        if isinstance(th, ConstThread):
            threads.append(th)
        else:
            threads.append(WalkThread(th.tail, th.a * step, th.a * q0 + th.b))
    return Seq(s.universe, prefix, tuple(threads))


def interleave(pieces: PySequence[Seq]) -> Seq:
    """The sequence hitting pieces[j] at positions j, j+k, j+2k, ... (k pieces)."""
    if not pieces:
        raise PresentationError("cannot interleave zero sequences")
    uni = pieces[0].universe
    for p in pieces:
        if p.universe != uni:
            raise UniverseMismatch("interleaving sequences over different universes")
    k = len(pieces)
    if k == 1:
        return pieces[0]
    l_star = max(len(p.prefix) for p in pieces)
    lam = math.lcm(*(len(p.threads) for p in pieces))
    prefix = tuple(pieces[n % k].at(n // k) for n in range(k * l_star))
    threads: list[Thread] = []
    for slot in range(k * lam):
        j, iota = slot % k, slot // k
        piece = pieces[j]
        t_j = len(piece.threads)
        m0 = l_star - len(piece.prefix) + iota
        th = piece.threads[m0 % t_j]
        if isinstance(th, ConstThread):
            threads.append(th)
        else:
            q0 = m0 // t_j
            threads.append(WalkThread(th.tail, th.a * (lam // t_j), th.a * q0 + th.b))
    return Seq(uni, prefix, tuple(threads))


def thread_selector(s: Seq, r: int) -> Affine:
    """The affine injection selecting thread r of s: n -> T*n + (|prefix| + r)."""
    return Affine(len(s.threads), len(s.prefix) + r)


def seq_equal(a: Seq, b: Seq) -> bool:
    """Exact pointwise equality of the presented functions.

    Beyond both prefixes the values on each residue class modulo the thread
    count lcm are affine (or constant) in the cycle index, so agreement on
    two full cycles decides equality everywhere.
    """
    if a.universe != b.universe:
        raise UniverseMismatch("comparing sequences over different universes")
    bound = max(len(a.prefix), len(b.prefix)) + 2 * math.lcm(len(a.threads), len(b.threads))
    return all(a.at(n) == b.at(n) for n in range(bound))


@dataclass(frozen=True, slots=True)
class SeqClass:
    convergent: bool
    limit_set: frozenset[PointRef]
    proper: bool
    no_conv_subseq: bool


def _check_universe(space: Space, s: Seq) -> None:
    if s.universe != space.universe:
        raise UniverseMismatch("sequence not over this space's universe")


def limit_set(space: Space, s: Seq) -> frozenset[PointRef]:
    """All limits of s: the intersection of the per-thread limit sets.

    A constant thread at finite y admits the limits {x : y in minOpen(x)};
    a walk out tail t admits captures(t); a constant thread at a tail point
    p admits only p itself, and then only if every thread is constant at p.
    """
    _check_universe(space, s)
    first = s.threads[0]
    if isinstance(first, ConstThread) and isinstance(first.point, TailPoint):
        if all(th == first for th in s.threads):
            return frozenset({first.point})
    v = space.compiled
    cand = v.all_points
    for th in s.threads:
        if isinstance(th, ConstThread):
            if isinstance(th.point, TailPoint):
                return frozenset()
            cand &= v.const_limits[v.point_bit[th.point.id]]
        else:
            cand &= v.capture_masks[v.tail_bit[th.tail]]
        if not cand:
            return frozenset()
    return frozenset(FinitePoint(x) for x in v.names(cand))


def classify(space: Space, s: Seq) -> SeqClass:
    _check_universe(space, s)
    lim = limit_set(space, s)
    v = space.compiled
    # Properness goes through the cocompact route: a thread stays out of
    # every closed compact set iff it walks an unattached tail.
    proper = all(
        isinstance(th, WalkThread) and v.unattached & v.tail_bit[th.tail] for th in s.threads
    )
    # The subsequence route: a convergent subsequence exists iff some thread
    # is individually convergent once selected.
    no_conv = not any(_thread_selectable_convergent(v, th) for th in s.threads)
    return SeqClass(bool(lim), lim, proper, no_conv)


def _thread_selectable_convergent(v: CompiledSpace, th: Thread) -> bool:
    if isinstance(th, ConstThread):
        return True
    return bool(v.capture_masks[v.tail_bit[th.tail]])


@dataclass(frozen=True, slots=True)
class IdealShape:
    kind: str  # "empty" | "full" | "partial"
    witness: Affine | None = None
    non_witness: Affine | None = None


def convergence_ideal(space: Space, s: Seq) -> IdealShape:
    """Shape of {u affine : s o u convergent}: everything, nothing, or a
    proper nonempty part with an explicit witness and non-witness."""
    cls = classify(space, s)
    if cls.convergent:
        return IdealShape("full")
    if cls.no_conv_subseq:
        return IdealShape("empty")
    v = space.compiled
    for r, th in enumerate(s.threads):
        if _thread_selectable_convergent(v, th):
            return IdealShape("partial", thread_selector(s, r), IDENTITY)
    raise AssertionError("unreachable: partial ideal without a convergent thread")


def seq_compose(s: Seq, u: Seq, special: Mapping[PointRef, PointRef] | None = None) -> Seq:
    """The composite n -> s(u(n)) for a sequence u of tail indices.

    Values of u must be tail points, read as argument indices into s; any
    value listed in `special` is mapped straight to the given point instead
    (used for composites through a compactification's added point).
    """
    special = dict(special or {})

    def resolve(p: PointRef) -> PointRef:
        if p in special:
            return special[p]
        if isinstance(p, TailPoint):
            return s.at(p.index)
        raise PresentationError(f"cannot read {p!r} as an argument index")

    prefix = [resolve(u.at(n)) for n in range(len(u.prefix))]
    pieces: list[Seq] = []
    for th in u.threads:
        if isinstance(th, ConstThread):
            pieces.append(const_seq(s.universe, resolve(th.point)))
        else:
            pieces.append(subseq(s, Affine(th.a, th.b)))
    return prepend(prefix, interleave(pieces))


def eventually_in(s: Seq, target: EvSet) -> bool:
    """True iff s(n) is in target for all but finitely many n (exact)."""
    if s.universe != target.universe:
        raise UniverseMismatch("sequence and set over different universes")
    for th in s.threads:
        if isinstance(th, ConstThread):
            if not target.member(th.point):
                return False
        else:
            if not target.is_cofinite_on(th.tail):
                return False
            # A walk leaves the cofinite trace only at flipped indices, of
            # which it hits finitely many.
    return True
