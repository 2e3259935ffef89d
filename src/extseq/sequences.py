"""Finitely presented sequences, affine subsequence actions, and exact classification.

A sequence is a finite prefix followed by a round-robin of threads, each
thread either constant at a point or an affine walk out a tail.  Every
thread fires infinitely often, which is what makes the classifiers below
exact: convergence, properness and the no-convergent-subsequence predicate
are each determined by per-thread conditions.  Each condition reads a
thread by its head (`_head`): the point a constant sits at, or the tail a
walk walks.  `limit_set`, `classify`, `exteriority.is_exterior_seq` and the
map deciders name threads that way, and `compactify.wedge` asks the
subsequence rule (`_has_convergent_subseq`) of a tail alone.  Properness
and "no convergent subsequence" are one rule each (`_proper`,
`_no_conv_subseq`), read on one bit per thread: the bit of the tail a walk
walks, 0 for a constant.  `classify` reads a Seq's bits (`_tail_bits`), and
the suites' predicates read the bits of a sequence draw
(`generate._draw_seq`) or of a witness's Seq.

The monoid of monotone injections acts through its affine fragment
(n -> a*n + b, a >= 1); composing with an affine injection re-threads the
presentation along the residue cycle of the slope modulo the thread count.
One rule, `_thread_from`, re-indexes a thread for `subseq`, `interleave`
and `maps.map_seq`, and one kernel, `_subseq`, re-threads s o (n -> a*n
+ b) for `subseq` and for `seq_compose`, which interleaves only for two or
more index threads.  `make_seq`, `const_seq` and `walk_seq` validate what
enters from outside; a sequence derived from valid ones is built directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence as PySequence

from .core import FinitePoint, PointRef, TailPoint, Universe
from .errors import PresentationError, UniverseMismatch
from .spaces import CompiledSpace, Space


def _check_affine(a: int, b: int, path: tuple) -> None:
    """The law of a re-indexing n -> a*n + b, wherever one is presented:
    a >= 1 and b >= 0, each named under `path`."""
    if a < 1:
        raise PresentationError("a must be at least 1", path + ("a",))
    if b < 0:
        raise PresentationError("b must be at least 0", path + ("b",))


@dataclass(frozen=True, slots=True)
class Affine:
    """The monotone injection n -> a*n + b."""

    a: int
    b: int

    def __init__(self, a: int, b: int) -> None:
        _check_affine(a, b, ())
        _set_affine_a(self, a)
        _set_affine_b(self, b)

    def __call__(self, n: int) -> int:
        return self.a * n + self.b

    def then(self, inner: "Affine") -> "Affine":
        """self o inner: n -> self(inner(n))."""
        return Affine(self.a * inner.a, self.a * inner.b + self.b)


@dataclass(frozen=True, slots=True)
class ConstThread:
    point: PointRef

    def __init__(self, point: PointRef) -> None:
        _set_const_point(self, point)


@dataclass(frozen=True, slots=True)
class WalkThread:
    tail: str
    a: int = 1
    b: int = 0

    def __init__(self, tail: str, a: int = 1, b: int = 0) -> None:
        _set_walk_tail(self, tail)
        _set_walk_a(self, a)
        _set_walk_b(self, b)


Thread = ConstThread | WalkThread


@dataclass(frozen=True, slots=True)
class Seq:
    universe: Universe
    prefix: tuple[PointRef, ...]
    threads: tuple[Thread, ...]

    def __init__(
        self, universe: Universe, prefix: tuple[PointRef, ...], threads: tuple[Thread, ...]
    ) -> None:
        _set_seq_universe(self, universe)
        _set_seq_prefix(self, prefix)
        _set_seq_threads(self, threads)

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


# Each slot's own setter, as in `core`; only each class's `__init__`
# calls them.
_set_affine_a = Affine.a.__set__
_set_affine_b = Affine.b.__set__
_set_const_point = ConstThread.point.__set__
_set_walk_tail = WalkThread.tail.__set__
_set_walk_a = WalkThread.a.__set__
_set_walk_b = WalkThread.b.__set__
_set_seq_universe = Seq.universe.__set__
_set_seq_prefix = Seq.prefix.__set__
_set_seq_threads = Seq.threads.__set__

IDENTITY = Affine(1, 0)


def make_seq(universe: Universe, prefix: Iterable[PointRef], threads: Iterable[Thread]) -> Seq:
    """Validate a presentation; an error names its field as the JSON form
    does (`prefix/0`, `threads/1/walk/tail`)."""
    pre = tuple(prefix)
    ths = tuple(threads)
    if not ths:
        raise PresentationError("a sequence needs at least one thread")
    for i, p in enumerate(pre):
        universe.check_ref(p, ("prefix", i))
    for i, th in enumerate(ths):
        if isinstance(th, ConstThread):
            universe.check_ref(th.point, ("threads", i, "const"))
        elif isinstance(th, WalkThread):
            wpath = ("threads", i, "walk")
            if not universe.has_tail(th.tail):
                raise PresentationError(f"unknown tail {th.tail!r}", wpath + ("tail",))
            _check_affine(th.a, th.b, wpath)
        else:
            raise PresentationError(f"not a thread: {th!r}", ("threads", i))
    return Seq(universe, pre, ths)


def const_seq(universe: Universe, p: PointRef) -> Seq:
    return make_seq(universe, (), (ConstThread(p),))


def walk_seq(universe: Universe, tail: str, a: int = 1, b: int = 0) -> Seq:
    return make_seq(universe, (), (WalkThread(tail, a, b),))


def _thread_from(s: Seq, m: int, cycles: int) -> Thread:
    """The thread of s from position m past the prefix, stepped by whole
    cycles of s: a constant stays itself, and a walk keeps its tail,
    re-indexed to start at its value at m."""
    q, r = divmod(m, len(s.threads))
    th = s.threads[r]
    if isinstance(th, ConstThread):
        return th
    return WalkThread(th.tail, th.a * cycles, th.a * q + th.b)


def subseq(s: Seq, u: Affine) -> Seq:
    """The presentation of s o u, re-threaded along the residue cycle of u."""
    return Seq(s.universe, *_subseq(s, u.a, u.b))


def _subseq(s: Seq, a: int, b: int) -> tuple[tuple[PointRef, ...], tuple[Thread, ...]]:
    """The prefix and threads of s o (n -> a*n + b), a >= 1, b >= 0: a slice
    of s's prefix, then one thread per residue, from position m past it."""
    prefix = s.prefix[b::a]
    m = a * len(prefix) + b - len(s.prefix)
    big_t = len(s.threads)
    period = big_t // math.gcd(a, big_t)
    step = (a * period) // big_t
    return prefix, tuple([_thread_from(s, m + a * j, step) for j in range(period)])


def interleave(pieces: PySequence[Seq]) -> Seq:
    """The sequence hitting pieces[j] at positions j, j+k, j+2k, ... (k pieces)."""
    if not pieces:
        raise PresentationError("cannot interleave zero sequences")
    uni = pieces[0].universe
    for p in pieces:
        if p.universe is not uni and p.universe != uni:
            raise UniverseMismatch("interleaving sequences over different universes")
    k = len(pieces)
    l_star = max(len(p.prefix) for p in pieces)
    lam = math.lcm(*(len(p.threads) for p in pieces))
    prefix = tuple(pieces[n % k].at(n // k) for n in range(k * l_star))
    threads = tuple(
        _thread_from(p, l_star - len(p.prefix) + i, lam // len(p.threads))
        for i in range(lam)
        for p in pieces
    )
    return Seq(uni, prefix, threads)


def thread_selector(s: Seq, r: int) -> Affine:
    """The affine injection selecting thread r of s: n -> T*n + (|prefix| + r)."""
    return Affine(len(s.threads), len(s.prefix) + r)


def first_difference(a: Seq, b: Seq) -> int | None:
    """The least index where the presented functions differ, or None.

    Equal presentations (the same prefix and the same threads) are the
    same function, and answer None without reading a point.  Otherwise,
    beyond both prefixes the values on each residue class modulo the thread
    count lcm are affine (or constant) in the cycle index, so agreement on
    two full cycles decides equality everywhere.
    """
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatch("comparing sequences over different universes")
    if a.prefix == b.prefix and a.threads == b.threads:
        return None
    bound = max(len(a.prefix), len(b.prefix)) + 2 * math.lcm(len(a.threads), len(b.threads))
    for n in range(bound):
        if a.at(n) != b.at(n):
            return n
    return None


def seq_equal(a: Seq, b: Seq) -> bool:
    """Exact pointwise equality of the presented functions."""
    return first_difference(a, b) is None


@dataclass(frozen=True, slots=True)
class SeqClass:
    convergent: bool
    limit_set: frozenset[PointRef]
    proper: bool
    no_conv_subseq: bool


def _check_universe(universe: Universe, s: Seq) -> None:
    if s.universe is not universe and s.universe != universe:
        raise UniverseMismatch("sequence not over this space's universe")


def _head(th: Thread) -> PointRef | str:
    """The name of a thread for every per-thread rule: the point it is
    constant at, or the name of the tail it walks (its slope and offset
    change no limit, no exteriority and no subsequence)."""
    return th.point if isinstance(th, ConstThread) else th.tail


def _thread_limits(v: CompiledSpace, head: PointRef | str) -> int:
    """The finite limits of the thread of this head (`_head`), as a point
    mask of v.  A constant at finite y converges to {x : y in minOpen(x)};
    a walk out tail t to captures(t); a constant at a tail point to no
    finite point, its one limit being the point itself.
    """
    if type(head) is str:
        return v.capture_masks[v.tail_bit[head]]
    if isinstance(head, TailPoint):
        return 0
    return v.const_limits[v.point_bit[head.id]]


def _has_convergent_subseq(v: CompiledSpace, head: PointRef | str) -> bool:
    """Some subsequence of the thread of this head converges: a constant
    does, and a walk (whose subsequences walk the same tail) iff some point
    captures its tail."""
    return type(head) is not str or bool(v.capture_masks[v.tail_bit[head]])


def limit_set(space: Space, s: Seq) -> frozenset[PointRef]:
    """All limits of s: the intersection of the per-thread limit sets
    (`_thread_limits`).  A constant thread at a tail point p admits only p
    itself, and then only if every thread is constant at p.
    """
    _check_universe(space.universe, s)
    first = s.threads[0]
    if isinstance(first, ConstThread) and isinstance(first.point, TailPoint):
        if all(th == first for th in s.threads):
            return frozenset({first.point})
    v = space.compiled
    cand = v.all_points
    for th in s.threads:
        cand &= _thread_limits(v, _head(th))
        if not cand:
            return frozenset()
    return frozenset(FinitePoint(x) for x in v.names(cand))


def _tail_bits(v: CompiledSpace, s: Seq) -> tuple[int, ...]:
    """The thread bits of s, which `_proper` and `_no_conv_subseq` read:
    the bit of the tail a walk walks, 0 for a constant.  The universe is
    checked as `CompiledSpace.read` checks a set's."""
    _check_universe(v.universe, s)
    tb = v.tail_bit
    return tuple(tb[th.tail] if type(th) is WalkThread else 0 for th in s.threads)


def _proper(v: CompiledSpace, bits: tuple[int, ...]) -> bool:
    """Properness by the cocompact route, on thread bits (`_tail_bits`): a
    thread stays out of every closed compact set iff it walks an
    unattached tail."""
    free = v.unattached
    for b in bits:
        if not b & free:
            return False
    return True


def _no_conv_subseq(v: CompiledSpace, bits: tuple[int, ...]) -> bool:
    """No subsequence converges by the subsequence route, on thread bits
    (`_tail_bits`): one would iff some thread has a convergent subsequence
    once selected, as a constant has and a walk has iff some point
    captures its tail (`_has_convergent_subseq`)."""
    caps = v.capture_masks
    for b in bits:
        if not b or caps[b]:
            return False
    return True


def classify(space: Space, s: Seq) -> SeqClass:
    lim = limit_set(space, s)
    v = space.compiled
    # Each side is one rule on the thread bits, which the suites' predicates
    # also read.
    bits = _tail_bits(v, s)
    return SeqClass(bool(lim), lim, _proper(v, bits), _no_conv_subseq(v, bits))


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
        if _has_convergent_subseq(v, _head(th)):
            return IdealShape("partial", thread_selector(s, r), IDENTITY)
    raise AssertionError("unreachable: partial ideal without a convergent thread")


def seq_compose(s: Seq, u: Seq, special: Mapping[FinitePoint, PointRef] | None = None) -> Seq:
    """The composite n -> s(u(n)) for a sequence u of tail indices.

    Values of u must be tail points, read as argument indices into s, or
    finite points listed in `special`, each mapped straight to the given
    point (a compactification's added point).  A walk of u yields only tail
    points, so a tail point is refused as a key: no walk could honour it.
    A tail point is read by its index alone, so u's universe must have
    exactly one tail.
    """
    if len(u.universe.tails) != 1:
        raise PresentationError(f"index sequence over {len(u.universe.tails)} tails, not one")
    special = dict(special or {})
    for key in special:
        if not isinstance(key, FinitePoint):
            raise PresentationError(f"special key {key!r} is not a finite point")

    def resolve(p: PointRef) -> PointRef:
        if isinstance(p, TailPoint):
            return s.at(p.index)
        if p in special:
            return special[p]
        raise PresentationError(f"cannot read {p!r} as an argument index")

    prefix = tuple(map(resolve, u.prefix))
    if len(u.threads) > 1:  # one piece per index thread, interleaved
        glued = interleave([seq_compose(s, Seq(u.universe, (), (t,)), special) for t in u.threads])
        return Seq(s.universe, prefix + glued.prefix, glued.threads)
    (th,) = u.threads
    if isinstance(th, ConstThread):
        return Seq(s.universe, prefix, (ConstThread(resolve(th.point)),))
    pre, threads = _subseq(s, th.a, th.b)
    return Seq(s.universe, prefix + pre, threads)
