"""Finitely presented maps between tail spaces and their exact deciders.

A map sends each finite point to a point of the codomain and each tail to a
tail image: an affine re-indexing into a codomain tail, or a constant, in
both cases with finitely many exceptions.  Continuity is decided pointwise
(images of minimal opens land in minimal opens; captured tails map to
sequences converging to the image point); properness through the countable
cocompact base of the codomain; the sequential variants independently,
through preservation of the convergence and properness generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    EvSet,
    FinitePoint,
    PointRef,
    TailPoint,
    ev_complement,
    ev_set,
)
from .errors import PresentationError, UniverseMismatch
from .sequences import (
    ConstThread,
    Seq,
    WalkThread,
    classify,
    const_seq,
    limit_set,
    walk_seq,
)
from .spaces import Space, _is_compact, attach_map, captures, min_open_map


@dataclass(frozen=True, slots=True)
class TailToTail:
    tail: str
    a: int = 1
    b: int = 0
    exceptions: tuple[tuple[int, PointRef], ...] = ()


@dataclass(frozen=True, slots=True)
class TailToConst:
    point: PointRef
    exceptions: tuple[tuple[int, PointRef], ...] = ()


TailImage = TailToTail | TailToConst


@dataclass(frozen=True, slots=True)
class SpaceMap:
    dom: Space
    cod: Space
    on_points: tuple[tuple[str, PointRef], ...]
    on_tails: tuple[tuple[str, TailImage], ...]


@dataclass(frozen=True, slots=True)
class MapProps:
    continuous: bool
    proper: bool
    seq_continuous: bool
    seq_proper: bool


def make_map(
    dom: Space,
    cod: Space,
    on_points: Mapping[str, PointRef],
    on_tails: Mapping[str, TailImage],
) -> SpaceMap:
    """Validate and canonicalize (exceptions equal to the clean value are dropped)."""
    uni = cod.universe
    pts = []
    for x in dom.points:
        if x not in on_points:
            raise PresentationError(f"no image for point {x!r}")
        uni.check_ref(on_points[x])
        pts.append((x, on_points[x]))
    for x in on_points:
        if x not in dom.points:
            raise PresentationError(f"image given for unknown point {x!r}")
    tls = []
    for t in dom.tails:
        if t not in on_tails:
            raise PresentationError(f"no image for tail {t!r}")
        tls.append((t, _canonical_image(uni, t, on_tails[t])))
    for t in on_tails:
        if t not in dom.tails:
            raise PresentationError(f"image given for unknown tail {t!r}")
    return SpaceMap(dom, cod, tuple(pts), tuple(tls))


def _canonical_image(uni, t: str, img: TailImage) -> TailImage:
    if isinstance(img, TailToTail):
        if not uni.has_tail(img.tail):
            raise PresentationError(f"tail image of {t!r} targets unknown tail {img.tail!r}")
        if img.a < 1 or img.b < 0:
            raise PresentationError("tail re-indexing must satisfy a >= 1, b >= 0")
    elif isinstance(img, TailToConst):
        uni.check_ref(img.point)
    else:
        raise PresentationError(f"not a tail image: {img!r}")
    exc = []
    for m, p in img.exceptions:
        if m < 0:
            raise PresentationError("negative exception index")
        uni.check_ref(p)
        clean = (
            img.point
            if isinstance(img, TailToConst)
            else TailPoint(img.tail, img.a * m + img.b)
        )
        if p != clean:
            exc.append((m, p))
    exc_t = tuple(sorted(exc))
    if isinstance(img, TailToTail):
        return TailToTail(img.tail, img.a, img.b, exc_t)
    return TailToConst(img.point, exc_t)


def tail_image(f: SpaceMap, t: str) -> TailImage:
    for name, img in f.on_tails:
        if name == t:
            return img
    raise PresentationError(f"unknown tail {t!r}")


def point_image(f: SpaceMap, x: str) -> PointRef:
    for name, p in f.on_points:
        if name == x:
            return p
    raise PresentationError(f"unknown point {x!r}")


def apply_map(f: SpaceMap, p: PointRef) -> PointRef:
    f.dom.universe.check_ref(p)
    if isinstance(p, FinitePoint):
        return point_image(f, p.id)
    img = tail_image(f, p.tail)
    for m, q in img.exceptions:
        if m == p.index:
            return q
    if isinstance(img, TailToConst):
        return img.point
    return TailPoint(img.tail, img.a * p.index + img.b)


def identity_map(space: Space) -> SpaceMap:
    return make_map(
        space,
        space,
        {x: FinitePoint(x) for x in space.points},
        {t: TailToTail(t, 1, 0) for t in space.tails},
    )


def compose_maps(f: SpaceMap, g: SpaceMap) -> SpaceMap:
    """Apply f, then g."""
    if f.cod != g.dom:
        raise UniverseMismatch("composition needs cod(f) = dom(g)")
    on_points = {x: apply_map(g, p) for x, p in f.on_points}
    on_tails: dict[str, TailImage] = {}
    for t, img in f.on_tails:
        exc: dict[int, PointRef] = {m: apply_map(g, p) for m, p in img.exceptions}
        if isinstance(img, TailToConst):
            on_tails[t] = TailToConst(apply_map(g, img.point), tuple(exc.items()))
            continue
        gimg = tail_image(g, img.tail)
        for m2, p2 in gimg.exceptions:
            if m2 >= img.b and (m2 - img.b) % img.a == 0:
                m = (m2 - img.b) // img.a
                exc.setdefault(m, p2)
        if isinstance(gimg, TailToConst):
            on_tails[t] = TailToConst(gimg.point, tuple(exc.items()))
        else:
            on_tails[t] = TailToTail(
                gimg.tail, gimg.a * img.a, gimg.a * img.b + gimg.b, tuple(exc.items())
            )
    return make_map(f.dom, g.cod, on_points, on_tails)


def preimage(f: SpaceMap, s: EvSet) -> EvSet:
    """Exact preimage of an EvSet of the codomain, built in canonical form.

    A re-indexed tail pulls back the eventual flag of its target and the
    flips m with a*m + b a flip there; a constant tail pulls back the
    membership of its point, with no flips.  Exceptions then override their
    own indices.
    """
    uni = f.cod.universe
    if s.universe is not uni and s.universe != uni:
        raise UniverseMismatch("set not over the codomain universe")
    members = set(s.finite)
    rows = {t: (ev, fl) for t, ev, fl in s.rows}

    def holds(p: PointRef) -> bool:
        uni.check_ref(p)
        if isinstance(p, FinitePoint):
            return p.id in members
        ev, fl = rows[p.tail]
        return ev != (p.index in fl)

    fin = tuple(sorted(x for x, p in f.on_points if holds(p)))
    out = []
    for t, img in f.on_tails:
        if isinstance(img, TailToConst):
            base = holds(img.point)
            fl: set[int] = set()
        else:
            if img.tail not in rows:
                raise PresentationError(f"unknown tail {img.tail!r}")
            base, target = rows[img.tail]
            a, b = img.a, img.b
            fl = {(phi - b) // a for phi in target if phi >= b and (phi - b) % a == 0}
        for m, p in img.exceptions:
            if holds(p) != base:
                fl.add(m)
            else:
                fl.discard(m)
        flips = tuple(sorted(fl))
        if flips and flips[0] < 0:
            raise PresentationError(f"negative flip index on tail {t!r}")
        out.append((t, base, flips))
    return EvSet(f.dom.universe, fin, tuple(out))


def map_seq(f: SpaceMap, s: Seq) -> Seq:
    """The composite sequence; tail-image exceptions are absorbed into the prefix."""
    if s.universe != f.dom.universe:
        raise UniverseMismatch("sequence not over the domain universe")
    big_l, big_t = len(s.prefix), len(s.threads)
    cut = big_l
    for r, th in enumerate(s.threads):
        if isinstance(th, WalkThread):
            img = tail_image(f, th.tail)
            for m, _ in img.exceptions:
                if m >= th.b and (m - th.b) % th.a == 0:
                    q = (m - th.b) // th.a
                    cut = max(cut, big_l + q * big_t + r + 1)
    prefix = tuple(apply_map(f, s.at(n)) for n in range(cut))
    threads = []
    for j in range(big_t):
        pos = cut - big_l + j
        th = s.threads[pos % big_t]
        q0 = pos // big_t
        if isinstance(th, ConstThread):
            threads.append(ConstThread(apply_map(f, th.point)))
            continue
        img = tail_image(f, th.tail)
        if isinstance(img, TailToConst):
            threads.append(ConstThread(img.point))
        else:
            threads.append(
                WalkThread(img.tail, img.a * th.a, img.a * (th.a * q0 + th.b) + img.b)
            )
    return Seq(f.cod.universe, prefix, tuple(threads))


def _in_every_neighborhood(y_space: Space, q: PointRef, target: PointRef) -> bool:
    if isinstance(target, TailPoint):
        return q == target
    return isinstance(q, FinitePoint) and q.id in min_open_map(y_space)[target.id]


def _tail_image_converges_to(f: SpaceMap, t: str, target: PointRef) -> bool:
    img = tail_image(f, t)
    if isinstance(img, TailToConst):
        return _in_every_neighborhood(f.cod, img.point, target)
    if isinstance(target, TailPoint):
        return False
    return bool(attach_map(f.cod)[img.tail] & min_open_map(f.cod)[target.id])


def is_continuous(f: SpaceMap) -> bool:
    x_space = f.dom
    mo = min_open_map(x_space)
    at = attach_map(x_space)
    for x in x_space.points:
        fx = point_image(f, x)
        for y in mo[x]:
            if not _in_every_neighborhood(f.cod, point_image(f, y), fx):
                return False
        for t in x_space.tails:
            if at[t] & mo[x] and not _tail_image_converges_to(f, t, fx):
                return False
    return True


def _presentation_index_bound(f: SpaceMap) -> int:
    """A bound past which the codomain cocompact base pulls back stably."""
    bound = 0
    for _, p in f.on_points:
        if isinstance(p, TailPoint):
            bound = max(bound, p.index)
    for _, img in f.on_tails:
        for _, p in img.exceptions:
            if isinstance(p, TailPoint):
                bound = max(bound, p.index)
        if isinstance(img, TailToConst) and isinstance(img.point, TailPoint):
            bound = max(bound, img.point.index)
        if isinstance(img, TailToTail):
            bound = max(bound, img.b)
    return bound


def is_proper(f: SpaceMap) -> bool:
    """Continuous with cocompact preimages, decided along the countable base.

    Base member k of the codomain holds the points (t, m), m >= k, of the
    unattached tails.  Preimage complements grow with k but stabilize past
    every index mentioned in the presentation: beyond the bound they change
    by finite sets only, and a closed subset of a compact set is compact, so
    checking k up to the bound is exact.
    """
    if not is_continuous(f):
        return False
    y_space = f.cod
    base_tails = [t for t in y_space.tails if not attach_map(y_space)[t]]
    for k in range(_presentation_index_bound(f) + 2):
        member = ev_set(
            y_space.universe,
            (),
            eventual={t: True for t in base_tails},
            flips={t: range(k) for t in base_tails},
        )
        if not _is_compact(f.dom, ev_complement(preimage(f, member))):
            return False
    return True


def is_seq_continuous(f: SpaceMap) -> bool:
    """Preservation of the convergence generators, with their limits.

    Exactness: a convergent sequence with limit x has every thread
    individually converging to x, and thread images depend only on the
    generator data checked here.
    """
    x_space, y_space = f.dom, f.cod
    mo = min_open_map(x_space)
    for x in x_space.points:
        fx = point_image(f, x)
        for y in x_space.points:
            if y in mo[x]:
                img = map_seq(f, const_seq(x_space.universe, FinitePoint(y)))
                if fx not in limit_set(y_space, img):
                    return False
        for t in x_space.tails:
            if x in captures(x_space, t):
                img = map_seq(f, walk_seq(x_space.universe, t))
                if fx not in limit_set(y_space, img):
                    return False
    return True


def preserves_proper_seqs(f: SpaceMap) -> bool:
    for t in f.dom.tails:
        if not attach_map(f.dom)[t]:
            img = map_seq(f, walk_seq(f.dom.universe, t))
            if not classify(f.cod, img).proper:
                return False
    return True


def map_properties(f: SpaceMap) -> MapProps:
    cont = is_continuous(f)
    seq_cont = is_seq_continuous(f)
    return MapProps(
        continuous=cont,
        proper=cont and is_proper(f),
        seq_continuous=seq_cont,
        seq_proper=seq_cont and preserves_proper_seqs(f),
    )
