"""Finitely presented maps between tail spaces and their exact deciders.

A map sends each finite point to a point of the codomain and each tail to a
tail image: an affine re-indexing into a codomain tail, or a constant, in
both cases with finitely many exceptions.  Continuity is decided pointwise
(images of minimal opens land in minimal opens; captured tails map to
sequences converging to the image point); the sequential variants
independently, through preservation of the convergence generators.

Exterior maps pull the codomain filter back into the domain filter, and
exterior-sequential maps send exterior sequences to exterior sequences.  A
proper map is an exterior map between the cocompact externologies, and a
sequentially proper map an exterior-sequential one, so `map_properties`
decides both through the same two checks.  One base member of the codomain
filter decides the pullback: see `_pulls_back_filter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import EvSet, FinitePoint, PointRef, TailPoint
from .errors import PresentationError, UniverseMismatch
from .exteriority import (
    ExtSpace,
    _base,
    _exterior_seq,
    cocompact_ext_space,
    coreflect,
    is_e_open,
)
from .sequences import ConstThread, Seq, WalkThread, const_seq, limit_set, walk_seq
from .spaces import CompiledSpace, Space


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


def _in_every_neighborhood(v: CompiledSpace, q: PointRef, target: PointRef) -> bool:
    if isinstance(target, TailPoint):
        return q == target
    return isinstance(q, FinitePoint) and bool(v.up[v.point_bit[target.id]] & v.point_bit[q.id])


def _tail_image_converges_to(f: SpaceMap, t: str, target: PointRef) -> bool:
    img = tail_image(f, t)
    v = f.cod.compiled
    if isinstance(img, TailToConst):
        return _in_every_neighborhood(v, img.point, target)
    if isinstance(target, TailPoint):
        return False
    return bool(v.capture_masks[v.tail_bit[img.tail]] & v.point_bit[target.id])


def is_continuous(f: SpaceMap) -> bool:
    dv, cv = f.dom.compiled, f.cod.compiled
    images = dict(f.on_points)
    for x, fx in f.on_points:
        b = dv.point_bit[x]
        for y in dv.names(dv.up[b]):
            if not _in_every_neighborhood(cv, images[y], fx):
                return False
        for t in dv.tail_names(dv.cofinite_tails[b]):
            if not _tail_image_converges_to(f, t, fx):
                return False
    return True


def _presentation_index_bound(f: SpaceMap) -> int:
    """The largest tail index named by a point image or by a constant tail
    image on a tail point (0 if none)."""
    bound = 0
    for _, p in f.on_points:
        if isinstance(p, TailPoint):
            bound = max(bound, p.index)
    for _, img in f.on_tails:
        if isinstance(img, TailToConst) and isinstance(img.point, TailPoint):
            bound = max(bound, img.point.index)
    return bound


def _pulls_back_filter(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """For continuous f: the preimage of every codomain filter member is a
    domain filter member.

    One base member decides, at k = bound + 1.  Every member contains some
    E*_k, its preimage is open because f is continuous, and a filter is
    closed upwards, so it suffices that every f⁻¹(E*_k) is a member.  The
    base decreases in k, and E*_k is open on a canonical externology, so a
    member at one k makes every smaller k a member too.  Past the bound,
    f⁻¹(E*_k) keeps its finite part and its eventual flags: a point image
    or constant tail image on a tail point names an index at most the
    bound, a re-indexed tail lands eventually in E*_k iff its target tail
    is in D, and exceptions and offsets move only flips, which no set
    predicate reads.  So every k past the bound gets the verdict of
    k = bound + 1; at k = bound a tail point named by the bound would still
    be in E*_k.
    """
    k = _presentation_index_bound(f) + 1
    return is_e_open(e_dom, preimage(f, _base(e_cod, k)))


def _check_typed(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> None:
    if f.dom != e_dom.space or f.cod != e_cod.space:
        raise UniverseMismatch("map not typed between these exterior spaces")


def is_exterior_map(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Continuous, and pulls every member of the codomain filter back into
    the domain filter.  Either pair may be raw: e-openness already answers
    for the filter a pair presents, and the codomain base is read off the
    canonical pair (`coreflect`)."""
    _check_typed(f, e_dom, e_cod)
    return is_continuous(f) and _pulls_back_filter(f, e_dom, coreflect(e_cod))


def is_proper(f: SpaceMap) -> bool:
    """Continuous, and the preimage of every closed compact set is compact:
    an exterior map between the cocompact externologies, whose members are
    the open sets with closed compact complement."""
    return is_exterior_map(f, cocompact_ext_space(f.dom), cocompact_ext_space(f.cod))


def is_seq_continuous(f: SpaceMap) -> bool:
    """Preservation of the convergence generators, with their limits.

    Exactness: a convergent sequence with limit x has every thread
    individually converging to x, and thread images depend only on the
    generator data checked here.
    """
    dv, uni = f.dom.compiled, f.dom.universe
    for x, fx in f.on_points:
        b = dv.point_bit[x]
        for y in dv.names(dv.up[b]):
            img = map_seq(f, const_seq(uni, FinitePoint(y)))
            if fx not in limit_set(f.cod, img):
                return False
        for t in dv.tail_names(dv.cofinite_tails[b]):
            img = map_seq(f, walk_seq(uni, t))
            if fx not in limit_set(f.cod, img):
                return False
    return True


def _preserves_exterior_seqs(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Exterior sequences are mixtures of constants at limit points and walks
    on filter tails, and thread images depend only on these generators.
    Both pairs must be canonical."""
    uni = f.dom.universe
    for x in e_dom.ext.limits:
        if not _exterior_seq(e_cod.ext, map_seq(f, const_seq(uni, FinitePoint(x)))):
            return False
    for t in e_dom.ext.tails:
        if not _exterior_seq(e_cod.ext, map_seq(f, walk_seq(uni, t))):
            return False
    return True


def is_e_sequential_map(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Sequentially continuous and preserving exterior sequences: the
    sequence route, independent of the filter-pullback route.  The
    generators are read off the canonical pairs, so raw pairs get the
    verdict of the filters they present."""
    _check_typed(f, e_dom, e_cod)
    return is_seq_continuous(f) and _preserves_exterior_seqs(
        f, coreflect(e_dom), coreflect(e_cod)
    )


def map_properties(f: SpaceMap) -> MapProps:
    """Proper and sequentially proper are the exterior notions at the
    cocompact externologies: proper sequences are the walk mixtures on
    unattached tails, the exterior sequences of the cocompact filter."""
    cont = is_continuous(f)
    seq_cont = is_seq_continuous(f)
    e_dom, e_cod = cocompact_ext_space(f.dom), cocompact_ext_space(f.cod)
    return MapProps(
        continuous=cont,
        proper=cont and _pulls_back_filter(f, e_dom, e_cod),
        seq_continuous=seq_cont,
        seq_proper=seq_cont and _preserves_exterior_seqs(f, e_dom, e_cod),
    )
