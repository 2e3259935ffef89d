"""Finitely presented maps between tail spaces and their exact deciders.

A map sends each finite point to a point of the codomain and each tail to a
tail image: an affine re-indexing into a codomain tail, or a constant, in
both cases with finitely many exceptions.  Both continuity deciders read
one list per point x (`_converging`): the images of the generators
converging to x, the constants at minOpen(x) and the walks x captures,
each one thread named by its head in one per-map table (`_heads`).  The
generators themselves depend on the domain alone, so its view holds them
(`CompiledSpace.converging`, derived by `_generators`).
Continuity asks that each image lies in every neighborhood of f(x) (the
table `up`); sequential continuity that its limits, read through the
per-thread rule of `limit_set` (`_thread_limits`, the table
`const_limits`), hold f(x).  So the statements comparing the two compare
two derivations of a finite head.  Exceptions only build a prefix, which
no limit or exteriority decider reads, so no sequence is built (`map_seq`
stays for `sheaves` and outside input).

Exterior maps pull the codomain filter back into the domain filter, and
exterior-sequential maps send exterior sequences to exterior sequences.  A
proper map is an exterior map between the cocompact externologies, and a
sequentially proper map an exterior-sequential one, so `map_properties`
decides both through the same two checks, and `is_seq_proper` the second
alone.  Both read each pair as masks, a cocompact one as (0, unattached)
(`_cocompact_masks`), and one base member of the codomain filter decides
the pullback, on its preimage's flags alone: see `_pulls_back_filter`.

`make_map` validates a map from outside; a generated map and a composite
go through `_derived_map`, which canonicalizes alike and checks nothing,
and a based extension (`compactify.plus_map`) reuses the canonical images
of the map it extends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import EvSet, FinitePoint, PointRef, TailPoint
from .errors import PresentationError, UniverseMismatch
from .exteriority import ExtSpace, _canonical_masks, _e_open, _exterior_head, _pair_masks
from .sequences import ConstThread, Seq, WalkThread, _check_affine, _thread_from, _thread_limits
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
    """Validate and canonicalize: exceptions equal to the clean value are
    dropped, and an exception index given twice is refused.  An error names
    its field as the JSON form does (`onPoints/x`, `onTails/t/toTail/tail`);
    an image for no domain point or tail is named before a missing one."""
    uni = cod.universe
    for x in on_points:
        if x not in dom.points:
            raise PresentationError(f"image given for unknown point {x!r}", ("onPoints", x))
    for x in dom.points:
        if x not in on_points:
            raise PresentationError(f"no image for point {x!r}", ("onPoints",))
        uni.check_ref(on_points[x], ("onPoints", x))
    for t in on_tails:
        if t not in dom.tails:
            raise PresentationError(f"image given for unknown tail {t!r}", ("onTails", t))
    for t in dom.tails:
        if t not in on_tails:
            raise PresentationError(f"no image for tail {t!r}", ("onTails",))
        _check_image(uni, t, on_tails[t])
    return _derived_map(dom, cod, on_points, on_tails)


def _derived_map(
    dom: Space,
    cod: Space,
    on_points: Mapping[str, PointRef],
    on_tails: Mapping[str, TailImage],
) -> SpaceMap:
    """The canonical SpaceMap of images derived from validated spaces: the
    map counterpart of `spaces._derived_space`.

    Images are listed in domain order and canonicalized as `make_map` does,
    but no ref is checked.  Only derivations whose images come from the
    codomain by construction (a generated map; a composite, whose images
    `apply_map` reads in g) may call it; input from outside the package
    goes through `make_map`.
    """
    return SpaceMap(
        dom,
        cod,
        tuple((x, on_points[x]) for x in dom.points),
        tuple((t, _canonical_image(on_tails[t])) for t in dom.tails),
    )


def _check_image(uni, t: str, img: TailImage) -> None:
    path = ("onTails", t)
    if isinstance(img, TailToTail):
        if not uni.has_tail(img.tail):
            raise PresentationError(
                f"tail image of {t!r} targets unknown tail {img.tail!r}",
                path + ("toTail", "tail"),
            )
        _check_affine(img.a, img.b, path + ("toTail",))
    elif isinstance(img, TailToConst):
        uni.check_ref(img.point, path + ("toConst",))
    else:
        raise PresentationError(f"not a tail image: {img!r}", path)
    seen = set()
    for m, p in img.exceptions:
        epath = path + ("exceptions", m)
        if m < 0:
            raise PresentationError("negative exception index", epath)
        if m in seen:
            raise PresentationError(f"repeated exception index {m} on tail {t!r}", epath)
        seen.add(m)
        uni.check_ref(p, epath)


def _canonical_image(img: TailImage) -> TailImage:
    """Exceptions equal to the clean value dropped, the rest sorted by index."""
    if not img.exceptions:
        return img
    if isinstance(img, TailToConst):
        exc = tuple(sorted((m, p) for m, p in img.exceptions if p != img.point))
        return TailToConst(img.point, exc)
    a, b = img.a, img.b
    exc = tuple(
        sorted((m, p) for m, p in img.exceptions if p != TailPoint(img.tail, a * m + b))
    )
    return TailToTail(img.tail, a, b, exc)


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
    return _derived_map(f.dom, g.cod, on_points, on_tails)


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
        out.append((t, base, tuple(sorted(fl))))
    return EvSet(f.dom.universe, fin, tuple(out))


def map_seq(f: SpaceMap, s: Seq) -> Seq:
    """The composite sequence: tail-image exceptions are absorbed into the
    prefix, and each thread past it is `_thread_from`'s with its image on."""
    if s.universe is not f.dom.universe and s.universe != f.dom.universe:
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
        th = _thread_from(s, cut - big_l + j, 1)
        if isinstance(th, ConstThread):
            threads.append(ConstThread(apply_map(f, th.point)))
            continue
        img = tail_image(f, th.tail)
        if isinstance(img, TailToConst):
            threads.append(ConstThread(img.point))
        else:
            threads.append(WalkThread(img.tail, img.a * th.a, img.a * th.b + img.b))
    return Seq(f.cod.universe, prefix, tuple(threads))


def _heads(f: SpaceMap) -> dict[str, PointRef | str]:
    """The per-map table of generator images: each domain generator, named
    by its point or tail (a universe keeps the two apart), to the head of
    its image: the point image, the point of a constant tail image, or the
    tail a re-indexed one walks."""
    heads = dict(f.on_points)
    for t, img in f.on_tails:
        heads[t] = img.point if isinstance(img, TailToConst) else img.tail
    return heads


def _converging(dv: CompiledSpace, heads: Mapping[str, PointRef | str], b: int) -> list:
    """The heads of the images of the generators converging to the domain
    point of bit b: the constants at minOpen(x) and the walks x captures,
    named in the domain's table (`_generators`)."""
    table = dv.converging
    if table is None:
        table = _generators(dv)
    return [heads[g] for g in table[b]]


def _generators(dv: CompiledSpace) -> dict[int, tuple[str, ...]]:
    """Each point's converging generators by point bit: the points of
    minOpen(x), then the tails x captures.  The table depends on the space
    alone, so it is derived once and held on its view
    (`CompiledSpace.converging`)."""
    dv.converging = {
        b: (*dv.names(u), *dv.tail_names(dv.cofinite_tails[b])) for b, u in dv.up.items()
    }
    return dv.converging


def _preserves_limits(
    f: SpaceMap, converges: Callable[[CompiledSpace, PointRef | str, int], int]
) -> bool:
    """Every generator converging to x has an image converging to f(x):
    exact, as every thread of a convergent sequence converges to its limit.
    A tail point is the limit only of the constant at it; for a finite f(x)
    of bit fb, `converges(cv, head, fb)` decides one image."""
    dv, cv, heads = f.dom.compiled, f.cod.compiled, _heads(f)
    for x, fx in f.on_points:
        gens = _converging(dv, heads, dv.point_bit[x])
        if isinstance(fx, TailPoint):
            if any(g != fx for g in gens):
                return False
            continue
        fb = cv.point_bit[fx.id]
        for g in gens:
            if not converges(cv, g, fb):
                return False
    return True


def _in_neighborhoods(cv: CompiledSpace, head: PointRef | str, fb: int) -> bool:
    """A walk on a tail the point of bit fb captures, or a constant in its
    minimal open (`up`), lies eventually in every neighborhood of it."""
    if type(head) is str:
        return bool(cv.capture_masks[cv.tail_bit[head]] & fb)
    return isinstance(head, FinitePoint) and bool(cv.up[fb] & cv.point_bit[head.id])


def is_continuous(f: SpaceMap) -> bool:
    """Images of minimal opens land in minimal opens, and captured tails map
    to sequences converging to the image point."""
    return _preserves_limits(f, _in_neighborhoods)


def _pulls_back_filter(f: SpaceMap, dom: tuple[int, int], cod: tuple[int, int]) -> bool:
    """For continuous f: the preimage of every codomain filter member is a
    domain filter member, for any domain pair and a canonical codomain one.

    One base member decides, at k one past every tail index named by a
    point image or a constant tail image.  Every member contains some
    E*_k, its preimage is open because f is continuous, and a filter is
    closed upwards, so it suffices that every f⁻¹(E*_k) is a member.  The
    base decreases in k, and E*_k is open on a canonical externology, so a
    member at one k makes every smaller k a member too.  Past the named
    indices, f⁻¹(E*_k) keeps its finite part and its eventual flags, all
    that `_e_open` reads: a point image is a member iff it is a finite point
    of L (a named tail point lies below k), and a tail image eventually iff
    it walks a tail of D or is constant at a finite point of L; exceptions
    and offsets move only flips.  So every such k gets one verdict, read
    off the images with no set built, by a rule written apart from
    `_exterior_head` so that `proper-vs-seqproper` compares two derivations.
    """
    dv, cv, (lim, d) = f.dom.compiled, f.cod.compiled, cod
    fin = ev = 0
    for x, p in f.on_points:
        if isinstance(p, FinitePoint) and lim & cv.point_bit[p.id]:
            fin |= dv.point_bit[x]
    for t, img in f.on_tails:
        p = img.point if isinstance(img, TailToConst) else img.tail
        walks_in = type(p) is str and d & cv.tail_bit[p]
        if walks_in or isinstance(p, FinitePoint) and lim & cv.point_bit[p.id]:
            ev |= dv.tail_bit[t]
    return _e_open(dv, *dom, fin, ev)


def _check_typed(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> None:
    if f.dom != e_dom.space or f.cod != e_cod.space:
        raise UniverseMismatch("map not typed between these exterior spaces")


def is_exterior_map(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Continuous, and pulls every member of the codomain filter back into
    the domain filter.  Either pair may be raw: e-openness already answers
    for the filter a pair presents, and the codomain base is read off the
    canonical pair's masks (`_canonical_masks`)."""
    _check_typed(f, e_dom, e_cod)
    return is_continuous(f) and _pulls_back_filter(f, _pair_masks(e_dom), _canonical_masks(e_cod))


def is_seq_continuous(f: SpaceMap) -> bool:
    """Preservation of the convergence generators, with their limits: the
    generators of `is_continuous`, each image one thread whose limits are
    read through the rule `limit_set` reads (`_thread_limits`), never `up`."""
    return _preserves_limits(f, lambda cv, head, fb: _thread_limits(cv, head) & fb)


def _preserves_exterior_seqs(f: SpaceMap, dom: tuple[int, int], cod: tuple[int, int]) -> bool:
    """Exterior sequences are mixtures of constants at limit points and walks
    on filter tails, and thread images depend only on these generators, so
    each generator's image is one thread for `_exterior_head`.  Both pairs
    are canonical masks."""
    dv, cv, heads = f.dom.compiled, f.cod.compiled, _heads(f)
    gens = (*dv.names(dom[0]), *dv.tail_names(dom[1]))
    return all(_exterior_head(cv, *cod, heads[g]) for g in gens)


def is_e_sequential_map(f: SpaceMap, e_dom: ExtSpace, e_cod: ExtSpace) -> bool:
    """Sequentially continuous and preserving exterior sequences: the
    sequence route, independent of the filter-pullback route.  The
    generators are read off the canonical pairs' masks, so raw pairs get
    the verdict of the filters they present."""
    _check_typed(f, e_dom, e_cod)
    return is_seq_continuous(f) and _preserves_exterior_seqs(
        f, _canonical_masks(e_dom), _canonical_masks(e_cod)
    )


def _cocompact_masks(f: SpaceMap) -> tuple[tuple[int, int], tuple[int, int]]:
    """The cocompact pairs of dom and cod, canonical, as masks."""
    return (0, f.dom.compiled.unattached), (0, f.cod.compiled.unattached)


def is_seq_proper(f: SpaceMap) -> bool:
    """`map_properties(f).seq_proper`, decided alone."""
    return is_seq_continuous(f) and _preserves_exterior_seqs(f, *_cocompact_masks(f))


def map_properties(f: SpaceMap) -> MapProps:
    """Proper and sequentially proper are the exterior notions at the
    cocompact externologies: proper sequences are the walk mixtures on
    unattached tails, the exterior sequences of the cocompact filter."""
    cont, seq_cont, cc = is_continuous(f), is_seq_continuous(f), _cocompact_masks(f)
    return MapProps(
        continuous=cont,
        proper=cont and _pulls_back_filter(f, *cc),
        seq_continuous=seq_cont,
        seq_proper=seq_cont and _preserves_exterior_seqs(f, *cc),
    )
