"""Presheaves on the three-object site: points, convergent and exterior sequences.

The two monoids live over the standard instances: the exterior self-maps of
the discrete naturals (sequences whose threads all walk the tail), and the
continuous self-maps of the convergent-sequence space (presented as a
convergent sequence with its forced value at the added point).  Right
ideals are given by finite generator lists; membership g = gen ∘ w is
decided against the full monoid by image-coverage congruence analysis,
which is exact for finitely presented elements.  Covering ideals are
certified per residue class: condition (ii) holds iff every residue class
modulo the slope lcm is eventually covered by a single generator's image,
and condition (i) iff the generator images cover all the naturals.

The gluing checker never consults e-sequentiality of the underlying
exterior space: compatibility and the exterior-membership of the glued
section are all it needs.  Sequentiality matters only for the embedding
to be full, not for gluing to succeed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .core import FinitePoint, PointRef, TailPoint
from .errors import PresentationError
from .exteriority import ExtSpace, coreflect, is_exterior_seq
from .generate import gen_convergent_seq, sample_point
from .instances import NAT_TAIL, nat_plus_space, nat_space
from .maps import SpaceMap, apply_map, map_seq
from .sequences import (
    Affine,
    ConstThread,
    Seq,
    WalkThread,
    const_seq,
    limit_set,
    make_seq,
    seq_compose,
    seq_equal,
    subseq,
)
from .spaces import Space

NAT = nat_space()
NAT_PLUS = nat_plus_space()
INF = FinitePoint("inf")
# Largest slope, offset and constant tried for a presentable division witness.
WITNESS_BUDGET = 8


@dataclass(frozen=True, slots=True)
class ConvElem:
    """A convergent sequence together with its chosen limit."""

    seq: Seq
    limit: PointRef


def make_conv(space: Space, seq: Seq, limit: PointRef) -> ConvElem:
    if limit not in limit_set(space, seq):
        raise PresentationError(f"{limit!r} is not a limit of the sequence")
    return ConvElem(seq, limit)


def conv_equal(a: ConvElem, b: ConvElem) -> bool:
    return a.limit == b.limit and seq_equal(a.seq, b.seq)


# -- the monoids ------------------------------------------------------------


def is_m_elem(s: Seq) -> bool:
    """Member of the exterior self-map monoid of the discrete naturals."""
    return s.universe == NAT.universe and all(
        isinstance(th, WalkThread) for th in s.threads
    )


def affine_seq(u: Affine) -> Seq:
    """The affine injection as a monoid element."""
    return make_seq(NAT.universe, (), (WalkThread(NAT_TAIL, u.a, u.b),))


def as_affine(s: Seq) -> Affine | None:
    """Recover (a, b) when the sequence presents an affine map."""
    v0, v1 = s.at(0), s.at(1)
    if not (isinstance(v0, TailPoint) and isinstance(v1, TailPoint)):
        return None
    a, b = v1.index - v0.index, v0.index
    if a < 1 or b < 0:
        return None
    cand = Affine(a, b)
    return cand if seq_equal(s, affine_seq(cand)) else None


def constant_conv(n: int) -> ConvElem:
    """The constant map at n, as a continuous self-map of ℕ⁺."""
    p = TailPoint(NAT_TAIL, n)
    return ConvElem(const_seq(NAT_PLUS.universe, p), p)


def based_affine_conv(u: Affine) -> ConvElem:
    """The affine injection as a based continuous self-map of ℕ⁺."""
    return ConvElem(
        make_seq(NAT_PLUS.universe, (), (WalkThread(NAT_TAIL, u.a, u.b),)), INF
    )


def m_compose(s: Seq, u: Seq) -> Seq:
    """Composition in the exterior monoid: n -> s(u(n))."""
    if not is_m_elem(u):
        raise PresentationError("right factor is not an exterior self-map")
    return seq_compose(s, u)


def conv_compose(g: ConvElem, u: ConvElem) -> ConvElem:
    """Composition with a continuous self-map of ℕ⁺ on the right.

    Positions where u takes the added point read off g's limit; the new
    limit is g evaluated at u's limit.
    """
    comp = seq_compose(g.seq, u.seq, special={INF: g.limit})
    if u.limit == INF:
        lim = g.limit
    elif isinstance(u.limit, TailPoint):
        lim = g.seq.at(u.limit.index)
    else:
        raise PresentationError(f"unexpected limit {u.limit!r}")
    return ConvElem(comp, lim)


# -- ideals and coverings ---------------------------------------------------


Generator = Affine | Seq | ConvElem


@dataclass(frozen=True, slots=True)
class Ideal:
    carrier: str  # "M" | "M+"
    generators: tuple[Generator, ...]


def make_ideal(carrier: str, generators: Iterable[Generator]) -> Ideal:
    if carrier not in ("M", "M+"):
        raise PresentationError(f"unknown carrier {carrier!r}")
    gens = tuple(generators)
    if not gens:
        raise PresentationError("an ideal needs at least one generator")
    for g in gens:
        if isinstance(g, Affine):
            continue
        if carrier == "M":
            if not (isinstance(g, Seq) and is_m_elem(g)):
                raise PresentationError("M generators must be exterior self-maps")
        else:
            if not isinstance(g, ConvElem) or g.seq.universe != NAT_PLUS.universe:
                raise PresentationError("M+ generators must be continuous self-maps")
    return Ideal(carrier, gens)


def affine_divide(g: Affine, gen: Affine) -> Affine | None:
    """Solve gen ∘ w = g over affine injections."""
    if g.a % gen.a or g.b < gen.b or (g.b - gen.b) % gen.a:
        return None
    return Affine(g.a // gen.a, (g.b - gen.b) // gen.a)


@dataclass(frozen=True, slots=True)
class ImageParts:
    values: frozenset[int]
    progressions: tuple[tuple[int, int], ...]
    has_inf: bool


def _image_of_seq(s: Seq, allow_inf: bool) -> ImageParts:
    vals: set[int] = set()
    progs: list[tuple[int, int]] = []
    has_inf = False
    for p in s.prefix:
        if isinstance(p, TailPoint):
            vals.add(p.index)
        elif p == INF and allow_inf:
            has_inf = True
        else:
            raise PresentationError(f"unexpected value {p!r}")
    for th in s.threads:
        if isinstance(th, ConstThread):
            if isinstance(th.point, TailPoint):
                vals.add(th.point.index)
            elif th.point == INF and allow_inf:
                has_inf = True
            else:
                raise PresentationError(f"unexpected value {th.point!r}")
        else:
            progs.append((th.a, th.b))
    return ImageParts(frozenset(vals), tuple(progs), has_inf)


def _generator_image(gen: Generator, carrier: str) -> ImageParts:
    if isinstance(gen, Affine):
        return ImageParts(frozenset(), ((gen.a, gen.b),), carrier == "M+")
    if isinstance(gen, Seq):
        return _image_of_seq(gen, allow_inf=False)
    parts = _image_of_seq(gen.seq, allow_inf=True)
    if gen.limit == INF:
        return ImageParts(parts.values, parts.progressions, True)
    assert isinstance(gen.limit, TailPoint)
    return ImageParts(parts.values | {gen.limit.index}, parts.progressions, parts.has_inf)


def _value_covered(v: int, parts: ImageParts) -> bool:
    if v in parts.values:
        return True
    return any(v >= b and (v - b) % a == 0 for a, b in parts.progressions)


def _progression_included(big_a: int, big_b: int, parts: ImageParts) -> bool:
    """Exact test that {A*q + B : q >= 0} lies inside the image parts."""
    settle = max(
        [b for _, b in parts.progressions] + [max(parts.values) + 1 if parts.values else 0]
    ) if (parts.progressions or parts.values) else 0
    q = 0
    while big_a * q + big_b < settle:
        if not _value_covered(big_a * q + big_b, parts):
            return False
        q += 1
    if not parts.progressions:
        return False
    lam = math.lcm(*(a for a, _ in parts.progressions))
    for j in range(lam // math.gcd(big_a, lam)):
        v = big_a * (q + j) + big_b
        if not any((v - b) % a == 0 for a, b in parts.progressions):
            return False
    return True


def _seq_inside_image(s: Seq, parts: ImageParts, allow_inf: bool) -> bool:
    mine = _image_of_seq(s, allow_inf)
    if mine.has_inf and not parts.has_inf:
        return False
    if not all(_value_covered(v, parts) for v in mine.values):
        return False
    return all(_progression_included(a, b, parts) for a, b in mine.progressions)


def _divide_seq_by_affine(g: Seq, gen: Affine, allow_inf: bool) -> Seq | None:
    """Constructive w with gen ∘ w = g, when the thread structure divides."""

    def div_index(m: int) -> int | None:
        if m < gen.b or (m - gen.b) % gen.a:
            return None
        return (m - gen.b) // gen.a

    prefix: list[PointRef] = []
    for p in g.prefix:
        if isinstance(p, TailPoint):
            m = div_index(p.index)
            if m is None:
                return None
            prefix.append(TailPoint(p.tail, m))
        elif p == INF and allow_inf:
            prefix.append(INF)
        else:
            return None
    threads = []
    for th in g.threads:
        if isinstance(th, ConstThread):
            if isinstance(th.point, TailPoint):
                m = div_index(th.point.index)
                if m is None:
                    return None
                threads.append(ConstThread(TailPoint(th.point.tail, m)))
            elif th.point == INF and allow_inf:
                threads.append(ConstThread(INF))
            else:
                return None
        else:
            if th.a % gen.a or th.b < gen.b or (th.b - gen.b) % gen.a:
                return None
            threads.append(WalkThread(th.tail, th.a // gen.a, (th.b - gen.b) // gen.a))
    return Seq(g.universe, tuple(prefix), tuple(threads))


@dataclass(frozen=True, slots=True)
class Membership:
    yes: bool
    witness: Generator | None = None


def ideal_member(ideal: Ideal, g: Generator) -> Membership:
    """Exact right-division: does some monoid element w give gen ∘ w = g?

    Affine-by-affine division is closed-form; sequence-by-affine divides
    thread-wise; general generators are decided by image coverage (exact
    for presentable elements), with a budgeted search for a presentable
    witness.
    """
    for gen in ideal.generators:
        hit = _try_divide(ideal.carrier, g, gen)
        if hit is not None:
            return Membership(True, hit if not isinstance(hit, bool) else None)
    return Membership(False, None)


def _try_divide(carrier: str, g: Generator, gen: Generator):
    """A witness, True (member, witness withheld), or None (not divisible)."""
    if isinstance(g, Affine) and isinstance(gen, Affine):
        return affine_divide(g, gen)
    if carrier == "M":
        g_seq = affine_seq(g) if isinstance(g, Affine) else g
        if not isinstance(g_seq, Seq):
            raise PresentationError("M membership asked of a non-M element")
        if isinstance(gen, Affine):
            return _divide_seq_by_affine(g_seq, gen, allow_inf=False)
        assert isinstance(gen, Seq)
        if _seq_inside_image(g_seq, _generator_image(gen, carrier), allow_inf=False):
            return _search_witness_m(g_seq, gen)
        return None
    g_conv = based_affine_conv(g) if isinstance(g, Affine) else g
    if not isinstance(g_conv, ConvElem):
        raise PresentationError("M+ membership asked of a non-M+ element")
    if isinstance(gen, Affine):
        w_seq = _divide_seq_by_affine(g_conv.seq, gen, allow_inf=True)
        if w_seq is None:
            return None
        if g_conv.limit == INF:
            return ConvElem(w_seq, INF)
        assert isinstance(g_conv.limit, TailPoint)
        m = g_conv.limit.index
        if m < gen.b or (m - gen.b) % gen.a:
            return None
        return ConvElem(w_seq, TailPoint(NAT_TAIL, (m - gen.b) // gen.a))
    assert isinstance(gen, ConvElem)
    parts = _generator_image(gen, carrier)
    if not _seq_inside_image(g_conv.seq, parts, allow_inf=True):
        return None
    if g_conv.limit == INF:
        if not parts.has_inf:
            return None
    else:
        assert isinstance(g_conv.limit, TailPoint)
        if not _value_covered(g_conv.limit.index, parts):
            return None
    return _search_witness_mplus(g_conv, gen)


def _search_witness_m(g: Seq, gen: Seq):
    for a in range(1, WITNESS_BUDGET + 1):
        for b in range(WITNESS_BUDGET + 1):
            if seq_equal(m_compose(gen, affine_seq(Affine(a, b))), g):
                return affine_seq(Affine(a, b))
    return True


def _search_witness_mplus(g: ConvElem, gen: ConvElem):
    for a in range(1, WITNESS_BUDGET + 1):
        for b in range(WITNESS_BUDGET + 1):
            w = based_affine_conv(Affine(a, b))
            if conv_equal(conv_compose(gen, w), g):
                return w
    for n in range(WITNESS_BUDGET + 1):
        w = constant_conv(n)
        if conv_equal(conv_compose(gen, w), g):
            return w
    return True


@dataclass(frozen=True, slots=True)
class CoverResult:
    status: str  # "yes" | "no" | "unknown"
    witness: Affine | None = None
    modulus: int | None = None


def is_cover(ideal: Ideal, topology: str) -> CoverResult:
    """Covering test for the Grothendieck topologies on the two monoids.

    Condition (ii) — every monotone injection composes into the ideal — is
    certified per residue class: each class modulo the slope lcm must be
    eventually covered by a single generator's image.  For the topology on
    the convergent-map monoid, condition (i) additionally demands that the
    generator images cover every natural, so that all constants belong.
    The certificate is exact for presentable generators.
    """
    if topology not in ("Jc", "Je"):
        raise PresentationError(f"unknown topology {topology!r}")
    if (topology == "Jc") != (ideal.carrier == "M+"):
        raise PresentationError("topology does not match the ideal's carrier")
    parts = [_generator_image(gen, ideal.carrier) for gen in ideal.generators]
    slopes = [a for p in parts for a, _ in p.progressions]
    lam = math.lcm(*slopes) if slopes else 1
    for r in range(lam):
        if not any(
            any((r - b) % a == 0 for a, b in p.progressions) for p in parts
        ):
            return CoverResult("no", Affine(lam, r), lam)
    if topology == "Jc" and not _covers_naturals(parts, lam):
        return CoverResult("no", None, lam)
    return CoverResult("yes", None, lam)


def _covers_naturals(parts: list[ImageParts], lam: int) -> bool:
    settle = max(
        [b for p in parts for _, b in p.progressions]
        + [max(p.values) + 1 for p in parts if p.values]
        + [0]
    )
    for v in range(settle + lam):
        if not any(_value_covered(v, p) for p in parts):
            return False
    return True


# -- presheaf presentations -------------------------------------------------


@dataclass(frozen=True)
class CSet:
    """A presheaf on the site, presented by deciders, samplers and actions."""

    label: str
    point_member: Callable[[PointRef], bool]
    point_sample: Callable[[random.Random, int], list[PointRef]]
    c_member: Callable[[ConvElem], bool]
    c_sample: Callable[[random.Random, int], list[ConvElem]]
    e_member: Callable[[Seq], bool]
    e_sample: Callable[[random.Random, int], list[Seq]]
    c_act: Callable[[ConvElem, ConvElem], ConvElem]
    e_act: Callable[[Seq, Seq], Seq]
    ev_c: Callable[[ConvElem, int], PointRef]
    ev_c_inf: Callable[[ConvElem], PointRef]
    cte: Callable[[PointRef], ConvElem]
    ev_e: Callable[[Seq, int], PointRef]
    c_of_e: Callable[[Seq, int], ConvElem]


def build_sigma(e: ExtSpace) -> CSet:
    """The presheaf of points, convergent sequences and exterior sequences."""
    space = e.space
    uni = space.universe

    def point_member(p: PointRef) -> bool:
        try:
            uni.check_ref(p)
        except PresentationError:
            return False
        return True

    def point_sample(rng: random.Random, n: int) -> list[PointRef]:
        if not space.points and not space.tails:
            return []
        return [sample_point(rng, space) for _ in range(n)]

    def c_member(ce: ConvElem) -> bool:
        return ce.seq.universe == uni and ce.limit in limit_set(space, ce.seq)

    def c_sample(rng: random.Random, n: int) -> list[ConvElem]:
        out = []
        for _ in range(n):
            got = gen_convergent_seq(rng, space)
            if got is not None:
                out.append(ConvElem(*got))
        return out

    def e_member(s: Seq) -> bool:
        return s.universe == uni and is_exterior_seq(e, s)

    def e_sample(rng: random.Random, n: int) -> list[Seq]:
        # Draw from the canonical pair, the one e_member answers for.
        ext = coreflect(e).ext
        opts: list = [ConstThread(FinitePoint(x)) for x in ext.limits]
        opts += [WalkThread(t, rng.randrange(1, 4), rng.randrange(0, 9)) for t in ext.tails]
        if not opts:
            return []
        out = []
        for _ in range(n):
            threads = [rng.choice(opts) for _ in range(rng.randrange(1, 4))]
            prefix = [sample_point(rng, space) for _ in range(rng.randrange(0, 3))]
            out.append(make_seq(uni, prefix, threads))
        return out

    def e_act(s: Seq, u: Seq) -> Seq:
        return m_compose(s, u)

    return CSet(
        label=f"sigma({','.join(space.points) or '-'};{','.join(space.tails) or '-'})",
        point_member=point_member,
        point_sample=point_sample,
        c_member=c_member,
        c_sample=c_sample,
        e_member=e_member,
        e_sample=e_sample,
        c_act=conv_compose,
        e_act=e_act,
        ev_c=lambda ce, n: ce.seq.at(n),
        ev_c_inf=lambda ce: ce.limit,
        cte=lambda p: ConvElem(const_seq(uni, p), p),
        ev_e=lambda s, n: s.at(n),
        c_of_e=lambda s, n: ConvElem(const_seq(uni, s.at(n)), s.at(n)),
    )


@dataclass(frozen=True)
class CMap:
    on_point: Callable[[PointRef], PointRef]
    on_conv: Callable[[ConvElem], ConvElem]
    on_ext: Callable[[Seq], Seq]


def sigma_map(f: SpaceMap) -> CMap:
    return CMap(
        on_point=lambda p: apply_map(f, p),
        on_conv=lambda ce: ConvElem(map_seq(f, ce.seq), apply_map(f, ce.limit)),
        on_ext=lambda s: map_seq(f, s),
    )


@dataclass(frozen=True, slots=True)
class CMapReport:
    ok: bool
    failed_square: str | None = None


def c_map_check(
    phi: CMap, dom: CSet, cod: CSet, rng: random.Random, samples: int = 20
) -> CMapReport:
    """Sampled equivariance and naturality squares for a presheaf map."""
    convs = dom.c_sample(rng, samples)
    exts = dom.e_sample(rng, samples)
    points = dom.point_sample(rng, samples)
    m_actions = [affine_seq(Affine(rng.randrange(1, 4), rng.randrange(0, 5))) for _ in range(4)]
    mp_actions = [based_affine_conv(Affine(rng.randrange(1, 4), rng.randrange(0, 5))) for _ in range(3)]
    mp_actions += [constant_conv(rng.randrange(0, 5))]
    ns = [0, 1, 3]

    for ce in convs:
        img = phi.on_conv(ce)
        if not cod.c_member(img):
            return CMapReport(False, "c-membership")
        for u in mp_actions:
            if not conv_equal(phi.on_conv(dom.c_act(ce, u)), cod.c_act(img, u)):
                return CMapReport(False, "c-action")
        for n in ns:
            if cod.ev_c(img, n) != phi.on_point(dom.ev_c(ce, n)):
                return CMapReport(False, "ev-n")
        if cod.ev_c_inf(img) != phi.on_point(dom.ev_c_inf(ce)):
            return CMapReport(False, "ev-inf")
    for s in exts:
        img_e = phi.on_ext(s)
        if not cod.e_member(img_e):
            return CMapReport(False, "e-membership")
        for u in m_actions:
            if not seq_equal(phi.on_ext(dom.e_act(s, u)), cod.e_act(img_e, u)):
                return CMapReport(False, "e-action")
        for n in ns:
            if cod.ev_e(img_e, n) != phi.on_point(dom.ev_e(s, n)):
                return CMapReport(False, "ev-n-ext")
            if not conv_equal(phi.on_conv(dom.c_of_e(s, n)), cod.c_of_e(img_e, n)):
                return CMapReport(False, "const-of-ext")
    for p in points:
        if not cod.point_member(phi.on_point(p)):
            return CMapReport(False, "point-membership")
        if not conv_equal(phi.on_conv(dom.cte(p)), cod.cte(phi.on_point(p))):
            return CMapReport(False, "cte")
    return CMapReport(True, None)


# -- gluing -----------------------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    kind: str  # "amalgamation" | "incompatible" | "no_amalgamation"
    seq: Seq | None = None
    conflict: tuple | None = None
    reason: str | None = None


def glue(
    cset: CSet,
    ideal: Ideal,
    family: Mapping[Affine, Seq],
    points: Seq,
    conv_sample: Iterable[tuple[ConvElem, ConvElem]] = (),
    require_cover: bool = True,
) -> GlueResult:
    """Amalgamate a compatible family over a covering ideal of the exterior monoid.

    The family assigns an exterior element to each generator; `points` is
    the total point component (the images of all maps from the terminal
    object), which pins the candidate section down pointwise.  The checks:
    generators must agree pairwise on argument overlaps and with the point
    component, the glued section must itself be exterior, and the sampled
    convergent components must be its composites.
    """
    if ideal.carrier != "M":
        raise PresentationError("gluing happens over ideals of the exterior monoid")
    gens = []
    for gen in ideal.generators:
        u = gen if isinstance(gen, Affine) else as_affine(gen)
        if u is None:
            raise PresentationError("gluing needs affine generator presentations")
        gens.append(u)
    if require_cover and is_cover(ideal, "Je").status != "yes":
        raise PresentationError("the ideal is not covering; pass require_cover=False to force")
    for u in gens:
        if u not in family:
            raise PresentationError(f"family misses generator {u!r}")
        if not cset.e_member(family[u]):
            raise PresentationError(f"family value at {u!r} is not an exterior element")

    # Pairwise generator overlaps.
    for i, u1 in enumerate(gens):
        for u2 in gens[i + 1 :]:
            clash = _overlap_conflict(u1, family[u1], u2, family[u2])
            if clash is not None:
                return GlueResult("incompatible", conflict=(u1, u2, clash))

    # The point component must restrict to the family.
    for u in gens:
        restricted = subseq(points, u)
        if not seq_equal(restricted, family[u]):
            n = _first_difference(restricted, family[u])
            return GlueResult("incompatible", conflict=(u, "points", u(n)))

    if not cset.e_member(points):
        return GlueResult(
            "no_amalgamation", reason="glued sequence is not an exterior element"
        )

    for h, claimed in conv_sample:
        expected = _compose_with_nat_conv(points, h)
        if not conv_equal(expected, claimed):
            return GlueResult("incompatible", conflict=(h, "conv", None))
    return GlueResult("amalgamation", seq=points)


def _compose_with_nat_conv(s: Seq, h: ConvElem) -> ConvElem:
    """s ∘ h for a morphism h from the convergent-sequence object to the
    naturals object (an eventually constant sequence with its limit)."""
    if h.seq.universe != NAT.universe or not isinstance(h.limit, TailPoint):
        raise PresentationError("not a morphism into the naturals object")
    return ConvElem(seq_compose(s, h.seq), s.at(h.limit.index))


def _overlap_conflict(u1: Affine, h1: Seq, u2: Affine, h2: Seq) -> int | None:
    """The smallest shared argument where the two restrictions disagree."""
    g = math.gcd(u1.a, u2.a)
    if (u2.b - u1.b) % g:
        return None
    # Solve u1(q1) = u2(q2); the solutions form an affine line in a shared
    # parameter k.
    q1_0, q2_0 = _first_overlap(u1, u2)
    if q1_0 is None:
        return None
    r1 = subseq(h1, Affine(u2.a // g, q1_0))
    r2 = subseq(h2, Affine(u1.a // g, q2_0))
    if seq_equal(r1, r2):
        return None
    k = _first_difference(r1, r2)
    return u1(q1_0 + (u2.a // g) * k)


def _first_overlap(u1: Affine, u2: Affine) -> tuple[int | None, int | None]:
    limit = u1.a * u2.a + max(u1.b, u2.b)
    v = max(u1.b, u2.b)
    while v <= limit:
        if v >= u1.b and (v - u1.b) % u1.a == 0 and v >= u2.b and (v - u2.b) % u2.a == 0:
            return (v - u1.b) // u1.a, (v - u2.b) // u2.a
        v += 1
    return None, None


def _first_difference(a: Seq, b: Seq) -> int:
    bound = max(len(a.prefix), len(b.prefix)) + 2 * math.lcm(len(a.threads), len(b.threads))
    for n in range(bound):
        if a.at(n) != b.at(n):
            return n
    raise AssertionError("sequences do not differ")


def restrict_family(
    s: Seq, ideal: Ideal, conv_morphisms: Iterable[ConvElem] = ()
) -> tuple[dict[Affine, Seq], Seq, list[tuple[ConvElem, ConvElem]]]:
    """The family a genuine section induces over an ideal (for round trips)."""
    fam: dict[Affine, Seq] = {}
    for gen in ideal.generators:
        u = gen if isinstance(gen, Affine) else as_affine(gen)
        if u is None:
            raise PresentationError("restriction needs affine generator presentations")
        fam[u] = subseq(s, u)
    conv = [(h, _compose_with_nat_conv(s, h)) for h in conv_morphisms]
    return fam, s, conv
