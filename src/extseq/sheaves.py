"""Presheaves on the three-object site: points, convergent and exterior sequences.

The two monoids live over the standard instances: the exterior self-maps of
the discrete naturals (sequences whose threads all walk the tail), and the
continuous self-maps of the convergent-sequence space (presented as a
convergent sequence with its forced value at the added point).  Right
ideals are generated by finitely many affine injections n -> a*n + b (on
the convergent-map monoid, by their based extensions).  Covering ideals
are certified per residue class: condition (ii) holds iff every residue
class modulo the slope lcm meets a generator's progression, and condition
(i) iff the progressions cover all the naturals.  Both are read off one
residue table (`_first_unhit`): each generator marks its progression with
one slice assignment, and the first unmarked index is a `find`.

The embedding Σ sends an exterior space to a `Sigma`, a value holding just
that space: its points, its convergent sequences (with a chosen limit) and
its exterior sequences, as membership tests and samplers; an exterior
sequence is tested on the space's canonical masks (`is_exterior_seq`), and
only the sampler builds the canonical pair.  The site's morphisms act
alike on every Σe, so they are the monoid compositions above and a
sequence's own evaluation, not parts of the presheaf.

The gluing checker never consults e-sequentiality of the underlying
exterior space: compatibility and the exterior-membership of the glued
section are all it needs.  Sequentiality matters only for the embedding
to be full, not for gluing to succeed.  Compatibility is checked against
the point component first: a family every value of which is the point
component restricted along its generator has no pairwise clash, since
at a shared argument both values are the point component's there.  So
the pairwise overlap scan (`_overlap_conflict`) runs only on a family
that fails that check, to report its conflict first, as `glue` always
has.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Mapping

from .core import FinitePoint, PointRef, TailPoint, value
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
    _subseq,
    const_seq,
    first_difference,
    limit_set,
    seq_compose,
    seq_equal,
    subseq,
    walk_seq,
)

NAT = nat_space()
NAT_PLUS = nat_plus_space()
INF = FinitePoint("inf")


@value
class ConvElem:
    """A convergent sequence together with its chosen limit."""

    seq: Seq
    limit: PointRef


def conv_equal(a: ConvElem, b: ConvElem) -> bool:
    return a.limit == b.limit and seq_equal(a.seq, b.seq)


# -- the monoids ------------------------------------------------------------


def is_m_elem(s: Seq) -> bool:
    """Member of the exterior self-map monoid of the discrete naturals; a
    presentation with no thread is no sequence, as for `is_exterior_seq`."""
    uni = s.universe
    return (uni is NAT.universe or uni == NAT.universe) and bool(s.threads) and all(
        isinstance(th, WalkThread) for th in s.threads
    )


def constant_conv(n: int) -> ConvElem:
    """The constant map at n, as a continuous self-map of ℕ⁺."""
    p = TailPoint(NAT_TAIL, n)
    return ConvElem(const_seq(NAT_PLUS.universe, p), p)


def based_affine_conv(u: Affine) -> ConvElem:
    """The affine injection as a based continuous self-map of ℕ⁺."""
    return ConvElem(walk_seq(NAT_PLUS.universe, NAT_TAIL, u.a, u.b), INF)


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


@value
class Ideal:
    carrier: str  # "M" | "M+"
    generators: tuple[Affine, ...]


def make_ideal(carrier: str, generators: Iterable[Affine]) -> Ideal:
    """A right ideal generated by affine injections, on either carrier (on
    M+ each generator stands for its based extension)."""
    if carrier not in ("M", "M+"):
        raise PresentationError(f"unknown carrier {carrier!r}", ("carrier",))
    gens = tuple(generators)
    if not gens:
        raise PresentationError("an ideal needs at least one generator", ("generators",))
    if not all(isinstance(g, Affine) for g in gens):
        raise PresentationError("ideal generators must be affine injections", ("generators",))
    return Ideal(carrier, gens)


@value
class CoverResult:
    status: str  # "yes" | "no"
    witness: Affine | None = None
    modulus: int | None = None


def is_cover(ideal: Ideal, topology: str) -> CoverResult:
    """Covering test for the Grothendieck topologies on the two monoids.

    Condition (ii) — every monotone injection composes into the ideal — holds
    iff each residue class modulo the slope lcm meets some generator's
    progression; a missed class r gives the witness n -> lcm*n + r, the
    first class no generator marks in the residue table.  For the
    topology on the convergent-map monoid, condition (i) additionally
    demands that the progressions cover every natural, so that all
    constants belong; it is read off the same kind of table, each
    progression marked from its offset.
    """
    if topology not in ("Jc", "Je"):
        raise PresentationError(f"unknown topology {topology!r}")
    if (topology == "Jc") != (ideal.carrier == "M+"):
        raise PresentationError("topology does not match the ideal's carrier")
    gens = ideal.generators
    lam = math.lcm(*(g.a for g in gens))
    r = _first_unhit(lam, ((g.b % g.a, g.a) for g in gens))
    if r >= 0:
        return CoverResult("no", Affine(lam, r), lam)
    if topology == "Jc" and not _covers_naturals(gens, lam):
        return CoverResult("no", None, lam)
    return CoverResult("yes", None, lam)


def _covers_naturals(gens: tuple[Affine, ...], lam: int) -> bool:
    """Every natural lies on some progression; past the largest offset the
    residues decide, so one period beyond it suffices."""
    settle = max(g.b for g in gens)
    return _first_unhit(settle + lam, ((g.b, g.a) for g in gens)) < 0


def _first_unhit(n: int, progressions: Iterable[tuple[int, int]]) -> int:
    """The first index below n that no progression (start, step) hits, or -1.

    One residue table: each progression marks its indices with one slice
    assignment, and the first unmarked index is a `find`.
    """
    hit = bytearray(n)
    for start, step in progressions:
        hit[start::step] = b"\1" * len(range(start, n, step))
    return hit.find(0)


# -- the presheaf embedding ---------------------------------------------------


@value
class Sigma:
    """Σe, the presheaf of an exterior space's points, convergent sequences
    and exterior sequences: the parts that depend on the space.  The site's
    morphisms act on every Σe by `conv_compose`, `m_compose`, `seq.at(n)`
    and `limit`."""

    e: ExtSpace

    def point_member(self, p: PointRef) -> bool:
        try:
            self.e.space.universe.check_ref(p)
        except PresentationError:
            return False
        return True

    def point_sample(self, rng: random.Random, n: int) -> list[PointRef]:
        space = self.e.space
        if not space.points and not space.tails:
            return []
        return [sample_point(rng, space) for _ in range(n)]

    def c_member(self, ce: ConvElem) -> bool:
        space, uni = self.e.space, ce.seq.universe
        same = uni is space.universe or uni == space.universe
        return same and ce.limit in limit_set(space, ce.seq)

    def c_sample(self, rng: random.Random, n: int) -> list[ConvElem]:
        out = []
        for _ in range(n):
            got = gen_convergent_seq(rng, self.e.space)
            if got is not None:
                out.append(ConvElem(*got))
        return out

    def e_member(self, s: Seq) -> bool:
        uni = self.e.space.universe  # then the mask rule of `is_exterior_seq`
        return (s.universe is uni or s.universe == uni) and is_exterior_seq(self.e, s)

    def e_sample(self, rng: random.Random, n: int) -> list[Seq]:
        # Draw from the canonical pair, the one e_member answers for.
        space = self.e.space
        ext = coreflect(self.e).ext
        opts: list = [ConstThread(FinitePoint(x)) for x in ext.limits]
        opts += [WalkThread(t, 1 + rng.randrange(3), rng.randrange(9)) for t in ext.tails]
        if not opts:
            return []
        out = []
        for _ in range(n):
            threads = tuple(rng.choice(opts) for _ in range(1 + rng.randrange(3)))
            prefix = tuple(sample_point(rng, space) for _ in range(rng.randrange(3)))
            out.append(Seq(space.universe, prefix, threads))
        return out

    def cte(self, p: PointRef) -> ConvElem:
        """The constant convergent sequence at p."""
        return ConvElem(const_seq(self.e.space.universe, p), p)


def build_sigma(e: ExtSpace) -> Sigma:
    """The presheaf of points, convergent sequences and exterior sequences."""
    return Sigma(e)


@value
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


@value
class CMapReport:
    ok: bool
    failed_square: str | None = None


def c_map_check(
    phi: CMap, dom: Sigma, cod: Sigma, rng: random.Random, samples: int = 20
) -> CMapReport:
    """Sampled equivariance and naturality squares for a presheaf map."""
    convs = dom.c_sample(rng, samples)
    exts = dom.e_sample(rng, samples)
    points = dom.point_sample(rng, samples)
    m_actions = [
        Seq(NAT.universe, (), (WalkThread(NAT_TAIL, 1 + rng.randrange(3), rng.randrange(5)),))
        for _ in range(4)
    ]
    mp_actions = [
        based_affine_conv(Affine(1 + rng.randrange(3), rng.randrange(5))) for _ in range(3)
    ]
    mp_actions += [constant_conv(rng.randrange(5))]
    ns = [0, 1, 3]

    for ce in convs:
        img = phi.on_conv(ce)
        if not cod.c_member(img):
            return CMapReport(False, "c-membership")
        for u in mp_actions:
            if not conv_equal(phi.on_conv(conv_compose(ce, u)), conv_compose(img, u)):
                return CMapReport(False, "c-action")
        for n in ns:
            if img.seq.at(n) != phi.on_point(ce.seq.at(n)):
                return CMapReport(False, "ev-n")
        if img.limit != phi.on_point(ce.limit):
            return CMapReport(False, "ev-inf")
    for s in exts:
        img_e = phi.on_ext(s)
        if not cod.e_member(img_e):
            return CMapReport(False, "e-membership")
        for u in m_actions:
            if not seq_equal(phi.on_ext(m_compose(s, u)), m_compose(img_e, u)):
                return CMapReport(False, "e-action")
        for n in ns:
            if img_e.at(n) != phi.on_point(s.at(n)):
                return CMapReport(False, "ev-n-ext")
            if not conv_equal(phi.on_conv(dom.cte(s.at(n))), cod.cte(img_e.at(n))):
                return CMapReport(False, "const-of-ext")
    for p in points:
        if not cod.point_member(phi.on_point(p)):
            return CMapReport(False, "point-membership")
        if not conv_equal(phi.on_conv(dom.cte(p)), cod.cte(phi.on_point(p))):
            return CMapReport(False, "cte")
    return CMapReport(True, None)


# -- gluing -----------------------------------------------------------------


@value
class GlueResult:
    kind: str  # "amalgamation" | "incompatible" | "no_amalgamation"
    seq: Seq | None = None
    conflict: tuple | None = None
    reason: str | None = None


def glue(
    cset: Sigma,
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
    convergent components must be its composites.  A pairwise conflict is
    reported before a point-component one.

    The point component is checked first.  If every value h agrees with
    points ∘ u, no overlap can clash: at a shared argument v = u1(q1) =
    u2(q2), h1(q1) = points(v) = h2(q2).  So the pairwise scan runs only
    when that check misses or raises; the result, or the exception, is then
    the one the pairwise-first order gives, on every input.
    """
    if ideal.carrier != "M":
        raise PresentationError("gluing happens over ideals of the exterior monoid")
    gens = ideal.generators
    if require_cover and is_cover(ideal, "Je").status != "yes":
        raise PresentationError("the ideal is not covering; pass require_cover=False to force")
    values = [family.get(u) for u in gens]  # each looked up once
    for u, h in zip(gens, values):
        if h is None:
            raise PresentationError(f"family misses generator {u!r}")
        if not cset.e_member(h):
            raise PresentationError(f"family value at {u!r} is not an exterior element")

    # The point component first (see above); after a miss or a raise the
    # pairwise scan's conflict takes precedence, and the point component's
    # outcome is replayed only if there is none.
    miss = error = None
    try:
        for u, h in zip(gens, values):
            n = first_difference(subseq(points, u), h)
            if n is not None:
                miss = GlueResult("incompatible", conflict=(u, "points", u(n)))
                break
    except Exception as exc:
        error = exc
    if miss is not None or error is not None:
        for i, u1 in enumerate(gens):
            for j in range(i + 1, len(gens)):
                clash = _overlap_conflict(u1, values[i], gens[j], values[j])
                if clash is not None:
                    return GlueResult("incompatible", conflict=(u1, gens[j], clash))
        if error is not None:
            raise error
        if miss is not None:
            return miss

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
    uni = h.seq.universe
    if uni is not NAT.universe and uni != NAT.universe or not isinstance(h.limit, TailPoint):
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
    k = first_difference(
        Seq(h1.universe, *_subseq(h1, u2.a // g, q1_0)),
        Seq(h2.universe, *_subseq(h2, u1.a // g, q2_0)),
    )
    return None if k is None else u1(q1_0 + (u2.a // g) * k)


def _first_overlap(u1: Affine, u2: Affine) -> tuple[int, int]:
    """The least shared value of the two progressions, as (q1, q2).  The
    caller has checked that g = gcd(a1, a2) divides b2 - b1, so by the
    Chinese remainder theorem the shared values are one class modulo
    lcm(a1, a2): v = b1 + a1 * t with (a1/g) * t = (b2 - b1)/g modulo
    a2/g, where a1/g has an inverse (extended Euclid, `pow(x, -1, m)`).
    The least one is the first of that class at or past max(b1, b2)."""
    g = math.gcd(u1.a, u2.a)
    m = u2.a // g
    t = (u2.b - u1.b) // g * pow(u1.a // g, -1, m) % m
    period = u1.a * m
    top = max(u1.b, u2.b)
    v = top + (u1.b + u1.a * t - top) % period
    return (v - u1.b) // u1.a, (v - u2.b) // u2.a


def restrict_family(
    s: Seq, ideal: Ideal, conv_morphisms: Iterable[ConvElem] = ()
) -> tuple[dict[Affine, Seq], Seq, list[tuple[ConvElem, ConvElem]]]:
    """The family a genuine section induces over an ideal (for round trips)."""
    fam = {u: subseq(s, u) for u in ideal.generators}
    conv = [(h, _compose_with_nat_conv(s, h)) for h in conv_morphisms]
    return fam, s, conv
