"""Monoids, ideals, coverings, the presheaf embedding, and gluing."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.core import FinitePoint, TailPoint
from extseq.errors import PresentationError, UniverseMismatch
from extseq.exteriority import ExtSpace, Externology, coreflect, make_ext_space
from extseq.generate import gen_ext, gen_map, gen_space, sample_point
from extseq.instances import NAT_TAIL, nat_cofinite, nat_plus_space, nat_space
from extseq.sequences import (
    IDENTITY,
    Affine,
    ConstThread,
    Seq,
    WalkThread,
    _subseq,
    first_difference,
    make_seq,
    seq_equal,
    subseq,
    walk_seq,
)
from extseq.sheaves import (
    INF,
    _compose_with_nat_conv,
    _first_overlap,
    _overlap_conflict,
    CMap,
    ConvElem,
    CoverResult,
    GlueResult,
    Sigma,
    based_affine_conv,
    build_sigma,
    c_map_check,
    constant_conv,
    conv_compose,
    conv_equal,
    glue,
    is_cover,
    m_compose,
    make_ideal,
    restrict_family,
    sigma_map,
)
from support import affine_divide, ideal_member, identity_map, mixed_space

NN = nat_space()
NP = nat_plus_space()
NNU = NN.universe


def affine(u):
    """The affine injection as an element of the exterior monoid."""
    return walk_seq(NNU, NAT_TAIL, u.a, u.b)


# -- division and membership ------------------------------------------------


def test_affine_divide_examples():
    assert affine_divide(Affine(4, 2), Affine(2, 0)) == Affine(2, 1)
    assert affine_divide(Affine(2, 1), Affine(2, 0)) is None
    assert affine_divide(Affine(2, 0), Affine(2, 0)) == Affine(1, 0)


def test_ideal_member_examples():
    whole = make_ideal("M", [Affine(1, 0)])
    assert ideal_member(whole, Affine(5, 3)) == Affine(5, 3)
    evens = make_ideal("M", [Affine(2, 0)])
    w = ideal_member(evens, Affine(4, 2))
    assert w == Affine(2, 1)
    assert seq_equal(m_compose(affine(Affine(2, 0)), affine(w)), affine(Affine(4, 2)))
    assert ideal_member(evens, Affine(2, 1)) is None


def test_make_ideal_refuses_non_affine_generators():
    interleave = make_seq(NNU, (), (WalkThread(NAT_TAIL, 4, 0), WalkThread(NAT_TAIL, 4, 2)))
    with pytest.raises(PresentationError):
        make_ideal("M", [Affine(2, 0), interleave])
    with pytest.raises(PresentationError):
        make_ideal("M+", [based_affine_conv(Affine(2, 0))])
    with pytest.raises(PresentationError):
        make_ideal("M+", [constant_conv(0)])


def test_ideal_member_mplus():
    # On the convergent-map monoid a generator stands for its based
    # extension, and the quotient composes back through the added point.
    evens = make_ideal("M+", [Affine(2, 0)])
    w = ideal_member(evens, Affine(4, 2))
    assert w == Affine(2, 1)
    composite = conv_compose(based_affine_conv(Affine(2, 0)), based_affine_conv(w))
    assert conv_equal(composite, based_affine_conv(Affine(4, 2)))
    assert ideal_member(evens, Affine(2, 1)) is None
    whole = make_ideal("M+", [Affine(1, 0)])
    assert ideal_member(whole, Affine(3, 7)) == Affine(3, 7)


def test_monoid_action_laws():
    rng = random.Random(1)
    for _ in range(60):
        s = make_seq(
            NNU,
            [TailPoint(NAT_TAIL, rng.randrange(9)) for _ in range(rng.randrange(3))],
            [
                WalkThread(NAT_TAIL, rng.randrange(1, 4), rng.randrange(6))
                for _ in range(rng.randrange(1, 3))
            ],
        )
        u = Affine(rng.randrange(1, 4), rng.randrange(5))
        v = Affine(rng.randrange(1, 4), rng.randrange(5))
        left = m_compose(m_compose(s, affine(u)), affine(v))
        right = m_compose(s, affine(u.then(v)))
        for n in range(100):
            assert left.at(n) == right.at(n)


def test_conv_compose_handles_added_point():
    g = ConvElem(walk_seq(NP.universe, NAT_TAIL), INF)
    # Right factor hits the added point at position 0, then escapes.
    u_seq = make_seq(NP.universe, (INF,), (WalkThread(NAT_TAIL, 1, 0),))
    u = ConvElem(u_seq, INF)
    comp = conv_compose(g, u)
    assert comp.seq.at(0) == INF
    assert comp.seq.at(3) == g.seq.at(u_seq.at(3).index)
    assert comp.limit == INF
    c = conv_compose(g, constant_conv(5))
    assert c.limit == g.seq.at(5)


# -- coverings ----------------------------------------------------------------


def test_cover_whole_monoid():
    assert is_cover(make_ideal("M", [Affine(1, 0)]), "Je").status == "yes"


def test_cover_two_residues():
    assert is_cover(make_ideal("M", [Affine(2, 0), Affine(2, 1)]), "Je").status == "yes"


def test_cover_evens_fails_with_witness():
    res = is_cover(make_ideal("M", [Affine(2, 0)]), "Je")
    assert res.status == "no" and res.witness == Affine(2, 1)
    # The witness really fails: no affine right factor lands in the ideal.
    evens = make_ideal("M", [Affine(2, 0)])
    for a in range(1, 9):
        for b in range(0, 9):
            comp = res.witness.then(Affine(a, b))
            assert ideal_member(evens, comp) is None


def test_cover_carrier_mismatch():
    with pytest.raises(PresentationError):
        is_cover(make_ideal("M", [Affine(1, 0)]), "Jc")


def test_cover_jc_needs_constants():
    gens = [Affine(2, 0), Affine(2, 1)]
    assert is_cover(make_ideal("M+", gens), "Jc").status == "yes"
    # Shift one progression up: every residue is still met, so the ideal
    # covers for Je, but the constant at 0 factors through no generator.
    gens2 = [Affine(2, 2), Affine(2, 1)]
    assert is_cover(make_ideal("M", gens2), "Je").status == "yes"
    assert is_cover(make_ideal("M+", gens2), "Jc").status == "no"
    gens3 = gens2 + [Affine(3, 0)]
    assert is_cover(make_ideal("M+", gens3), "Jc").status == "yes"


def test_cover_exactness_vs_bounded_search():
    rng = random.Random(2)
    for _ in range(60):
        gens = [
            Affine(rng.randrange(1, 7), rng.randrange(0, 7))
            for _ in range(rng.randrange(1, 4))
        ]
        ideal = make_ideal("M", gens)
        res = is_cover(ideal, "Je")
        assert res.status in ("yes", "no")
        if res.status == "no":
            u = res.witness
            for a in range(1, 7):
                for b in range(0, 7):
                    assert ideal_member(ideal, u.then(Affine(a, b))) is None
        else:
            for a in range(1, 5):
                for b in range(0, 5):
                    u = Affine(a, b)
                    found = any(
                        ideal_member(ideal, u.then(Affine(av, bv))) is not None
                        for av in range(1, 13)
                        for bv in range(0, 13)
                    )
                    assert found


def scanned_cover(ideal, topology):
    """`is_cover` as a scan of every residue and every natural below the
    bound, one generator test each: the reference for the residue table."""
    gens = ideal.generators
    lam = math.lcm(*(g.a for g in gens))
    for r in range(lam):
        if not any((r - g.b) % g.a == 0 for g in gens):
            return CoverResult("no", Affine(lam, r), lam)
    settle = max(g.b for g in gens)
    if topology == "Jc" and not all(
        any(v >= g.b and (v - g.b) % g.a == 0 for g in gens) for v in range(settle + lam)
    ):
        return CoverResult("no", None, lam)
    return CoverResult("yes", None, lam)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 8), st.integers(0, 9)), min_size=1, max_size=6),
    st.sampled_from([("M", "Je"), ("M+", "Jc")]),
)
def test_cover_matches_the_residue_scan(gens, site):
    carrier, topology = site
    ideal = make_ideal(carrier, [Affine(a, b) for a, b in gens])
    assert is_cover(ideal, topology) == scanned_cover(ideal, topology)


# -- the presheaf embedding -----------------------------------------------------


def test_yoneda_point():
    from extseq.instances import discrete_point

    one = build_sigma(discrete_point())
    pt = FinitePoint("pt")
    assert one.point_member(pt)
    assert one.c_member(one.cte(pt))
    from extseq.sequences import const_seq

    assert not one.e_member(const_seq(discrete_point().space.universe, pt))


def test_point_member_refuses_a_ref_outside_the_space():
    sigma = build_sigma(make_ext_space(mixed_space()))
    assert sigma.point_member(FinitePoint("v"))
    assert sigma.point_member(TailPoint("t2", 4))
    assert not sigma.point_member(FinitePoint("w"))
    assert not sigma.point_member(TailPoint("t3", 0))


def test_conv_equal_needs_both_the_limit_and_the_sequence():
    a, b = based_affine_conv(Affine(2, 0)), based_affine_conv(Affine(2, 1))
    assert a.limit == b.limit and not seq_equal(a.seq, b.seq)
    assert not conv_equal(a, b)
    assert not conv_equal(a, ConvElem(a.seq, TailPoint(NAT_TAIL, 0)))
    assert conv_equal(a, based_affine_conv(Affine(2, 0)))


def test_a_morphism_into_the_naturals_has_a_tail_limit():
    # h: ℕ⁺ -> ℕ is an eventually constant sequence over the naturals with
    # a tail point as its limit; the composite's limit is s at that index.
    s = walk_seq(NN.universe, NAT_TAIL, 2, 1)
    at_3 = make_seq(NN.universe, (), (ConstThread(TailPoint(NAT_TAIL, 3)),))
    h = ConvElem(at_3, TailPoint(NAT_TAIL, 3))
    assert _compose_with_nat_conv(s, h).limit == s.at(3)
    over_nat_plus = ConvElem(make_seq(NP.universe, (), at_3.threads), h.limit)
    for bad in (ConvElem(at_3, INF), over_nat_plus):
        with pytest.raises(PresentationError):
            _compose_with_nat_conv(s, bad)


def test_yoneda_nat_plus():
    two = build_sigma(make_ext_space(NP))
    assert two.c_member(based_affine_conv(Affine(1, 0)))
    assert two.c_member(constant_conv(3))
    mixed = make_seq(
        NP.universe, (), (WalkThread(NAT_TAIL, 1, 0), ConstThread(TailPoint(NAT_TAIL, 2)))
    )
    assert not two.c_member(ConvElem(mixed, INF))
    assert not two.e_member(walk_seq(NP.universe, NAT_TAIL))


def test_yoneda_nat():
    nn_sigma = build_sigma(nat_cofinite())
    assert nn_sigma.e_member(walk_seq(NNU, NAT_TAIL))
    assert nn_sigma.e_member(affine(Affine(3, 2)))
    assert not nn_sigma.e_member(
        make_seq(NNU, (), (ConstThread(TailPoint(NAT_TAIL, 1)),))
    )
    # Convergent component: eventually constant sequences with their value.
    ev = make_seq(
        NNU, (TailPoint(NAT_TAIL, 5),), (ConstThread(TailPoint(NAT_TAIL, 3)),)
    )
    assert nn_sigma.c_member(ConvElem(ev, TailPoint(NAT_TAIL, 3)))
    assert not nn_sigma.c_member(ConvElem(ev, TailPoint(NAT_TAIL, 5)))
    assert not nn_sigma.c_member(
        ConvElem(walk_seq(NNU, NAT_TAIL), TailPoint(NAT_TAIL, 0))
    )


def test_e_sample_draws_from_the_canonical_pair():
    # The raw pair L = {v}, D = {} presents D = {t1}, so walks on t1 are
    # exterior sequences; the draws are those of the canonical pair.
    raw = ExtSpace(mixed_space(), Externology(("v",), ()))
    draws = build_sigma(raw).e_sample(random.Random(0), 200)
    assert any(isinstance(th, WalkThread) for s in draws for th in s.threads)
    assert all(build_sigma(raw).e_member(s) for s in draws)
    assert draws == build_sigma(coreflect(raw)).e_sample(random.Random(0), 200)


def test_sigma_of_map_passes_cmap_check():
    rng = random.Random(3)
    for _ in range(25):
        dom, cod = gen_space(rng), gen_space(rng)
        e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
        f = gen_map(rng, dom, cod)
        from extseq.maps import is_exterior_map

        if not is_exterior_map(f, e_dom, e_cod):
            continue
        report = c_map_check(
            sigma_map(f), build_sigma(e_dom), build_sigma(e_cod), random.Random(7), 10
        )
        assert report.ok, report


def test_sigma_functorial():
    rng = random.Random(4)
    from extseq.maps import compose_maps

    for _ in range(30):
        a, b, c = gen_space(rng), gen_space(rng), gen_space(rng)
        f, g = gen_map(rng, a, b), gen_map(rng, b, c)
        gf = compose_maps(f, g)
        phi, psi, rho = sigma_map(f), sigma_map(g), sigma_map(gf)
        from extseq.generate import gen_seq, sample_point

        for _ in range(8):
            p = sample_point(rng, a)
            assert rho.on_point(p) == psi.on_point(phi.on_point(p))
            s = gen_seq(rng, a)
            assert seq_equal(rho.on_ext(s), psi.on_ext(phi.on_ext(s)))


def test_cmap_check_detects_broken_components():
    sigma = build_sigma(nat_cofinite())
    good = sigma_map(identity_map(NN))
    assert c_map_check(good, sigma, sigma, random.Random(5), 12).ok

    shuffled = CMap(
        on_point=good.on_point,
        on_conv=good.on_conv,
        on_ext=lambda s: subseq(s, Affine(2, 0)),
    )
    rep = c_map_check(shuffled, sigma, sigma, random.Random(5), 12)
    assert not rep.ok and rep.failed_square in ("e-action", "ev-n-ext")

    broken_ev = CMap(
        on_point=good.on_point,
        on_conv=lambda ce: ConvElem(subseq(ce.seq, Affine(1, 1)), ce.limit),
        on_ext=good.on_ext,
    )
    rep2 = c_map_check(broken_ev, sigma, sigma, random.Random(5), 12)
    assert not rep2.ok and rep2.failed_square in ("ev-n", "cte", "c-action")


# -- gluing ---------------------------------------------------------------------


def test_sigma_action_and_evaluation_laws():
    # The site's morphisms act on every Σe by composition in the monoids and
    # by a sequence's own evaluation.
    rng = random.Random(8)
    checked = 0
    while checked < 20:
        space = gen_space(rng, "tailed")
        ext = gen_ext(rng, space)
        sigma = build_sigma(ext)
        exts = sigma.e_sample(rng, 3)
        convs = sigma.c_sample(rng, 3)
        if not exts or not convs:
            continue
        checked += 1
        u = Affine(rng.randrange(1, 4), rng.randrange(0, 5))
        v = Affine(rng.randrange(1, 4), rng.randrange(0, 5))
        for s in exts:
            assert seq_equal(m_compose(s, affine(IDENTITY)), s)
            left = m_compose(m_compose(s, affine(u)), affine(v))
            right = m_compose(s, affine(u.then(v)))
            assert seq_equal(left, right)
            for n in (0, 2, 5):
                assert m_compose(s, affine(u)).at(n) == s.at(u(n))
        for ce in convs:
            ub = based_affine_conv(u)
            assert conv_equal(conv_compose(ce, based_affine_conv(IDENTITY)), ce)
            for n in (0, 1, 4):
                assert conv_compose(ce, ub).seq.at(n) == ce.seq.at(u(n))
            assert conv_compose(ce, ub).limit == ce.limit
            # Composing with a constant evaluates and freezes.
            froze = conv_compose(ce, constant_conv(2))
            assert froze.limit == ce.seq.at(2)


def test_sigma_is_a_value():
    rng = random.Random(9)
    for _ in range(10):
        ext = gen_ext(rng, gen_space(rng))
        a, b = build_sigma(ext), build_sigma(ext)
        assert a == b and hash(a) == hash(b)
        assert a == Sigma(ext) and a.e is ext
    assert build_sigma(nat_cofinite()) != build_sigma(make_ext_space(NP))


def test_glue_round_trip_identity():
    sigma = build_sigma(nat_cofinite())
    ideal = make_ideal("M", [Affine(2, 0), Affine(2, 1)])
    section = walk_seq(NNU, NAT_TAIL)
    morphs = [
        ConvElem(
            make_seq(NNU, (TailPoint(NAT_TAIL, 4),), (ConstThread(TailPoint(NAT_TAIL, 2)),)),
            TailPoint(NAT_TAIL, 2),
        )
    ]
    fam, pts, conv = restrict_family(section, ideal, morphs)
    res = glue(sigma, ideal, fam, pts, conv)
    assert res.kind == "amalgamation" and seq_equal(res.seq, section)


def test_glue_incompatible_at_two():
    sigma = build_sigma(nat_cofinite())
    ideal = make_ideal("M", [Affine(2, 0), Affine(2, 1)])
    section = walk_seq(NNU, NAT_TAIL)
    fam, pts, conv = restrict_family(section, ideal, ())
    fam[Affine(2, 0)] = make_seq(
        NNU, (section.at(0), TailPoint(NAT_TAIL, 9)), (WalkThread(NAT_TAIL, 2, 4),)
    )
    res = glue(sigma, ideal, fam, pts, conv)
    assert res.kind == "incompatible"
    assert res.conflict[0] == Affine(2, 0) and res.conflict[2] == 2


def test_glue_generator_pair_conflict():
    sigma = build_sigma(nat_cofinite())
    ideal = make_ideal("M", [Affine(2, 0), Affine(4, 2)])
    section = walk_seq(NNU, NAT_TAIL)
    fam, pts, conv = restrict_family(section, ideal, ())
    # Tamper the finer generator so the two disagree on the overlap 4n+2.
    fam[Affine(4, 2)] = make_seq(NNU, (), (WalkThread(NAT_TAIL, 4, 3),))
    res = glue(sigma, ideal, fam, pts, conv, require_cover=False)
    assert res.kind == "incompatible"
    assert set(res.conflict[:2]) == {Affine(2, 0), Affine(4, 2)}


def _scanned_overlap(u1, u2):
    """The least shared value of the two progressions, found by stepping."""
    v = max(u1.b, u2.b)
    while (v - u1.b) % u1.a or (v - u2.b) % u2.a:
        v += 1
    return (v - u1.b) // u1.a, (v - u2.b) // u2.a


def test_first_overlap_is_the_least_shared_value():
    pairs = 0
    for a1 in range(1, 9):
        for a2 in range(1, 9):
            for b1 in range(9):
                for b2 in range(9):
                    if (b2 - b1) % math.gcd(a1, a2):
                        continue
                    u1, u2 = Affine(a1, b1), Affine(a2, b2)
                    assert _first_overlap(u1, u2) == _scanned_overlap(u1, u2), (u1, u2)
                    pairs += 1
    assert pairs == 4134


def test_glue_non_covering_not_exterior():
    sigma = build_sigma(nat_cofinite())
    evens = make_ideal("M", [Affine(2, 0)])
    stuck = make_seq(
        NNU, (), (WalkThread(NAT_TAIL, 1, 0), ConstThread(TailPoint(NAT_TAIL, 5)))
    )
    fam = {Affine(2, 0): subseq(stuck, Affine(2, 0))}
    res = glue(sigma, evens, fam, stuck, (), require_cover=False)
    assert res.kind == "no_amalgamation"
    with pytest.raises(PresentationError):
        glue(sigma, evens, fam, stuck, ())


def test_glue_conv_component_checked():
    sigma = build_sigma(nat_cofinite())
    ideal = make_ideal("M", [Affine(2, 0), Affine(2, 1)])
    section = walk_seq(NNU, NAT_TAIL)
    h = ConvElem(
        make_seq(NNU, (), (ConstThread(TailPoint(NAT_TAIL, 2)),)), TailPoint(NAT_TAIL, 2)
    )
    fam, pts, conv = restrict_family(section, ideal, [h])
    wrong = ConvElem(
        make_seq(NNU, (), (ConstThread(TailPoint(NAT_TAIL, 3)),)), TailPoint(NAT_TAIL, 3)
    )
    res = glue(sigma, ideal, fam, pts, [(h, wrong)])
    assert res.kind == "incompatible"


def test_glue_round_trips_on_generated_instances():
    rng = random.Random(6)
    done = 0
    while done < 40:
        space = gen_space(rng, "tailed")
        ext = gen_ext(rng, space)
        sigma = build_sigma(ext)
        secs = sigma.e_sample(rng, 2)
        if not secs:
            continue
        done += 1
        modulus = rng.randrange(1, 4)
        ideal = make_ideal("M", [Affine(modulus, r) for r in range(modulus)])
        fam, pts, conv = restrict_family(secs[0], ideal, ())
        res = glue(sigma, ideal, fam, pts, conv)
        assert res.kind == "amalgamation" and seq_equal(res.seq, secs[0])


def pairwise_first_glue(cset, ideal, family, points, conv_sample=(), require_cover=True):
    """`glue` in its pairwise-first order: every pair of generators is
    scanned for an overlap conflict before the point component is read.
    The reference for the point-component-first order."""
    if ideal.carrier != "M":
        raise PresentationError("gluing happens over ideals of the exterior monoid")
    gens = ideal.generators
    if require_cover and is_cover(ideal, "Je").status != "yes":
        raise PresentationError("the ideal is not covering; pass require_cover=False to force")
    values = [family.get(u) for u in gens]
    for u, h in zip(gens, values):
        if h is None:
            raise PresentationError(f"family misses generator {u!r}")
        if not cset.e_member(h):
            raise PresentationError(f"family value at {u!r} is not an exterior element")
    for i, u1 in enumerate(gens):
        for j in range(i + 1, len(gens)):
            clash = _overlap_conflict(u1, values[i], gens[j], values[j])
            if clash is not None:
                return GlueResult("incompatible", conflict=(u1, gens[j], clash))
    for u, h in zip(gens, values):
        n = first_difference(subseq(points, u), h)
        if n is not None:
            return GlueResult("incompatible", conflict=(u, "points", u(n)))
    if not cset.e_member(points):
        return GlueResult("no_amalgamation", reason="glued sequence is not an exterior element")
    for h, claimed in conv_sample:
        if not conv_equal(_compose_with_nat_conv(points, h), claimed):
            return GlueResult("incompatible", conflict=(h, "conv", None))
    return GlueResult("amalgamation", seq=points)


def changed_at(s, k, p):
    """s with its value at k replaced by p: the first k + 1 values written
    out as the prefix, and s's own threads from k + 1 on, so its threads,
    and with them its exteriority, are unchanged."""
    pre, threads = _subseq(s, 1, k + 1)
    return Seq(s.universe, tuple(s.at(n) for n in range(k)) + (p,) + pre, threads)


def other_point(rng, space, old):
    """A point of the space other than `old`."""
    while True:
        p = sample_point(rng, space)
        if p != old:
            return p


GLUE_CASES = (
    "genuine", "value", "points", "both", "not-exterior", "other-universe", "threadless",
)  # fmt: skip


def glue_case(rng, case):
    """Arguments for `glue`: a family restricted from a sampled exterior
    sequence over an ideal with overlapping generators, then one change."""
    space = gen_space(rng, "tailed")
    tails = {space.tails[0]} | {t for t in space.tails if rng.random() < 0.5}
    ext = make_ext_space(space, [x for x in space.points if rng.random() < 0.3], tails)
    sigma = build_sigma(ext)
    (section,) = sigma.e_sample(rng, 1)
    modulus = 1 + rng.randrange(3)
    gens = {Affine(modulus, r + modulus * rng.randrange(2)) for r in range(modulus)}
    gens |= {Affine(1 + rng.randrange(6), rng.randrange(8)) for _ in range(rng.randrange(4))}
    ideal = make_ideal("M", sorted(gens, key=lambda u: (u.a, u.b)))
    limit = TailPoint(NAT_TAIL, rng.randrange(5))
    pre = tuple(TailPoint(NAT_TAIL, rng.randrange(9)) for _ in range(rng.randrange(3)))
    morph = ConvElem(make_seq(NNU, pre, (ConstThread(limit),)), limit)
    fam, points, conv = restrict_family(section, ideal, [morph])
    u = rng.choice(ideal.generators)
    if case in ("value", "both"):
        k = rng.randrange(12)
        fam[u] = changed_at(fam[u], k, other_point(rng, space, fam[u].at(k)))
    if case in ("points", "both"):
        k = rng.randrange(30)
        points = changed_at(points, k, other_point(rng, space, points.at(k)))
    if case == "not-exterior":
        fam[u] = make_seq(space.universe, (), (ConstThread(TailPoint(space.tails[0], 0)),))
    if case == "other-universe":
        points = walk_seq(NNU, NAT_TAIL)
    if case == "threadless":  # no sequence, though its values agree with points
        fam[u] = Seq(space.universe, tuple(fam[u].at(n) for n in range(40)), ())
    return sigma, ideal, fam, points, conv, rng.random() < 0.8


def outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(GLUE_CASES))
def test_glue_checks_the_point_component_first_with_the_pairwise_first_result(seed, case):
    # Whatever the change, `glue` gives the same GlueResult (kind, seq,
    # conflict, reason), or raises the same exception, as the
    # pairwise-first order.
    args = glue_case(random.Random(seed), case)
    assert outcome(glue, *args) == outcome(pairwise_first_glue, *args)


def test_glue_reports_the_pairwise_conflict_before_the_point_component_miss():
    # The family clashes pairwise and with the point component, which is
    # read first: the pairwise conflict is still the one reported.
    sigma = build_sigma(nat_cofinite())
    ideal = make_ideal("M", [Affine(1, 0), Affine(2, 0)])
    section = walk_seq(NNU, NAT_TAIL)
    fam, pts, _ = restrict_family(section, ideal, ())
    fam[Affine(2, 0)] = changed_at(fam[Affine(2, 0)], 3, TailPoint(NAT_TAIL, 0))
    want = GlueResult("incompatible", conflict=(Affine(1, 0), Affine(2, 0), 6))
    assert glue(sigma, ideal, fam, pts) == pairwise_first_glue(sigma, ideal, fam, pts) == want
    # The point component over another universe raises, unless a pairwise
    # conflict comes first.
    other = walk_seq(NP.universe, NAT_TAIL)
    assert glue(sigma, ideal, fam, other) == want
    fam, _, _ = restrict_family(section, ideal, ())
    with pytest.raises(UniverseMismatch):
        glue(sigma, ideal, fam, other)
