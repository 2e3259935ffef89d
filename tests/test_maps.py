"""Map deciders: examples, the fast-path validation obligations, and closure laws."""

import random
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extseq import generate, maps
from extseq.compactify import plus, plus_map
from extseq.core import EvSet, FinitePoint, TailPoint, ev_set
from extseq.errors import PresentationError, UniverseMismatch
from extseq.exteriority import (
    ExtSpace,
    _canonical_masks,
    _pair_masks,
    cocompact_ext_space,
    coreflect,
    exterior_base,
    is_e_open,
    is_exterior_seq,
)
from extseq.generate import (
    PROFILES,
    gen_ext,
    gen_map,
    gen_seq,
    gen_space,
    generate_instances,
    sample_evset,
    sample_open_set,
    sample_point,
)
from extseq.instances import NAT_TAIL, nat_plus_space, nat_space
from extseq.maps import (
    MapProps,
    TailToConst,
    TailToTail,
    _derived_map,
    _preserves_exterior_seqs,
    apply_map,
    compose_maps,
    is_continuous,
    is_e_sequential_map,
    is_exterior_map,
    is_seq_continuous,
    is_seq_proper,
    make_map,
    map_properties,
    map_seq,
    preimage,
)
from extseq.sequences import classify, const_seq, limit_set, seq_equal, walk_seq
from extseq.sheaves import build_sigma
from extseq.spaces import is_open, open_basic_neighborhood, validate_space
from extseq.suites import run_suites
from support import exterior_by_names, identity_map, raw_pair, sierpinski_space

NN = nat_space()
NP = nat_plus_space()
SP = sierpinski_space()


def test_identity_has_all_four_properties():
    mp = map_properties(identity_map(NN))
    assert (mp.continuous, mp.proper, mp.seq_continuous, mp.seq_proper) == (
        True,
        True,
        True,
        True,
    )


def test_constant_map_to_limit_point():
    f = make_map(NN, NP, {}, {NAT_TAIL: TailToConst(FinitePoint("inf"))})
    mp = map_properties(f)
    assert mp.continuous and mp.seq_continuous
    assert not mp.proper and not mp.seq_proper
    # The witness: the identity walk is proper upstream, its image constant.
    image = map_seq(f, walk_seq(NN.universe, NAT_TAIL))
    assert classify(NN, walk_seq(NN.universe, NAT_TAIL)).proper
    assert not classify(NP, image).proper


def test_shift_is_proper():
    f = make_map(NN, NN, {}, {NAT_TAIL: TailToTail(NAT_TAIL, 1, 1)})
    mp = map_properties(f)
    assert (mp.continuous, mp.proper, mp.seq_continuous, mp.seq_proper) == (
        True,
        True,
        True,
        True,
    )
    # Oracle: the preimage of each cofinite base member is cofinite (k <= 10).
    from extseq.core import ev_set

    for k in range(11):
        member = ev_set(NN.universe, eventual={NAT_TAIL: True}, flips={NAT_TAIL: range(k)})
        assert preimage(f, member).is_cofinite_on(NAT_TAIL)


def test_discontinuous_at_limit():
    # Sends the limit to the closed point but the tail to the open point.
    f = make_map(
        NP, SP, {"inf": FinitePoint("1")}, {NAT_TAIL: TailToConst(FinitePoint("0"))}
    )
    assert not is_continuous(f)
    assert not is_seq_continuous(f)
    g = make_map(
        NP, SP, {"inf": FinitePoint("0")}, {NAT_TAIL: TailToConst(FinitePoint("1"))}
    )
    assert is_continuous(g)
    assert is_seq_continuous(g)


def test_compose_with_identity_canonical():
    rng = random.Random(1)
    for _ in range(20):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        assert compose_maps(identity_map(dom), f) == f
        assert compose_maps(f, identity_map(cod)) == f


def test_shift_composition_adds():
    shift = make_map(NN, NN, {}, {NAT_TAIL: TailToTail(NAT_TAIL, 1, 1)})
    twice = compose_maps(shift, shift)
    assert twice.on_tails[0][1] == TailToTail(NAT_TAIL, 1, 2)


def test_compose_is_pointwise_composition():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = gen_space(rng), gen_space(rng), gen_space(rng)
        f, g = gen_map(rng, a, b), gen_map(rng, b, c)
        gf = compose_maps(f, g)
        # Built without a check, it is the map make_map would validate.
        assert gf == make_map(a, c, dict(gf.on_points), dict(gf.on_tails))
        from extseq.generate import sample_point

        for _ in range(15):
            p = sample_point(rng, a, tail_index_bound=30)
            assert apply_map(gf, p) == apply_map(g, apply_map(f, p))


def test_composition_preserves_properness():
    rng = random.Random(3)
    seen = 0
    for _ in range(200):
        a, b, c = gen_space(rng), gen_space(rng), gen_space(rng)
        f, g = gen_map(rng, a, b), gen_map(rng, b, c)
        if map_properties(f).proper and map_properties(g).proper:
            seen += 1
            gf = compose_maps(f, g)
            assert map_properties(gf).proper
            # Cross-check by sequence preservation.
            for t in a.tails:
                from extseq.spaces import attach_map

                if not attach_map(a)[t]:
                    assert classify(c, map_seq(gf, walk_seq(a.universe, t))).proper
    assert seen > 5


@pytest.mark.parametrize("profile", PROFILES)
def test_category_laws_hold_on_composites(profile):
    # Each MapProps property is closed under composition, and preimage and
    # map_seq are functorial.  A composite's sequence is compared as a
    # function (`seq_equal`): map_seq of a composite can present it
    # differently.  f is an instance's map into its partner, and g a map
    # from the partner into a third space.
    closed = dict.fromkeys((f.name for f in fields(MapProps)), 0)
    composites = 0
    for seed in range(10):
        rng = random.Random(seed)
        for inst in generate_instances(seed, 10, profile, seqs_per=2, maps_per=4):
            partner = inst.partner.space
            third = gen_space(rng, profile)
            for f in inst.maps:
                g = gen_map(rng, partner, third)
                gf = compose_maps(f, g)
                composites += 1
                pf, pg, pgf = map_properties(f), map_properties(g), map_properties(gf)
                for name in closed:
                    if getattr(pf, name) and getattr(pg, name):
                        closed[name] += 1
                        assert getattr(pgf, name), (name, f, g)
                for _ in range(3):
                    c = sample_evset(rng, third)
                    assert preimage(gf, c) == preimage(f, preimage(g, c))
                for s in inst.seqs:
                    assert seq_equal(map_seq(gf, s), map_seq(g, map_seq(f, s)))
    assert composites == 400
    assert min(closed.values()) > 5, closed


def test_map_seq_pointwise_to_200():
    rng = random.Random(4)
    for _ in range(150):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        s = gen_seq(rng, dom)
        image = map_seq(f, s)
        for n in range(200):
            assert image.at(n) == apply_map(f, s.at(n))


def test_preimage_is_exact():
    rng = random.Random(5)
    for _ in range(60):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        from extseq.generate import sample_evset, sample_point

        s = sample_evset(rng, cod)
        pre = preimage(f, s)
        for _ in range(30):
            p = sample_point(rng, dom, tail_index_bound=25)
            assert pre.member(p) == s.member(apply_map(f, p))


def test_preimage_is_canonical_and_pointwise_exact():
    # Every finite point and every tail index up to past the last exception
    # and the last flip on either side; past those, membership is the
    # eventual flag on both sides.
    rng = random.Random(18)
    seen = {TailToTail: 0, TailToConst: 0}
    for _ in range(150):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        for _, img in f.on_tails:
            if img.exceptions:
                seen[type(img)] += 1
        for j in range(4):
            s = (sample_evset if j % 2 == 0 else sample_open_set)(rng, cod)
            pre = preimage(f, s)
            assert pre == ev_set(
                pre.universe,
                pre.finite,
                {t: ev for t, ev, _ in pre.rows},
                {t: fl for t, _, fl in pre.rows},
            )
            for x in dom.points:
                p = FinitePoint(x)
                assert pre.member(p) == s.member(apply_map(f, p))
            for t, img in f.on_tails:
                bound = 2 + max(
                    [m for m, _ in img.exceptions]
                    + [m for _, _, fl in s.rows + pre.rows for m in fl],
                    default=0,
                )
                for m in range(bound):
                    p = TailPoint(t, m)
                    assert pre.member(p) == s.member(apply_map(f, p))
    assert min(seen.values()) > 5


def test_preimage_rejects_foreign_sets_and_bad_images():
    f = make_map(NP, SP, {"inf": FinitePoint("1")}, {NAT_TAIL: TailToConst(FinitePoint("1"))})
    with pytest.raises(UniverseMismatch):
        preimage(f, ev_set(NN.universe))
    bad_point = replace(f, on_points=(("inf", FinitePoint("nope")),))
    with pytest.raises(PresentationError):
        preimage(bad_point, ev_set(SP.universe))
    bad_tail = replace(f, on_tails=((NAT_TAIL, TailToTail("nope")),))
    with pytest.raises(PresentationError):
        preimage(bad_tail, ev_set(SP.universe))


def continuous_by_preimages(rng, f) -> bool:
    """The preimage-of-opens oracle: no sampled open of the codomain, and no
    basic neighborhood (the canonical witnesses of a discontinuity), has a
    preimage that is not open.  The draws stop at the first witness."""
    dom, cod = f.dom, f.cod
    if any(not is_open(dom, preimage(f, sample_open_set(rng, cod))) for _ in range(200)):
        return False
    witnesses = [open_basic_neighborhood(cod, x, k) for x in cod.points for k in (0, 3, 9)]
    return all(is_open(dom, preimage(f, w)) for w in witnesses)


def test_continuity_fast_path_matches_preimage_of_opens():
    # Validation obligation: agreement with the preimage-of-open test on
    # 200 sampled open sets per generated map.
    rng = random.Random(6)
    for _ in range(40):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        assert is_continuous(f) == continuous_by_preimages(rng, f)


@pytest.mark.parametrize("profile", PROFILES)
def test_the_converging_table_lists_each_points_generators(profile):
    # The table is derived on the first map decision over a domain and held
    # on its view; each point's row is the points of minOpen(x), then the
    # tails x captures, in presentation order.
    rng = random.Random(5)
    for _ in range(40):
        dom, cod = gen_space(rng, profile), gen_space(rng, profile)
        dv = dom.compiled
        assert dv.converging is None
        f = gen_map(rng, dom, cod)
        is_continuous(f)
        if not dom.points:
            # No point, so no generator list was read.
            assert dv.converging is None
            continue
        table = dv.converging
        min_open, attach = dict(dom.min_open), dict(dom.attach)
        assert set(table) == set(dv.up)
        for x, b in dv.point_bit.items():
            assert list(table[b]) == dv.names(dv.up[b]) + dv.tail_names(dv.cofinite_tails[b])
            captured = [t for t in dom.tails if set(attach[t]) & set(min_open[x])]
            assert list(table[b]) == [y for y in dom.points if y in min_open[x]] + captured
        is_seq_continuous(f)
        assert dv.converging is table


def test_a_mutant_generator_list_is_caught_by_preimages(monkeypatch):
    # Both continuity deciders read the one generator list (`_converging`),
    # so prop-3-4 cannot see a fault in it: a mutant that drops the walks x
    # captures keeps is_continuous == is_seq_continuous on every map, and
    # only the preimage-of-opens oracle tells it from the real list.
    def constants_only(dv, heads, b):
        return [heads[y] for y in dv.names(dv.up[b])]

    monkeypatch.setattr(maps, "_converging", constants_only)
    rng = random.Random(6)
    caught = 0
    for _ in range(40):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        assert is_continuous(f) == is_seq_continuous(f)
        caught += is_continuous(f) != continuous_by_preimages(rng, f)
    assert caught > 0


def test_continuous_iff_seq_continuous_on_generated_maps():
    rng = random.Random(7)
    for _ in range(250):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        assert is_continuous(f) == is_seq_continuous(f)


def test_proper_iff_seq_proper_on_generated_maps():
    rng = random.Random(8)
    for _ in range(250):
        dom, cod = gen_space(rng), gen_space(rng)
        mp = map_properties(gen_map(rng, dom, cod))
        assert mp.proper == mp.seq_proper


def test_proper_maps_preserve_proper_sequences():
    from support import gen_proper_seq

    rng = random.Random(9)
    seen = 0
    for _ in range(300):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        if not map_properties(f).proper:
            continue
        s = gen_proper_seq(rng, dom)
        if s is None:
            continue
        seen += 1
        assert classify(cod, map_seq(f, s)).proper
    assert seen > 5


def test_proper_decider_stable_beyond_presentation_bound():
    # The parametric base check runs to the presentation bound; past it the
    # preimage complements change by finite sets only.  Cross-check against
    # a much deeper sweep.
    from extseq.core import ev_complement, ev_set
    from extseq.spaces import attach_map, set_properties

    def deep_proper(f, kmax=40):
        if not is_continuous(f):
            return False
        base_tails = [t for t in f.cod.tails if not attach_map(f.cod)[t]]
        for k in range(kmax):
            member = ev_set(
                f.cod.universe,
                (),
                eventual={t: True for t in base_tails},
                flips={t: range(k) for t in base_tails},
            )
            if not set_properties(f.dom, ev_complement(preimage(f, member))).compact:
                return False
        return True

    rng = random.Random(17)
    for _ in range(300):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        assert map_properties(f).proper == deep_proper(f)


def without_exceptions_and_offsets(f):
    """The map with every exception dropped and every re-indexing n -> n."""
    on_tails = {
        t: TailToTail(img.tail) if isinstance(img, TailToTail) else TailToConst(img.point)
        for t, img in f.on_tails
    }
    return make_map(f.dom, f.cod, dict(f.on_points), on_tails)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_map_verdicts_ignore_exceptions_and_offsets(seed):
    # The fact the presentation bound rests on: exceptions and offsets move
    # only flip sets of preimages and prefixes of image sequences.
    rng = random.Random(seed)
    dom, cod = gen_space(rng), gen_space(rng)
    e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
    f = gen_map(rng, dom, cod)
    g = without_exceptions_and_offsets(f)
    assert map_properties(g) == map_properties(f)
    assert is_exterior_map(g, e_dom, e_cod) == is_exterior_map(f, e_dom, e_cod)
    assert is_e_sequential_map(g, e_dom, e_cod) == is_e_sequential_map(f, e_dom, e_cod)


def test_properness_is_decided_past_the_named_index():
    # The free tail sent constantly to (n, 3) is continuous but not proper:
    # the compact set {(n, 3)} pulls back to the whole tail.  Base member 3
    # of the cocompact filter still holds (n, 3), so it alone would miss
    # that; member 4 = bound + 1 does not.
    f = make_map(NN, NN, {}, {NAT_TAIL: TailToConst(TailPoint(NAT_TAIL, 3))})
    cc = cocompact_ext_space(NN)
    assert is_continuous(f)
    assert is_e_open(cc, preimage(f, exterior_base(cc, 3)))
    assert not is_e_open(cc, preimage(f, exterior_base(cc, 4)))
    assert not is_exterior_map(f, cc, cc)
    mp = map_properties(f)
    assert not mp.proper and not mp.seq_proper


ONE = validate_space(["x"], {"x": ["x"]})


@pytest.mark.parametrize(
    "dom, images",
    [
        (ONE, lambda index: ({"x": TailPoint(NAT_TAIL, index)}, {})),
        (NN, lambda index: ({}, {NAT_TAIL: TailToConst(TailPoint(NAT_TAIL, index))})),
    ],
    ids=["point-image", "constant-tail-image"],
)
def test_a_far_named_index_costs_no_memory(dom, images):
    # The pullback reads only the tail points a map names, so a point image
    # or constant tail image at index 10**6 costs what one at 3 does, and
    # gets its verdict.
    far = make_map(dom, NN, *images(10**6))
    tracemalloc.start()
    try:
        mp = map_properties(far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert mp == map_properties(make_map(dom, NN, *images(3)))


def test_make_map_validation():
    with pytest.raises(PresentationError):
        make_map(NN, NN, {}, {})  # missing tail image
    with pytest.raises(PresentationError):
        make_map(NN, NN, {}, {NAT_TAIL: TailToTail("zzz", 1, 0)})
    with pytest.raises(PresentationError):
        make_map(NN, NN, {"ghost": FinitePoint("x")}, {NAT_TAIL: TailToTail(NAT_TAIL)})
    twice = ((3, TailPoint(NAT_TAIL, 0)), (3, TailPoint(NAT_TAIL, 1)))
    with pytest.raises(PresentationError, match="repeated exception index 3"):
        make_map(NN, NN, {}, {NAT_TAIL: TailToTail(NAT_TAIL, exceptions=twice)})
    with pytest.raises(UniverseMismatch):
        f = identity_map(NN)
        g = identity_map(NP)
        compose_maps(f, g)


# -- sequential deciders on generator images --------------------------------


def seq_continuous_through_map_seq(f):
    """`is_seq_continuous` as it was before it decided on generator images:
    every probe is the composite sequence that `map_seq` builds."""
    dv, uni = f.dom.compiled, f.dom.universe
    for x, fx in f.on_points:
        b = dv.point_bit[x]
        for y in dv.names(dv.up[b]):
            if fx not in limit_set(f.cod, map_seq(f, const_seq(uni, FinitePoint(y)))):
                return False
        for t in dv.tail_names(dv.cofinite_tails[b]):
            if fx not in limit_set(f.cod, map_seq(f, walk_seq(uni, t))):
                return False
    return True


def preserves_exterior_seqs_through_map_seq(f, e_dom, e_cod):
    """`_preserves_exterior_seqs` by definition, on names: each generator of
    the domain's canonical pair, a constant at a limit point or a walk on a
    tail of D, has an image (through `map_seq`) that is exterior in the
    codomain (`exterior_by_names`)."""
    uni, ext = f.dom.universe, coreflect(e_dom).ext
    consts = (map_seq(f, const_seq(uni, FinitePoint(x))) for x in ext.limits)
    walks = (map_seq(f, walk_seq(uni, t)) for t in ext.tails)
    return all(exterior_by_names(e_cod, s) for s in (*consts, *walks))


def clean_value(img, m):
    """Where a tail image sends index m when m is no exception."""
    return img.point if isinstance(img, TailToConst) else TailPoint(img.tail, img.a * m + img.b)


def with_exceptions(rng, f):
    """The images of f with one to three more exceptions on every tail image,
    about a third of them equal to the clean value, listed out of order."""
    on_tails = {}
    for t, img in f.on_tails:
        exc = dict(img.exceptions)
        for m in rng.sample(range(10), 1 + rng.randrange(3)):
            exc[m] = clean_value(img, m) if rng.random() < 0.35 else sample_point(rng, f.cod)
        on_tails[t] = replace(img, exceptions=tuple(reversed(exc.items())))
    return dict(f.on_points), on_tails


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generator_image_route_agrees_with_map_seq_route(seed):
    # The sequential deciders read one thread per generator image; the
    # reference builds every probe through map_seq, prefix and all.  The
    # derived maps (gen_map, plus_map) must equal the validated ones.
    rng = random.Random(seed)
    dom, cod = gen_space(rng), gen_space(rng)
    with mock.patch.object(generate, "_derived_map", wraps=_derived_map) as spy:
        f = gen_map(rng, dom, cod)
    assert _derived_map(*spy.call_args.args) == make_map(*spy.call_args.args) == f
    on_points, on_tails = with_exceptions(rng, f)
    g = make_map(dom, cod, on_points, on_tails)
    assert _derived_map(dom, cod, on_points, on_tails) == g
    for t, img in g.on_tails:
        kept = {m: p for m, p in on_tails[t].exceptions if p != clean_value(img, m)}
        assert img.exceptions == tuple(sorted(kept.items(), key=lambda e: e[0]))
    dom_plus, cod_plus = plus(dom), plus(cod)
    maps_to_check = [f, g]
    for h in (f, g):
        extended = plus_map(h)
        on_points = dict(h.on_points, **{dom_plus.base_point: FinitePoint(cod_plus.base_point)})
        assert extended == make_map(dom_plus.space, cod_plus.space, on_points, dict(h.on_tails))
        maps_to_check.append(extended)
    for h in maps_to_check:
        assert is_seq_continuous(h) == seq_continuous_through_map_seq(h)
        pairs = [
            (cocompact_ext_space(h.dom), cocompact_ext_space(h.cod)),
            (gen_ext(rng, h.dom), gen_ext(rng, h.cod)),
            (raw_pair(rng, h.dom), raw_pair(rng, h.cod)),
        ]
        for e_dom, e_cod in pairs:
            by_names = preserves_exterior_seqs_through_map_seq(h, e_dom, e_cod)
            masks = (_canonical_masks(e_dom), _canonical_masks(e_cod))
            assert _preserves_exterior_seqs(h, *masks) == by_names
            assert is_e_sequential_map(h, e_dom, e_cod) == (is_seq_continuous(h) and by_names)
        assert map_properties(h).seq_proper == (
            is_seq_continuous(h) and preserves_exterior_seqs_through_map_seq(h, *pairs[0])
        )


def named_index_bound(f):
    """One past the largest tail index f names anywhere (a point image, a
    constant tail image or an exception), 0 if it names none."""
    refs = [p for _, p in f.on_points]
    for _, img in f.on_tails:
        refs += [p for _, p in img.exceptions]
        if isinstance(img, TailToConst):
            refs.append(img.point)
    return 1 + max((p.index for p in refs if isinstance(p, TailPoint)), default=-1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mask_pullback_matches_the_base_member_preimages(seed):
    # The pullback decides on the images' flags; the oracle builds each base
    # member E*_k of the canonical codomain pair (`exterior_base`) and its
    # preimage.  Past the named indices the verdict is that of every k; a
    # continuous map pulls the filter back iff every k up to there does.
    rng = random.Random(seed)
    dom, cod = gen_space(rng), gen_space(rng)
    f = gen_map(rng, dom, cod)
    g = make_map(dom, cod, *with_exceptions(rng, f))
    pairs = [
        (cocompact_ext_space(dom), cocompact_ext_space(cod)),
        (gen_ext(rng, dom), gen_ext(rng, cod)),
        (raw_pair(rng, dom), raw_pair(rng, cod)),
    ]
    for h in (f, g):
        past, cont = named_index_bound(h), is_continuous(h)
        verdicts = []
        for e_dom, e_cod in pairs:
            cod_canon = coreflect(e_cod)

            def pulls_back(k):
                return is_e_open(e_dom, preimage(h, exterior_base(cod_canon, k)))

            verdict = maps._pulls_back_filter(h, _pair_masks(e_dom), _canonical_masks(e_cod))
            assert verdict == pulls_back(past) == pulls_back(past + 1)
            if cont:
                assert verdict == all(pulls_back(k) for k in range(past + 1))
            assert is_exterior_map(h, e_dom, e_cod) == (cont and verdict)
            verdicts.append(verdict)
        assert map_properties(h).proper == (cont and verdicts[0])


def test_map_and_sequence_deciders_build_no_exterior_space_or_set(monkeypatch):
    # Exteriority is decided on masks: the filter pullback reads the images'
    # flags, the cocompact pairs are (0, unattached) off the view, and an
    # exterior sequence is read on the canonical masks.  So none of these
    # deciders builds an ExtSpace or an EvSet, on raw or canonical pairs.
    rng = random.Random(36)
    cases = []
    for _ in range(60):
        dom, cod = gen_space(rng), gen_space(rng)
        for e in (gen_ext(rng, dom), raw_pair(rng, dom)):
            cases.append((gen_map(rng, dom, cod), e, [gen_seq(rng, dom) for _ in range(3)]))
    built = []
    for cls in (ExtSpace, EvSet):

        def counting_init(self, *args, _init=cls.__init__):
            built.append(args)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    proper = exterior = 0
    for f, e, seqs in cases:
        sigma = build_sigma(e)
        mp = map_properties(f)
        assert is_seq_proper(f) == mp.seq_proper
        for s in seqs:
            assert is_exterior_seq(e, s) == sigma.e_member(s)
            exterior += sigma.e_member(s)
        proper += mp.proper
    assert built == []
    assert proper > 0 and exterior > 0


def test_map_suites_reach_limit_set_through_maps(monkeypatch):
    # The sequence side of prop-3-4 and thm-3-2 must go through the
    # per-thread rule that limit_set reads: a mutant that reads every walk
    # as converging to the whole finite part fails both suites.
    real = maps._thread_limits

    def walks_converge_everywhere(v, head):
        if isinstance(head, str):
            return v.all_points
        return real(v, head)

    monkeypatch.setattr(maps, "_thread_limits", walks_converge_everywhere)
    reports = run_suites(["proper-vs-seqproper", "plus-map-continuity"], 42, 10)
    assert [r.suite for r in reports] == ["proper-vs-seqproper", "plus-map-continuity"]
    assert all(r.failed > 0 for r in reports)


def test_map_deciders_build_no_image_sequence(monkeypatch):
    rng = random.Random(22)
    cases = []
    for _ in range(80):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
        cases.append((f, e_dom, e_cod, map_properties(f), is_e_sequential_map(f, e_dom, e_cod)))

    def no_map_seq(f, s):
        raise AssertionError("map_seq called")

    monkeypatch.setattr(maps, "map_seq", no_map_seq)
    for f, e_dom, e_cod, props, e_seq in cases:
        assert map_properties(f) == props
        assert is_e_sequential_map(f, e_dom, e_cod) == e_seq


def test_map_deciders_read_no_tail_image(monkeypatch):
    # The generator images come from one per-map table of heads; no decider
    # scans the tail images again per point.
    rng = random.Random(23)
    cases = []
    for _ in range(80):
        dom, cod = gen_space(rng), gen_space(rng)
        f = gen_map(rng, dom, cod)
        e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
        verdicts = (map_properties(f), is_exterior_map(f, e_dom, e_cod))
        cases.append((f, e_dom, e_cod, verdicts + (is_e_sequential_map(f, e_dom, e_cod),)))

    def no_tail_image(f, t):
        raise AssertionError("tail_image called")

    monkeypatch.setattr(maps, "tail_image", no_tail_image)
    for f, e_dom, e_cod, verdicts in cases:
        assert verdicts == (
            map_properties(f),
            is_exterior_map(f, e_dom, e_cod),
            is_e_sequential_map(f, e_dom, e_cod),
        )
