"""Externologies: canonical forms, bases, exterior sequences/maps, coreflection."""

import copy
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from extseq.core import FinitePoint, TailPoint, ev_intersect, ev_set, ev_union
from extseq.exteriority import (
    ExtSpace,
    Externology,
    _canonical_masks,
    _pair_masks,
    base_index_for,
    canonicalize,
    cocompact_ext_space,
    cocompact_externology,
    coreflect,
    e_report,
    exterior_base,
    is_e_open,
    is_exterior_seq,
    limit_points,
    make_ext_space,
    sequentially_e_open,
)
from extseq.generate import (
    PROFILES,
    gen_ext,
    gen_map,
    gen_seq,
    gen_space,
    sample_evset,
    sample_open_set,
)
from extseq.instances import NAT_TAIL, nat_cofinite, nat_plus_space, nat_space, point_space
from extseq.maps import TailToTail, is_e_sequential_map, is_exterior_map, make_map, preimage
from extseq.sequences import Affine, const_seq, subseq, walk_seq
from extseq.sheaves import build_sigma
from extseq.spaces import is_open, set_properties
from support import (
    exterior_by_names,
    full_set,
    identity_map,
    indiscrete_point,
    is_subset,
    mixed_space,
    raw_pair,
    sierpinski_space,
)

NN = nat_space()
NP = nat_plus_space()
SP = sierpinski_space()
MIX = mixed_space()


def all_sierpinski_opens():
    u = SP.universe
    return [ev_set(u), ev_set(u, ["1"]), ev_set(u, ["0", "1"])]


def test_canonicalize_discrete():
    assert canonicalize(SP, (), ()) == Externology((), ())
    e = make_ext_space(SP)
    assert is_e_open(e, ev_set(SP.universe))


def test_canonicalize_saturates_sierpinski():
    ext = canonicalize(SP, ["0"], ())
    assert ext.limits == ("0", "1")
    # Filter membership agreement on all three opens.
    before = [
        is_open(SP, s) and all(x in s.finite for x in ("0",)) for s in all_sierpinski_opens()
    ]
    after = [is_e_open(ExtSpace(SP, ext), s) for s in all_sierpinski_opens()]
    assert before == after


def test_canonicalize_closes_captured_tails():
    ext = canonicalize(MIX, ["v"], ())
    assert ext == Externology(("v",), ("t1",))


def test_e_open_examples():
    cc = nat_cofinite()
    assert is_e_open(cc, full_set(NN.universe))
    assert is_e_open(cc, ev_set(NN.universe, eventual={NAT_TAIL: True}, flips={NAT_TAIL: [4]}))
    assert not is_e_open(cc, ev_set(NN.universe, flips={NAT_TAIL: [0, 1]}))


def test_limit_points():
    assert limit_points(nat_cofinite()) == frozenset()
    assert limit_points(indiscrete_point()) == frozenset({"pt"})
    assert limit_points(make_ext_space(NN)) == frozenset()


def test_exterior_base_decreasing_and_final():
    rng = random.Random(1)
    for _ in range(40):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        c = coreflect(e).ext
        prev = None
        for k in range(4):
            base = exterior_base(e, k)
            # Built directly; the public constructor canonicalizes.
            flips = {t: range(k) for t in c.tails}
            assert base == ev_set(space.universe, c.limits, dict.fromkeys(c.tails, True), flips)
            assert is_e_open(e, base)
            if prev is not None:
                assert is_subset(base, prev)
            prev = base
        for _ in range(5):
            member = sample_open_set(rng, space)
            if is_e_open(e, member):
                k = base_index_for(e, member)
                assert is_subset(exterior_base(e, k), member)


def test_limit_points_are_intersection_of_members():
    from extseq.core import ev_intersect

    rng = random.Random(20)
    for _ in range(20):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        meet = exterior_base(e, 0)
        collected = 0
        for _ in range(3000):
            if collected >= 50:
                break
            s = sample_open_set(rng, space)
            if is_e_open(e, s):
                meet = ev_intersect(meet, s)
                collected += 1
        assert collected >= 10
        assert set(meet.finite) == set(e.ext.limits)


def test_cocompact_externology_examples():
    assert cocompact_externology(NN) == Externology((), (NAT_TAIL,))
    assert cocompact_externology(NP) == Externology((), ())
    from extseq.instances import point_space

    assert cocompact_externology(point_space()) == Externology((), ())


def test_cocompact_externology_is_the_unattached_mask_pair():
    # The map deciders read the cocompact pair as (0, unattached) off the
    # view, so its entity must present exactly those masks, canonically;
    # deriving it leaves the space's equality, hash, repr and pickle alone.
    rng = random.Random(20)
    for profile in PROFILES:
        for _ in range(5):
            space = gen_space(rng, profile)
            seen = (hash(space), repr(space), pickle.dumps(space))
            ext = cocompact_externology(space)
            v = space.compiled
            assert ext == Externology((), tuple(v.tail_names(v.unattached)))
            cc = cocompact_ext_space(space)
            assert _pair_masks(cc) == _canonical_masks(cc) == (0, v.unattached)
            assert coreflect(cc) == cc
            assert (hash(space), repr(space), pickle.dumps(space)) == seen
            back = pickle.loads(pickle.dumps(space))
            assert back == space and hash(back) == hash(space)
            assert cocompact_externology(back) == ext


def test_cocompact_matches_direct_complement_test():
    from extseq.core import ev_complement

    rng = random.Random(2)
    for _ in range(30):
        space = gen_space(rng)
        cc = cocompact_ext_space(space)
        for _ in range(100):
            s = sample_evset(rng, space)
            direct = set_properties(space, ev_complement(s)).closed_compact
            assert is_e_open(cc, s) == direct


def test_exterior_seq_examples():
    cc = nat_cofinite()
    assert is_exterior_seq(cc, walk_seq(NN.universe, NAT_TAIL))
    one = indiscrete_point()
    assert is_exterior_seq(one, const_seq(point_space().universe, FinitePoint("pt")))
    mxe = make_ext_space(MIX, (), ("t2",))
    assert not is_exterior_seq(mxe, walk_seq(MIX.universe, "t1"))
    base0 = exterior_base(mxe, 0)
    assert not base0.member(TailPoint("t1", 5))


def test_exterior_seq_matches_its_definition_on_names():
    # The mask rule against the name-level definition, on raw, canonical
    # and cocompact pairs; `Sigma.e_member` reads the same rule.
    rng = random.Random(37)
    seen = [0, 0]
    for profile in PROFILES:
        for _ in range(40):
            space = gen_space(rng, profile)
            for e in (raw_pair(rng, space), gen_ext(rng, space), cocompact_ext_space(space)):
                sigma = build_sigma(e)
                for s in [gen_seq(rng, space) for _ in range(4)] + sigma.e_sample(rng, 2):
                    verdict = exterior_by_names(e, s)
                    assert is_exterior_seq(e, s) == sigma.e_member(s) == verdict
                    seen[verdict] += 1
    assert min(seen) > 100


def test_exterior_seq_stable_under_affine_action():
    rng = random.Random(3)
    seen = 0
    for _ in range(200):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        from extseq.generate import gen_seq

        s = gen_seq(rng, space)
        if not is_exterior_seq(e, s):
            continue
        seen += 1
        u = Affine(rng.randrange(1, 6), rng.randrange(0, 6))
        assert is_exterior_seq(e, subseq(s, u))
    assert seen > 10


def test_exterior_map_examples():
    cc = nat_cofinite()
    assert is_exterior_map(identity_map(NN), cc, cc)
    shift = make_map(NN, NN, {}, {NAT_TAIL: TailToTail(NAT_TAIL, 1, 1)})
    assert is_exterior_map(shift, cc, cc)
    # Preimage of the k-th base member is the (k-1)-th (k >= 1).
    for k in range(1, 8):
        assert preimage(shift, exterior_base(cc, k)) == exterior_base(cc, k - 1)
    # No exterior map exists from the indiscrete point into the cofinite
    # naturals: the image would have to be a limit point, and there is none.
    one = indiscrete_point()
    for n in range(11):
        cand = make_map(point_space(), NN, {"pt": TailPoint(NAT_TAIL, n)}, {})
        assert not is_exterior_map(cand, one, cc)


def test_exterior_map_decider_stable_beyond_presentation_bound():
    from extseq.maps import is_continuous

    def deep(f, e_dom, e_cod, kmax=40):
        if not is_continuous(f):
            return False
        return all(
            is_e_open(e_dom, preimage(f, exterior_base(e_cod, k))) for k in range(kmax)
        )

    rng = random.Random(18)
    for _ in range(250):
        dom, cod = gen_space(rng), gen_space(rng)
        e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
        f = gen_map(rng, dom, cod)
        assert is_exterior_map(f, e_dom, e_cod) == deep(f, e_dom, e_cod)


def test_exterior_maps_send_limits_to_limits():
    from extseq.maps import apply_map

    rng = random.Random(4)
    seen = 0
    for _ in range(200):
        dom, cod = gen_space(rng), gen_space(rng)
        e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
        f = gen_map(rng, dom, cod)
        if not is_exterior_map(f, e_dom, e_cod):
            continue
        seen += 1
        for x in limit_points(e_dom):
            img = apply_map(f, FinitePoint(x))
            assert isinstance(img, FinitePoint) and img.id in limit_points(e_cod)
    assert seen > 10


def test_exterior_iff_e_sequential_on_generated_pairs():
    rng = random.Random(5)
    for _ in range(200):
        dom, cod = gen_space(rng), gen_space(rng)
        e_dom, e_cod = gen_ext(rng, dom), gen_ext(rng, cod)
        f = gen_map(rng, dom, cod)
        assert is_exterior_map(f, e_dom, e_cod) == is_e_sequential_map(f, e_dom, e_cod)


def test_filter_laws_on_sampled_members():
    rng = random.Random(6)
    for _ in range(20):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        members = []
        for _ in range(200):
            s = sample_open_set(rng, space)
            if is_e_open(e, s):
                members.append(s)
        for i in range(0, len(members) - 1, 2):
            meet = ev_intersect(members[i], members[i + 1])
            assert is_e_open(e, meet)
        full = full_set(space.universe)
        assert is_e_open(e, full)


def test_sequentially_e_open_examples():
    cc = nat_cofinite()
    u = NN.universe
    for s in (full_set(u), ev_set(u, eventual={NAT_TAIL: True}, flips={NAT_TAIL: [3]})):
        assert is_e_open(cc, s)
        assert sequentially_e_open(cc, s)
    # Final filter on the discrete naturals: exactly the cofinite sets.
    rng = random.Random(7)
    for _ in range(100):
        s = sample_evset(rng, NN)
        assert sequentially_e_open(cc, s) == (is_open(NN, s) and s.is_cofinite_on(NAT_TAIL))
    mxe = make_ext_space(MIX, (), ("t2",))
    missing = ev_set(MIX.universe, ["v"], eventual={"t1": True, "t2": False})
    assert is_open(MIX, missing)
    assert not sequentially_e_open(mxe, missing)


def test_sequentially_e_open_agrees_with_sequence_quantification():
    # Validation obligation: agreement with sampled quantification over 500
    # exterior sequences.
    from support import eventually_in
    from extseq.sheaves import build_sigma

    rng = random.Random(8)
    budgeted = 0
    while budgeted < 500:
        space = gen_space(rng)
        e = gen_ext(rng, space)
        seqs = build_sigma(e).e_sample(rng, 5)
        if not seqs:
            continue
        s = sample_evset(rng, space)
        seo = sequentially_e_open(e, s)
        for q in seqs:
            budgeted += 1
            if seo:
                assert eventually_in(q, s)
            # The converse direction needs the analytic witnesses, checked by
            # the is_e_open comparison below.
        if not seo and is_open(space, s):
            missing_limit = any(x not in s.finite for x in e.ext.limits)
            missing_tail = any(not s.is_cofinite_on(t) for t in e.ext.tails)
            assert missing_limit or missing_tail


def test_coreflection_identity_and_idempotence():
    rng = random.Random(9)
    for _ in range(60):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        assert coreflect(e) == e
        if space.points:
            raw = ExtSpace(space, Externology((space.points[0],), ()))
            once = coreflect(raw)
            assert coreflect(once) == once
    rep = e_report(nat_cofinite())
    assert rep.e_sequential and rep.e_first_countable
    rep1 = e_report(indiscrete_point())
    assert rep1.e_sequential and rep1.e_first_countable


def test_e_first_countable_implies_e_sequential_on_generated():
    rng = random.Random(10)
    for _ in range(60):
        space = gen_space(rng)
        e = gen_ext(rng, space)
        rep = e_report(e)
        assert rep.e_first_countable
        assert not rep.e_first_countable or rep.e_sequential


# -- raw pairs -----------------------------------------------------------------


def test_raw_pair_answers_for_its_filter():
    raw = ExtSpace(SP, Externology(("0",), ()))
    canon = make_ext_space(SP, ["0"])
    assert canon.ext.limits == ("0", "1")
    ident = identity_map(SP)
    assert is_exterior_map(ident, raw, raw) and is_exterior_map(ident, canon, canon)
    assert is_e_sequential_map(ident, raw, raw)
    one = const_seq(SP.universe, FinitePoint("1"))
    assert is_exterior_seq(raw, one) and is_exterior_seq(canon, one)
    assert limit_points(raw) == frozenset({"0", "1"})
    assert exterior_base(raw, 0) == exterior_base(canon, 0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_raw_and_canonical_pairs_get_equal_verdicts(seed):
    rng = random.Random(seed)
    dom, cod = gen_space(rng), gen_space(rng)
    raws = (raw_pair(rng, dom), raw_pair(rng, cod))
    canons = tuple(make_ext_space(r.space, r.ext.limits, r.ext.tails) for r in raws)
    f = gen_map(rng, dom, cod)
    assert is_exterior_map(f, *raws) == is_exterior_map(f, *canons)
    assert is_e_sequential_map(f, *raws) == is_e_sequential_map(f, *canons)
    for raw, canon in zip(raws, canons):
        space = raw.space
        assert limit_points(raw) == limit_points(canon)
        for k in range(3):
            assert exterior_base(raw, k) == exterior_base(canon, k)
        member = ev_union(exterior_base(canon, rng.randrange(4)), sample_evset(rng, space))
        assert base_index_for(raw, member) == base_index_for(canon, member)
        for _ in range(5):
            s = gen_seq(rng, space)
            assert is_exterior_seq(raw, s) == is_exterior_seq(canon, s)


def test_pair_masks_are_derived_once_and_match_the_pair():
    rng = random.Random(35)
    for profile in PROFILES:
        for _ in range(20):
            raw = raw_pair(rng, gen_space(rng, profile))
            for e in (raw, coreflect(raw)):
                v = e.space.compiled
                masks = _pair_masks(e)
                assert masks == (v.points_mask(e.ext.limits), v.tails_mask(e.ext.tails))
                assert _pair_masks(e) is masks


def round_trips(obj):
    return (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)))


def test_sets_and_exterior_spaces_copy_and_pickle_before_and_after_a_read():
    e = make_ext_space(MIX, ["v"], ["t2"])
    s = sample_open_set(random.Random(3), MIX)
    # Every copy is taken before the deciders run, so the first pass copies
    # an unread set and pair, and the second a read one.
    for _ in range(2):
        for back_e, back_s in zip(round_trips(e), round_trips(s)):
            assert back_e == e and hash(back_e) == hash(e)
            assert back_s == s and hash(back_s) == hash(s) and repr(back_s) == repr(s)
            assert decide(back_e, back_s) == decide(e, s)


def decide(e, s):
    return is_e_open(e, s), sequentially_e_open(e, s), set_properties(e.space, s)
