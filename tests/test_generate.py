"""Instance generation: determinism, profiles, and size bounds."""

import copy
import hashlib
import os
import random
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extseq
from extseq.core import FinitePoint, TailPoint, ev_set
from extseq.generate import (
    MAX_AFFINE,
    MAX_POINTS,
    MAX_TAILS,
    _draw_base,
    _draw_evset,
    _draw_open_set,
    _draw_seq,
    _drawn_seq,
    _extend,
    _flips,
    _rng_after,
    _sampled_set,
    _words_drawn,
    gen_map,
    gen_seq,
    gen_space,
    generate_instances,
    PROFILES,
    sample_evset,
    sample_open_set,
    sample_point,
)
from extseq.maps import TailToConst, TailToTail, make_map
from extseq.sequences import ConstThread, Seq, WalkThread, _tail_bits
from extseq.spaces import space_report, validate_space

SRC = str(Path(extseq.__file__).resolve().parent.parent)
STREAM_DIGEST = Path(__file__).with_name("stream_digest.py")

# 300 convergent-sequence draws of the sigma presheaf, hashed.
CONVERGENT_DRAWS = """
import hashlib
from extseq.generate import gen_ext, gen_space, sub_rng
from extseq.sheaves import build_sigma
h = hashlib.sha256()
for i in range(300):
    rng = sub_rng(7, "all", i)
    ext = gen_ext(rng, gen_space(rng, "all"))
    h.update(repr(build_sigma(ext).c_sample(rng, 1)).encode())
print(h.hexdigest())
"""


def test_same_seed_gives_identical_stream():
    a = generate_instances(7, 25, "all", seqs_per=5, maps_per=3)
    b = generate_instances(7, 25, "all", seqs_per=5, maps_per=3)
    assert a == b


def test_streams_do_not_depend_on_consumption():
    full = generate_instances(7, 25, "all")
    head = generate_instances(7, 10, "all")
    assert full[:10] == head


def test_different_seed_changes_stream():
    assert generate_instances(7, 10, "all") != generate_instances(8, 10, "all")


def test_zero_count_is_empty():
    assert generate_instances(1, 0, "all") == []


def test_s2_profile_filters():
    for inst in generate_instances(3, 60, "s2-only", seqs_per=0, maps_per=0):
        assert space_report(inst.ext.space).s2


def test_finite_profile_has_no_tails():
    for inst in generate_instances(4, 40, "finite", seqs_per=0, maps_per=0):
        assert not inst.ext.space.tails


def test_tailed_profile_has_tails():
    for inst in generate_instances(5, 40, "tailed", seqs_per=0, maps_per=0):
        assert inst.ext.space.tails


def test_size_bounds():
    for inst in generate_instances(6, 80, "all", seqs_per=2, maps_per=1):
        space = inst.ext.space
        assert len(space.points) <= MAX_POINTS
        assert len(space.tails) <= MAX_TAILS
        for s in inst.seqs:
            for th in s.threads:
                if hasattr(th, "a"):
                    assert 1 <= th.a and th.b <= 8


def test_convergent_draws_do_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        res = subprocess.run(
            [sys.executable, "-c", CONVERGENT_DRAWS], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


# sha256 of 2 000 draws from each set sampler over the seed-42 "all"
# spaces, recorded before the samplers built their sets directly.
SAMPLER_DRAWS = "148b06a538e5e5e980d43e6de203aa199a63acc2eb6f1f9cc6b465f7ab491ce7"


def test_sampler_streams_are_pinned():
    spaces = [inst.ext.space for inst in generate_instances(42, 200, "all", 0, 0)]
    rng = random.Random(42)
    h = hashlib.sha256()
    for i in range(2000):
        space = spaces[i % len(spaces)]
        for sampler in (sample_evset, sample_open_set):
            s = sampler(rng, space)
            h.update(repr((s.finite, s.rows)).encode())
    assert h.hexdigest() == SAMPLER_DRAWS


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(["finite", "tailed", "all"]))
def test_sampled_sets_are_canonical(seed, profile):
    rng = random.Random(seed)
    space = gen_space(rng, profile)
    for sampler in (sample_evset, sample_open_set):
        for _ in range(10):
            s = sampler(rng, space)
            rebuilt = ev_set(
                space.universe,
                s.finite,
                {t: ev for t, ev, _ in s.rows},
                {t: fl for t, _, fl in s.rows},
            )
            assert s == rebuilt


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.sampled_from(PROFILES))
def test_mask_samplers_make_the_draws_of_the_set_samplers(seed, profile):
    # Each set kind's draw is its mask sampler: a draw's masks are those of
    # the set built from it, its flip masks are that set's flips, the set is
    # the one the public sampler gives from the same rng state, and the rng
    # ends where that sampler leaves it.
    space = gen_space(random.Random(seed), profile)
    v = space.compiled
    for draw, sampler in ((_draw_evset, sample_evset), (_draw_open_set, sample_open_set)):
        ours, ref = _twins(seed)
        for _ in range(10):
            fin, ev, flips = draw(ours, v)
            s = _sampled_set(v, fin, ev, flips)
            assert v.read(s) == (fin, ev)
            assert flips == [sum(1 << f for f in fl) for _, _, fl in s.rows]
            assert s == sampler(ref, space)
        assert ours.getstate() == ref.getstate()


# sha256 of the instance streams, recorded before `generate` dropped
# `random.sample` and the per-point lists of `sample_point`, under hash
# seeds 0 and 1 with Python 3.11; Python 3.10, 3.12 and 3.13 give the same.
STREAM_DRAWS = "18bcea65e2734f62ae92d2d2dea0e6b6fd6ca82717c4114938a5b068bbabdc6a"


@pytest.mark.parametrize("profile", PROFILES)
def test_base_draws_take_fewer_words_than_one_twister_state(profile):
    # `_words_drawn` reads the words a base draw took off the Mersenne
    # Twister state's index, which counts them only up to one state (624
    # words); the suites rebuild every extension rng from that count.  Over
    # seeds 0-299 (50 instances each) the most is 220, on "tailed".
    most = 0
    for seed in range(30):
        insts, rngs = _draw_base(seed, 50, profile)
        for i, rng in enumerate(rngs):
            words = _words_drawn(rng)
            most = max(most, words)
            assert _rng_after(seed, profile, i, words).getstate() == rng.getstate()
    assert 0 < most < 624


@pytest.mark.parametrize("profile", PROFILES)
def test_rebuilt_base_rngs_draw_what_a_fork_draws(profile):
    # The rebuilt rng and a copy of the base draw's own rng make the same
    # draws, past the next twist of the state too, and extend the base into
    # the stream generate_instances draws.
    insts, rngs = _draw_base(11, 20, profile)
    for i, rng in enumerate(rngs):
        fork, rebuilt = copy.copy(rng), _rng_after(11, profile, i, _words_drawn(rng))
        assert [rebuilt.getrandbits(32) for _ in range(700)] == [
            fork.getrandbits(32) for _ in range(700)
        ]
    rebuilt = [_rng_after(11, profile, i, _words_drawn(rng)) for i, rng in enumerate(rngs)]
    assert repr(_extend(insts, rebuilt, 3, 2)) == repr(generate_instances(11, 20, profile, 3, 2))


def test_instance_streams_are_pinned():
    """Every generated stream, draw for draw (see `stream_digest.py`).
    To recompute the digest, from the repository root:

        PYTHONPATH=src python3 tests/stream_digest.py
    """
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        res = subprocess.run(
            [sys.executable, str(STREAM_DIGEST)], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == STREAM_DRAWS


def test_instance_streams_match_on_every_supported_python():
    """The three draw kernels copy private CPython code, so the streams are
    checked on each other python3.10 .. python3.13 on PATH that starts.
    A name that does not start (a version manager's shim for a version
    not selected exits 127) is passed over; with none left the test skips."""
    ran = []
    for minor in range(10, 14):
        if minor == sys.version_info.minor:
            continue
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        probe = subprocess.run([exe, "-c", ""], capture_output=True, timeout=60)
        if probe.returncode != 0:
            continue
        env = dict(os.environ, PYTHONPATH=SRC)
        res = subprocess.run(
            [exe, str(STREAM_DIGEST)], capture_output=True, text=True, env=env, timeout=600
        )
        assert res.returncode == 0, (exe, res.stderr)
        assert res.stdout.strip() == STREAM_DRAWS, exe
        ran.append(exe)
    if not ran:
        pytest.skip("no other python3.10 .. python3.13 starts on this host")


def _twins(seed):
    return random.Random(seed), random.Random(seed)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8))
def test_flips_make_the_draws_of_sample(seed, n):
    # Each tail's flips are `random.Random.sample(range(12), k)` with
    # k = `rng.randrange(4)`, read off the swaps without a pool, as one mask.
    ours, ref = _twins(seed)
    for _ in range(5):
        masks = _flips(ours.getrandbits, n)
        drawn = [ref.sample(range(12), ref.randrange(4)) for _ in range(n)]
        assert masks == [sum(1 << f for f in fl) for fl in drawn]
    assert ours.getstate() == ref.getstate()


class _BoundedRandom(random.Random):
    """A Random that fails after 1 000 `getrandbits` calls, so that a draw
    looping on an empty range fails rather than hangs."""

    def __init__(self, seed):
        super().__init__(seed)
        self.left = 1000

    def getrandbits(self, k):
        self.left -= 1
        assert self.left >= 0, "a draw looped on an empty range"
        return super().getrandbits(k)


def test_sample_point_on_the_empty_space_raises():
    empty = validate_space([], {}, [], {})
    with pytest.raises(ValueError):
        sample_point(_BoundedRandom(0), empty)
    with pytest.raises(ValueError):
        sample_point(_BoundedRandom(0), gen_space(random.Random(3), "tailed"), -1)


def test_inlined_draws_refuse_an_empty_range():
    # A sequence's draws, written out on a bound getrandbits, refuse the
    # empty space as `randrange` does, and so do a map's `sample_point` draws.
    empty = validate_space([], {}, [], {})
    tailed = gen_space(random.Random(3), "tailed")
    for seed in range(20):
        with pytest.raises(ValueError):
            gen_seq(_BoundedRandom(seed), empty)
        with pytest.raises(ValueError):
            gen_map(_BoundedRandom(seed), tailed, empty)


def _listed_sample_point(rng, space, tail_index_bound):
    """`sample_point` as it was: every point built, then one chosen."""
    choices = [FinitePoint(x) for x in space.points]
    choices += [TailPoint(t, rng.randrange(0, tail_index_bound + 1)) for t in space.tails]
    return rng.choice(choices)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    profile=st.sampled_from(["finite", "tailed", "all"]),
    bound=st.integers(0, 30),
)
def test_sample_point_makes_the_draws_of_the_listed_choice(seed, profile, bound):
    space = gen_space(random.Random(seed), profile)
    ours, ref = _twins(seed)
    for _ in range(10):
        assert sample_point(ours, space, bound) == _listed_sample_point(ref, space, bound)
    assert ours.getstate() == ref.getstate()


def _plain_seq(rng, space):
    """`gen_seq` as `random.Random` calls: the prefix, the threads."""
    point = partial(_listed_sample_point, rng, space, MAX_AFFINE)
    prefix = tuple(point() for _ in range(rng.randrange(4)))
    threads = []
    for _ in range(1 + rng.randrange(3)):
        if space.tails and rng.random() < 0.6:
            walk = (rng.choice(space.tails), 1 + rng.randrange(4), rng.randrange(MAX_AFFINE + 1))
            threads.append(WalkThread(*walk))
        else:
            threads.append(ConstThread(point()))
    return Seq(space.universe, prefix, tuple(threads))


def _plain_map(rng, dom, cod):
    """`gen_map` as `random.Random` calls, built by `make_map`."""
    point = partial(_listed_sample_point, rng, cod, MAX_AFFINE)
    structure_bias = rng.random() < 0.5
    dv, cv = dom.compiled, cod.compiled
    free_cod = cv.tail_names(cv.unattached)
    on_points = {x: point() for x in dom.points}
    on_tails = {}
    for t, tb in dv.tail_bit.items():
        if structure_bias and dv.unattached & tb and free_cod:
            targets, exc = free_cod, ()
        else:
            targets = cod.tails if cod.tails and rng.random() < 0.6 else None
            exc = tuple((m, point()) for m in rng.sample(range(7), rng.randrange(3)))
            if targets is None:
                on_tails[t] = TailToConst(point(), exc)
                continue
        walk = (rng.choice(targets), 1 + rng.randrange(3), rng.randrange(MAX_AFFINE + 1))
        on_tails[t] = TailToTail(*walk, exc)
    return make_map(dom, cod, on_points, on_tails)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    profile=st.sampled_from(["finite", "tailed", "all"]),
    cod_profile=st.sampled_from(["finite", "tailed", "all"]),
)
def test_draw_forms_make_the_draws_they_replace(seed, profile, cod_profile):
    """The kernel `_draw_seq` against its `randrange` and `choice` form,
    and `gen_map`, whose draws are stdlib `random.Random` calls and
    `sample_point`, against `_plain_map`, its reference built by
    `make_map`: the same sequences, thread bits and maps, ending in the
    same generator state."""
    rng = random.Random(seed)
    space, cod = gen_space(rng, profile), gen_space(rng, cod_profile)
    ours, ref = _twins(seed)
    for _ in range(5):
        draw = _draw_seq(ours, space)
        s = _plain_seq(ref, space)
        assert _drawn_seq(space, draw) == s
        assert draw[2] == _tail_bits(space.compiled, s)
        assert gen_map(ours, space, cod) == _plain_map(ref, space, cod)
    assert ours.getstate() == ref.getstate()
