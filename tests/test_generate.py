"""Instance generation: determinism, profiles, and size bounds."""

import os
import subprocess
import sys
from pathlib import Path

import extseq
from extseq.generate import MAX_POINTS, MAX_TAILS, generate_instances
from extseq.spaces import space_report

SRC = str(Path(extseq.__file__).resolve().parent.parent)

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
