"""The sha256 of the generated instance streams, draw for draw.

It covers `generate_instances(42, 200, profile, 8, 4)` for every profile,
and, on each seed-42 "all" space, draws of `gen_proper_seq`,
`gen_convergent_seq`, `sample_point` and the sigma presheaf's `e_sample`
and `c_sample`, each followed by the generator's next `random()`, so a
draw that makes one call more or less shows too.  `gen_proper_seq` is a
test helper (`support.py`, next to this file).  Run as a script it prints
the digest that `tests/test_generate.py` pins; it needs only the standard
library, `extseq` and `support.py`:

    PYTHONPATH=src python3 tests/stream_digest.py
"""

import hashlib
import random

from extseq.generate import PROFILES, gen_convergent_seq, generate_instances, sample_point
from extseq.sheaves import build_sigma
from support import gen_proper_seq


def stream_digest() -> str:
    h = hashlib.sha256()
    for profile in PROFILES:
        for inst in generate_instances(42, 200, profile, 8, 4):
            h.update(repr(inst).encode())
    for i, inst in enumerate(generate_instances(42, 200, "all", 0, 0)):
        rng = random.Random(i)
        space = inst.ext.space
        sigma = build_sigma(inst.ext)
        draws = [
            [gen_proper_seq(rng, space) for _ in range(3)],
            [gen_convergent_seq(rng, space) for _ in range(3)],
            [sample_point(rng, space, 25) for _ in range(3)],
            sigma.e_sample(rng, 3),
            sigma.c_sample(rng, 3),
            rng.random(),
        ]
        h.update(repr(draws).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(stream_digest())
