"""Every `extseq eval` op, pinned: stdout, stderr and exit code on seeded
generated fixture files."""

import hashlib
import random

import pytest

from extseq import cli
from extseq.compactify import infinity
from extseq.exteriority import ExtSpace, Externology
from extseq.generate import PROFILES, gen_ext, gen_map, gen_seq, gen_space, sample_evset
from extseq.serial import canonical_dumps, entity_to_json, to_json

FIXTURE_SEEDS = range(8)


def _fixture_files(seed: int) -> dict[str, str]:
    """One generated instance, written as one file per argument kind: a
    space, a set, a sequence and an externology over it, two composable
    maps out of it, a raw pair (not canonicalized) and a based space."""
    rng = random.Random(seed)
    space = gen_space(rng, PROFILES[seed % len(PROFILES)])
    mid, cod = gen_space(rng), gen_space(rng)
    ext = gen_ext(rng, space)
    raw = ExtSpace(
        space,
        Externology(
            tuple(x for x in space.points if rng.random() < 0.3),
            tuple(t for t in space.tails if rng.random() < 0.3),
        ),
    )
    docs = {
        "space": entity_to_json(space),
        "set": entity_to_json(sample_evset(rng, space)),
        "seq": entity_to_json(gen_seq(rng, space)),
        "map": entity_to_json(gen_map(rng, space, mid)),
        "map2": entity_to_json(gen_map(rng, mid, cod)),
        "ext": entity_to_json(ext),
        "pair": to_json("pair", raw),
        "based": entity_to_json(infinity(ext)),
    }
    names = {}
    for kind, doc in docs.items():
        names[kind] = f"{seed}-{kind}.json"
        with open(names[kind], "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(doc))
    return names


# The files each op reads, by fixture kind.
OP_FILES = {
    "space-report": ("space",),
    "set-properties": ("space", "set"),
    "is-open": ("space", "set"),
    "is-seq-open": ("space", "set"),
    "s-compact": ("space", "set"),
    "omega-sequential": ("space",),
    "classify-seq": ("space", "seq"),
    "convergence-ideal": ("space", "seq"),
    "map-properties": ("map",),
    "compose-maps": ("map", "map2"),
    "canonicalize": ("ext",),
    "cocompact": ("space",),
    "limit-points": ("ext",),
    "is-e-open": ("ext", "set"),
    "is-exterior-seq": ("ext", "seq"),
    "coreflect": ("space", "pair"),
    "e-report": ("space", "pair"),
    "plus": ("space",),
    "wedge": ("space",),
    "infinity": ("ext",),
    "bar": ("based",),
}

# sha256 over FIXTURE_SEEDS of each op's exit code, stdout and stderr.  A
# change to an op's output must change its entry here and say why.
OP_DIGESTS = {
    "bar": "9ceda64067ddde43385687d1841b6c23dba5c708e8e3c01931beef495a329216",
    "canonicalize": "9ceda64067ddde43385687d1841b6c23dba5c708e8e3c01931beef495a329216",
    "classify-seq": "e26632b006993c4cfe6844e5514e58cef0036c33f298e040bbe4e25317f03585",
    "cocompact": "1d4d3495b9ae01873dc4699cf18cee7f396a55e3bc517e5c0813418852e76ae9",
    "compose-maps": "8350553f77bfbe501ec1a8c34c056af02551b1f02deb36dffdafeb0b5077d3f6",
    "convergence-ideal": "37c6ef885f5172a23728cd8133a335776958ed072ce6755f186ba8ca45874381",
    "coreflect": "bfb0448b25c65b197d6d524969db03d27457568b9c7052e4f7bd5f5388ab350b",
    "e-report": "961b6ec4d6b82692cba4c14a7c1b42feb61b7015790b390d38b65b8c835bf4e8",
    "infinity": "255536ae6bf109f1032c2e0e627ea836174e72733a2ff0216a7ffa0778342def",
    "is-e-open": "41b7cc764714cceb3e220321f059626000285d253a32210057e1d77cacde863e",
    "is-exterior-seq": "076f1c18da65e374172d2cae38d5234a62606fc447ab387a73e77d05330aafad",
    "is-open": "666c8ce405473116974fa0559b626f5e743d00c8f409d2c14b7de4b678307026",
    "is-seq-open": "5224a7ef3cc282b2f82c3dcbc36495d74172493bcb110ffab21d945f784a04aa",
    "limit-points": "09831823685dd75e3d9e3d3028e8182620510a2176f2406415f40cb8cc35c113",
    "map-properties": "34bf7128db3a53a9c5aa3dd7c2a1f62581d2b19552edf7115e21509c23d0f500",
    "omega-sequential": "921e8fcc8e391481f974a19b5edd801031b2df8e33984ddbcf4745b26c1088ff",
    "plus": "a018dce69cd09157cdda4420a95f286cf1d64b07081fb14fc0d5ceab452fe675",
    "s-compact": "2a011850aa4706a741edf3e082d17b08275f86ef7709d12e86a86e0aa60446dd",
    "set-properties": "85d663a3d44dc4a64a601629e00d63f7cbfd1c4e1484ee8b3ad21e2365f3f44d",
    "space-report": "a63a877cd364a716b30673cdba399f208a65086e6aaddbf21660c50968f308ff",
    "wedge": "a018dce69cd09157cdda4420a95f286cf1d64b07081fb14fc0d5ceab452fe675",
}


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    # Relative names, so that an error line reads the same in any directory.
    mp.chdir(tmp_path_factory.mktemp("eval-fixtures"))
    try:
        yield [_fixture_files(seed) for seed in FIXTURE_SEEDS]
    finally:
        mp.undo()


def test_every_op_is_pinned():
    assert set(OP_FILES) == set(cli.EVAL_OPS)
    assert set(OP_DIGESTS) == set(cli.EVAL_OPS)


@pytest.mark.parametrize("op", sorted(OP_FILES))
def test_eval_op_output_is_pinned(op, fixtures, capsys):
    digest = hashlib.sha256()
    for names in fixtures:
        code = cli.main(["eval", op, *(names[kind] for kind in OP_FILES[op])])
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == OP_DIGESTS[op]
