"""One check run: run_suites draws each instance base once and shares it
between its suites, extends it on forked rngs to exactly the generated
streams, reports exactly what one run per suite reports, and holds
nothing drawn once it returns; a one-point compactification is held by
its own space.  The benchmark's recorded seed-42 digests of the gate and
sets-hot verdicts still hold."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from extseq import cli, generate, maps, sequences, suites
from extseq.compactify import plus
from extseq.generate import PROFILES, _extend, _rng_after, gen_space, generate_instances
from extseq.sequences import Seq, first_difference
from extseq.serial import args_from_json
from extseq.spaces import CompiledSpace, space_report
from extseq.suites import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SUITES,
    TAGS,
    recheck_witness,
    resolve_suite,
    run_suites,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def without_wall_ms(reports):
    docs = [r.to_json() for r in reports]
    for doc in docs:
        del doc["wall_ms"]
    return docs


# sha256 of the run_suites reports over all suites at samples=8, wall_ms
# dropped.  Re-record these only in a change that alters case counts on
# purpose, and say so in CHANGES.md; a speed-up must leave them as they are.
REPORT_DIGESTS = {
    0: "839b72037e37e77093012f4f03384c2835b53c479e6298ec853f4e5091428916",
    42: "73f4c8c71e4f32b14bf30992f47d94957629feec8318c94d04cdd8d524ba15bb",
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_reports_are_pinned(seed):
    docs = without_wall_ms(run_suites(list(SUITES), seed, 8))
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[seed]


# The benchmark's digest of one workload at seed 42, computed as
# `perfbench/digests.py` computes it, with perfbench/ on sys.path.
_SEED_DIGEST = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS, seed_digest
workdir = Path(sys.argv[1])
print(json.dumps({w: seed_digest(WORKLOADS[w], 42, workdir) for w in sys.argv[2:]}))
"""


def test_benchmark_digests_are_pinned(tmp_path):
    # REPORT_DIGESTS pins samples=8; this pins the gate report at the
    # benchmark's settings and one sets-hot sweep, reading perfbench/ and
    # writing nothing under it.
    workloads = ["gate", "sets-hot"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _SEED_DIGEST, str(tmp_path), *workloads],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    pinned = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    found = json.loads(done.stdout.splitlines()[-1])
    assert found == {w: pinned[w]["42"] for w in workloads}


def refuse_to_build_a_set(v, fin, ev, flips):
    raise AssertionError("a passing case built an EvSet")


@pytest.mark.parametrize("seed", [0, 42])
def test_passing_set_cases_build_no_set(seed, monkeypatch):
    # The set suites decide on drawn masks and build an EvSet only for a
    # witness, so with no failure the set builder is never called.
    monkeypatch.setattr(suites, "_sampled_set", refuse_to_build_a_set)
    for report in run_suites(["scompact-closure", "cocompact-form"], seed, 16):
        assert report.cases > 0 and report.failed == 0


def refuse_to_build_a_seq(space, draw):
    raise AssertionError("a passing case built a Seq")


@pytest.mark.parametrize("seed", [0, 42])
def test_passing_sequence_cases_build_no_seq(seed, monkeypatch):
    # The sequence suites decide on drawn thread bits and build a Seq only
    # for a witness, so with no failure the sequence builder is never called.
    monkeypatch.setattr(suites, "_drawn_seq", refuse_to_build_a_seq)
    monkeypatch.setattr(generate, "_drawn_seq", refuse_to_build_a_seq)
    for report in run_suites(["proper-vs-noconv", "countable-vs-seq-compact"], seed, 16):
        assert report.cases > 0 and report.failed == 0


SET_PREDICATES = (
    "closed-scompact-countably-compact", "scompact-three-way", "cocompact-closed-form"
)


def negated(fn):
    return lambda *args: not fn(*args)


def fails_on_some_sets(fn):
    """Fails the cases whose set has a finite mask divisible by 3, so the
    witnesses are built from the middle of each stream."""

    def mutant(space, c):
        fin = c[0] if isinstance(c, tuple) else space.compiled.read(c)[0]
        return fn(space, c) and fin % 3 != 0

    return mutant


# (cases, failed, sha256 of the report with wall_ms dropped) of the set
# suites at seed 7, samples 16 and 12 instances, with the set predicates
# mutated; recorded while every case still drew its EvSet.
FORCED_SET_WITNESSES = {
    negated: {
        "scompact-closure": (
            130, 130, "fe03000d6edcfa186b061ae7903cc923709164a7eec72c70c8f9a77e398ace8b"
        ),
        "cocompact-form": (
            96, 96, "c1d43ca22408b0a6e8a35e641532d13f000308bfc2e03d713705898aac0182fc"
        ),
    },
    fails_on_some_sets: {
        "scompact-closure": (
            130, 65, "6b63b6ae548559dc63574b8d70b344f8edf0cec1a03d0d6db11f95c27e3bcf4e"
        ),
        "cocompact-form": (
            96, 48, "93dd960670be8d156f3adea6aafbe6f1cc4000b7c1af5d0c032d787754fbcc68"
        ),
    },
}


@pytest.mark.parametrize("mutate", list(FORCED_SET_WITNESSES), ids=lambda m: m.__name__)
def test_set_witnesses_are_the_drawn_sets(mutate, monkeypatch):
    # A failing case builds its set from its draw; its witness, flips
    # included, is the one the set sampler gives at that point of the stream.
    monkeypatch.setattr(suites, "SUITE_INSTANCES", 12)
    for name in SET_PREDICATES:
        fn, kinds = suites.PREDICATES[name]
        monkeypatch.setitem(suites.PREDICATES, name, (mutate(fn), kinds))
    for suite, (cases, failed, digest) in FORCED_SET_WITNESSES[mutate].items():
        report = run_suites([suite], seed=7, samples=16)[0]
        assert (report.cases, report.failed) == (cases, failed)
        docs = without_wall_ms([report])[0]
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest
        assert not any(recheck_witness(w) for w in report.witnesses[:5])


SEQ_PREDICATES = ("proper-eq-noconv", "countable-eq-seq-compact")


def fails_on_three_threads(fn):
    """Fails the cases with a sequence of three threads, about every third
    sequence, so the witnesses are built from the middle of each stream.
    A sequence is read as its thread bits, drawn or from a witness."""

    def mutant(space, *seqs):
        v = space.compiled
        return fn(space, *seqs) and all(len(suites._bits(v, s)) != 3 for s in seqs)

    return mutant


def fails_off_seq_compact(fn):
    """Fails every space that is not sequentially compact: the cases that
    countable-vs-seq-compact decides with no sequences."""

    def mutant(space, *seqs):
        return fn(space, *seqs) and space_report(space).seq_compact

    return mutant


# (cases, failed, sha256 of the report with wall_ms dropped) of
# countable-vs-seq-compact at seed 7, samples 16 and 12 instances, with its
# predicate mutated; recorded while every instance drew its sequences.
FORCED_COUNTABLE_WITNESSES = {
    negated: (9, 9, "a289039111fbe1f2fb41cdb2f3d36cdaf155246eb68485eaf66f23b2a29adc90"),
    fails_off_seq_compact: (
        9, 4, "038bf87ca81488a9b415c8db10f195fe251f60c1e8ef21867edf4ef58947000c"
    ),
}


# (cases, failed, sha256 of the report with wall_ms dropped) of the sequence
# suites at seed 7, samples 16 and 12 instances, with the sequence
# predicates mutated; recorded while every case built its Seq.
FORCED_SEQ_WITNESSES = {
    negated: {
        "proper-vs-noconv": (
            48, 48, "0df9dc09656c2e704cedf3e4f8afc79b1006a13582b8e18cfb03141b9feee5ff"
        ),
        "countable-vs-seq-compact": FORCED_COUNTABLE_WITNESSES[negated],
    },
    fails_on_three_threads: {
        "proper-vs-noconv": (
            48, 13, "7a6a7bf92e6e47ffef030fa26d4c48e1f0da1787e82c441aa0d386a541cde93b"
        ),
        "countable-vs-seq-compact": (
            9, 3, "29e3504c0611184be05ddb449148ef427edb9d388a84544df4c278de66fc9686"
        ),
    },
}


@pytest.mark.parametrize("mutate", list(FORCED_SEQ_WITNESSES), ids=lambda m: m.__name__)
def test_sequence_witnesses_are_the_drawn_sequences(mutate, monkeypatch):
    # A failing case builds its Seqs from its draws; its witness is the
    # sequences gen_seq gives at that point of the instance's stream.
    monkeypatch.setattr(suites, "SUITE_INSTANCES", 12)
    for name in SEQ_PREDICATES:
        fn, kinds = suites.PREDICATES[name]
        monkeypatch.setitem(suites.PREDICATES, name, (mutate(fn), kinds))
    for suite, (cases, failed, digest) in FORCED_SEQ_WITNESSES[mutate].items():
        report = run_suites([suite], seed=7, samples=16)[0]
        assert (report.cases, report.failed) == (cases, failed)
        docs = without_wall_ms([report])[0]
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest
        assert not any(recheck_witness(w) for w in report.witnesses[:5])


@pytest.mark.parametrize("mutate", list(FORCED_COUNTABLE_WITNESSES), ids=lambda m: m.__name__)
def test_countable_witnesses_carry_the_drawn_sequences(mutate, monkeypatch):
    # A space that is not sequentially compact is decided with no sequences;
    # when it fails, its sequences are drawn for the witness alone, and are
    # the ones its instance's stream holds.
    monkeypatch.setattr(suites, "SUITE_INSTANCES", 12)
    name = "countable-eq-seq-compact"
    fn, kinds = suites.PREDICATES[name]
    monkeypatch.setitem(suites.PREDICATES, name, (mutate(fn), kinds))
    report = run_suites(["countable-vs-seq-compact"], seed=7, samples=16)[0]
    cases, failed, digest = FORCED_COUNTABLE_WITNESSES[mutate]
    assert (report.cases, report.failed) == (cases, failed)
    docs = without_wall_ms([report])[0]
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest
    assert not any(recheck_witness(w) for w in report.witnesses[:5])
    decoded = [args_from_json(kinds, w["args"]) for w in report.witnesses]
    assert all(len(args) == 1 + 4 for args in decoded)
    assert any(not space_report(args[0]).seq_compact for args in decoded)


def test_set_suites_open_one_stream_per_instance(monkeypatch):
    # Every case fails, and each instance's stream is still opened once:
    # a witness is built from the draw its case decided.
    monkeypatch.setattr(suites, "SUITE_INSTANCES", 12)
    for name in SET_PREDICATES:
        fn, kinds = suites.PREDICATES[name]
        monkeypatch.setitem(suites.PREDICATES, name, (negated(fn), kinds))
    opened = []
    real = suites.sub_rng

    def counted(seed, tag, i):
        opened.append((tag, i))
        return real(seed, tag, i)

    monkeypatch.setattr(suites, "sub_rng", counted)
    for report in run_suites(["scompact-closure", "cocompact-form"], seed=7, samples=16):
        assert report.failed == report.cases > 0
    tags = ("scompact", "scompact-s2", "ccform")
    assert sorted(opened) == sorted((tag, i) for tag in tags for i in range(12))


@pytest.fixture
def drawn(monkeypatch):
    """The gen_space calls made through the suites: two per instance of
    each base draw, and one per sheaf-glue instance."""
    calls = []
    real = generate.gen_space

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generate, "gen_space", counted)
    monkeypatch.setattr(suites, "gen_space", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 42])
def test_run_suites_reports_what_run_suite_reports(seed, drawn):
    # Run alone, the suites draw 11 bases of 200 instances between them;
    # run together they share the two bases, one per profile.
    names = list(SUITES)
    alone = without_wall_ms(run_suites([name], seed, 8)[0] for name in names)
    assert len(drawn) == 11 * 400 + 20
    drawn.clear()
    shared = without_wall_ms(run_suites(names, seed, 8))
    assert shared == alone
    assert len(drawn) == 2 * 400 + 20
    assert suites._bases is None and suites._streams is None
    assert without_wall_ms(run_suites(names, seed, 8)) == shared


def test_a_full_gate_run_draws_each_base_once(drawn, monkeypatch):
    # The gate's settings: seed 42, 200 samples; 2 020 spaces when every
    # stream drew its own base.  The same run counts the work no case reads,
    # with the count of a run that did it in brackets:
    # - sequence draws: 10 000 for proper-vs-noconv, and 50 for each of the
    #   72 sequentially compact T0 spaces of countable-vs-seq-compact
    #   (20 000, when it drew all 200 instances' sequences);
    # - gen_seq: none, every case being decided on its draw's thread bits
    #   (13 600, when each draw built its Seq);
    # - Seq.at under first_difference: only the incompatible-at-2 fixture's
    #   4 reads, every other comparison being of equal presentations
    #   (37 832);
    # - SeqClass, built once by each classify call: none, the predicates
    #   reading its two rules alone (13 733);
    # - names and tail_names called by maps._converging: none, each domain
    #   holding its generator table (50 034, one each for 25 017 lists).
    counts = Counter()
    real_gen_seq, real_draw_seq = generate.gen_seq, generate._draw_seq
    real_at, real_seq_class = Seq.at, sequences.SeqClass
    real_names, real_tail_names = CompiledSpace.names, CompiledSpace.tail_names
    scan, converging = first_difference.__code__, maps._converging.__code__

    def gen_seq(*args):
        counts["gen_seq"] += 1
        return real_gen_seq(*args)

    def draw_seq(*args):
        counts["draw_seq"] += 1
        return real_draw_seq(*args)

    def names(self, mask):
        if sys._getframe(1).f_code is converging:
            counts["names"] += 1
        return real_names(self, mask)

    def tail_names(self, mask):
        if sys._getframe(1).f_code is converging:
            counts["names"] += 1
        return real_tail_names(self, mask)

    def at(self, n):
        if sys._getframe(1).f_code is scan:
            counts["at"] += 1
        return real_at(self, n)

    def seq_class(*args):
        counts["classify"] += 1
        return real_seq_class(*args)

    monkeypatch.setattr(generate, "gen_seq", gen_seq)
    monkeypatch.setattr(generate, "_draw_seq", draw_seq)
    monkeypatch.setattr(suites, "_draw_seq", draw_seq)
    monkeypatch.setattr(Seq, "at", at)
    monkeypatch.setattr(sequences, "SeqClass", seq_class)
    monkeypatch.setattr(CompiledSpace, "names", names)
    monkeypatch.setattr(CompiledSpace, "tail_names", tail_names)
    run_suites(list(SUITES), DEFAULT_SEED, DEFAULT_SAMPLES)
    assert len(drawn) == 820
    assert [counts[k] for k in ("draw_seq", "gen_seq", "at", "classify", "names")] == [
        13_600, 0, 4, 0, 0
    ]


def test_stream_policy(monkeypatch, drawn):
    # Each base is drawn once and stays for the run; of the streams with
    # sequences or maps only the last one asked for is held.
    held = []

    def probe(seed, samples, budget):
        bases = sorted(key[2] for key in suites._bases)
        streams = sorted(key[2:] for key in suites._streams)
        held.append((bases, streams, len(drawn)))
        yield from ()

    monkeypatch.setitem(SUITES, "probe", (probe, None))
    run_suites(
        ["proper-vs-noconv", "probe", "proper-vs-seqproper", "probe",
         "wedge-vs-plus", "probe", "plus-sequential", "probe"],
        seed=0, samples=8,
    )  # fmt: skip
    assert held == [
        (["s2-only"], [], 400),
        (["all", "s2-only"], [("all", 1)], 800),
        (["all", "s2-only"], [], 800),
        (["all", "s2-only"], [], 800),
    ]
    assert suites._bases is None and suites._streams is None


EXTENSIONS = [(0, 0), (50, 0), (0, 20), (8, 4)]


@pytest.mark.parametrize("profile", PROFILES)
def test_extensions_of_a_shared_base_are_the_generated_streams(profile, monkeypatch, drawn):
    # Within one run every extension of a base, asked for in either order,
    # reads the base's rngs rebuilt from their word counts: it is the
    # stream generate_instances draws for the same arguments, and the base
    # is drawn once.  A stream with maps alone is the suites' own
    # (`_instances`); one with sequences is `_extend` on rebuilt rngs of the
    # shared base, which is where the sequence suites draw.
    expected = {ext: repr(generate_instances(3, 12, profile, *ext)) for ext in EXTENSIONS}
    for order in (EXTENSIONS, EXTENSIONS[::-1]):
        got = {}

        def probe(seed, samples, budget):
            for seqs, maps_per in order:
                if seqs:
                    insts, words = suites._base(seed, 12, profile)
                    rngs = (_rng_after(seed, profile, i, n) for i, n in enumerate(words))
                    stream = _extend(insts, rngs, seqs, maps_per)
                else:
                    stream = suites._instances(seed, 12, profile, maps_per)
                got[seqs, maps_per] = repr(stream)
            yield from ()

        monkeypatch.setitem(SUITES, "probe", (probe, None))
        drawn.clear()
        run_suites(["probe"], seed=3)
        assert got == expected
        assert len(drawn) == 24


def test_streams_are_dropped_when_a_suite_raises(monkeypatch):
    def broken(seed, samples, budget):
        suites._instances(seed, 4, "all", 0)
        raise RuntimeError("broken suite")
        yield

    monkeypatch.setitem(SUITES, "coreflection", (broken, "prop-4-13"))
    with pytest.raises(RuntimeError, match="broken suite"):
        run_suites(["plus-sequential", "coreflection"], seed=0, samples=8)
    assert suites._bases is None and suites._streams is None


def test_one_point_compactification_is_held_by_its_space():
    # A compactification lives on the compiled view of its space, never in a
    # memo keyed by Space equality, so equal spaces drawn apart share none.
    a, b = (gen_space(random.Random(7), "all") for _ in range(2))
    assert a == b and a is not b
    assert plus(a) is plus(a)
    assert plus(b) == plus(a) and plus(b) is not plus(a)


def test_a_case_passes_only_on_true(monkeypatch, capsys):
    # A predicate that returns None, not a bool, fails its case.
    kinds = suites.PREDICATES["sigma-one-constants"][1]
    monkeypatch.setitem(suites.PREDICATES, "sigma-one-constants", (lambda: None, kinds))
    report = run_suites(["sigma-fixtures"], 5, 40)[0]
    assert report.failed == 1 and report.unknown == 0
    assert report.passed == report.cases - 1
    assert report.witnesses == [{"predicate": "sigma-one-constants", "args": []}]
    assert recheck_witness(report.witnesses[0]) is False
    assert cli.main(["check", "--suite", "sigma-fixtures", "--seed", "5", "--samples", "40"]) == 1
    assert capsys.readouterr().out.startswith("sigma-fixtures: FAIL (")


@pytest.mark.parametrize(
    "suite, name, cases",
    [("cocompact-form", "cocompact-closed-form", 1600),
     ("proper-vs-noconv", "proper-eq-noconv", 800),
     ("countable-vs-seq-compact", "countable-eq-seq-compact", 167)],
)  # fmt: skip
def test_a_failing_drawn_case_is_decided_once(suite, name, cases, monkeypatch):
    # The predicate fails on every draw (on no sequences too) and passes on
    # the EvSet or Seqs built for the witness: a case decided again on
    # those would pass.
    kinds = suites.PREDICATES[name][1]
    fails_on_draws = (lambda space, *xs: bool(xs) and type(xs[0]) is not tuple, kinds)
    monkeypatch.setitem(suites.PREDICATES, name, fails_on_draws)
    report = run_suites([suite], seed=7, samples=16)[0]
    assert (report.cases, report.passed, report.failed) == (cases, 0, cases)


ERROR = "ZeroDivisionError: integer division or modulo by zero"


def test_a_raising_predicate_fails_its_case_alone(monkeypatch, tmp_path):
    # sigma-one-constants decides one case; when it raises, that case fails
    # with the error in its witness, and every other case and suite keeps
    # its verdict.  check writes the report and exits 1.
    names = ["plus-sequential", "sigma-fixtures", "coreflection"]
    monkeypatch.setattr(suites, "SUITE_INSTANCES", 12)
    before = without_wall_ms(run_suites(names, 5, 40))
    kinds = suites.PREDICATES["sigma-one-constants"][1]
    monkeypatch.setitem(suites.PREDICATES, "sigma-one-constants", (lambda: 1 // 0, kinds))
    after = without_wall_ms(run_suites(names, 5, 40))
    witness = {"predicate": "sigma-one-constants", "args": [], "error": ERROR}
    changed = dict(before[1], passed=before[1]["passed"] - 1, failed=1, witnesses=[witness])
    assert after == [before[0], changed, before[2]]
    with pytest.raises(ZeroDivisionError):
        recheck_witness(witness)
    path = tmp_path / "report.json"
    argv = ["check", "--suite", "sigma-fixtures", "--seed", "5", "--samples", "40"]
    assert cli.main([*argv, "--report", str(path)]) == 1
    assert json.loads(path.read_text(encoding="utf-8"))["witnesses"] == [witness]


def raises_once(fn):
    """Raises on its first call and is fn after that."""
    calls = []

    def mutant(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ZeroDivisionError("integer division or modulo by zero")
        return fn(*args)

    return mutant


@pytest.mark.parametrize(
    "suite, name",
    [
        ("scompact-closure", "closed-scompact-countably-compact"),
        ("cocompact-form", "cocompact-closed-form"),
        ("proper-vs-noconv", "proper-eq-noconv"),
        ("countable-vs-seq-compact", "countable-eq-seq-compact"),
    ],
)
def test_a_drawn_case_that_raises_fails_alone(suite, name, monkeypatch):
    # A drawn case goes through _check like any other: its one case fails,
    # and its witness holds the drawn arguments, on which the real
    # predicate passes; the other suite in the run keeps its report.
    monkeypatch.setattr(suites, "SUITE_INSTANCES", 12)
    names = [suite, "plus-sequential"]
    before = without_wall_ms(run_suites(names, 7, 16))
    fn, kinds = suites.PREDICATES[name]
    monkeypatch.setitem(suites.PREDICATES, name, (raises_once(fn), kinds))
    after = without_wall_ms(run_suites(names, 7, 16))
    witness = after[0]["witnesses"][0]
    assert witness["predicate"] == name and witness["error"] == ERROR
    assert fn(*args_from_json(kinds, witness["args"])) is True
    changed = dict(before[0], passed=before[0]["passed"] - 1, failed=1, witnesses=[witness])
    assert after == [changed, before[1]]


def test_readme_lists_every_suite_and_tag():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Property suites\n")
    section = text[start : text.index("\n## ", start + 1)]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {name.strip().strip("`"): tag.strip().strip("`") for name, tag in rows}
    assert table == {name: tag for name, (_, tag) in SUITES.items()}
    for tag, name in TAGS.items():
        assert resolve_suite(tag) == name
        assert f"`{tag}`" in section, tag
