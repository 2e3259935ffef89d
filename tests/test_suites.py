"""One check run: run_suites shares instance streams between its suites,
reports exactly what one run per suite reports, and holds no stream once
it returns; a one-point compactification is held by its own space."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from extseq import cli, suites
from extseq.compactify import plus
from extseq.generate import gen_space
from extseq.suites import SUITES, TAGS, recheck_witness, resolve_suite, run_suites

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.fixture
def drawn(monkeypatch):
    """The generate_instances calls made through the suites."""
    calls = []
    real = suites.generate_instances

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(suites, "generate_instances", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 42])
def test_run_suites_reports_what_run_suite_reports(seed, drawn):
    names = list(SUITES)
    alone = without_wall_ms(run_suites([name], seed, 8)[0] for name in names)
    assert len(drawn) == 11
    drawn.clear()
    shared = without_wall_ms(run_suites(names, seed, 8))
    assert shared == alone
    assert len(drawn) == len(set(drawn)) == 5
    assert suites._streams is None
    assert without_wall_ms(run_suites(names, seed, 8)) == shared


def test_stream_policy(monkeypatch):
    # Base-only streams stay for the run; of the streams with sequences or
    # maps only the last one asked for is held.
    held = []

    def probe(seed, samples, budget):
        held.append(sorted(key[2:] for key in suites._streams))
        yield from ()

    monkeypatch.setitem(SUITES, "probe", (probe, None))
    run_suites(
        ["proper-vs-noconv", "probe", "wedge-vs-plus", "probe",
         "proper-vs-seqproper", "probe", "plus-sequential", "probe"],
        seed=0, samples=8,
    )  # fmt: skip
    assert held == [
        [("s2-only", 2, 0)],
        [("s2-only", 0, 0)],
        [("all", 0, 1), ("s2-only", 0, 0)],
        [("all", 0, 0), ("s2-only", 0, 0)],
    ]
    assert suites._streams is None


def test_streams_are_dropped_when_a_suite_raises(monkeypatch):
    def broken(seed, samples, budget):
        suites._instances(seed, 4, "all", 0, 0)
        raise RuntimeError("broken suite")
        yield

    monkeypatch.setitem(SUITES, "coreflection", (broken, "prop-4-13"))
    with pytest.raises(RuntimeError, match="broken suite"):
        run_suites(["plus-sequential", "coreflection"], seed=0, samples=8)
    assert suites._streams is None


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
