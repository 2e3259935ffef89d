"""JSON round trips, parse errors with field paths, and the CLI surface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import extseq
from extseq.errors import ParseError
from extseq.generate import gen_ext, gen_map, gen_seq, gen_space, sample_evset
from extseq.instances import NAT_TAIL, nat_space
from extseq.serial import (
    canonical_dumps,
    entity_to_json,
    evset_from_json,
    evset_to_json,
    ext_from_json,
    map_from_json,
    parse_entity,
    seq_from_json,
    space_from_json,
    universe_from_json,
)
from extseq.suites import recheck_witness, run_suite

CLI = [sys.executable, "-m", "extseq.cli"]
# The child interpreter imports the same extseq as this process, however
# this process found it (PYTHONPATH or the pytest pythonpath setting).
SRC = str(Path(extseq.__file__).resolve().parent.parent)


def run_cli(*args, **kw):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env, **kw)


def test_entity_round_trips():
    rng = random.Random(1)
    for _ in range(40):
        space = gen_space(rng)
        assert space_from_json(entity_to_json(space)) == space
        ext = gen_ext(rng, space)
        assert ext_from_json(entity_to_json(ext)) == ext
        s = gen_seq(rng, space)
        assert seq_from_json(entity_to_json(s)) == s
        cod = gen_space(rng)
        f = gen_map(rng, space, cod)
        assert map_from_json(entity_to_json(f)) == f
        ev = sample_evset(rng, space)
        assert evset_from_json(evset_to_json(ev), space.universe) == ev


def test_parse_space_error_paths():
    # A tail entry with no attach list is an unattached tail.
    ok = space_from_json({"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"t": {}}})
    assert ok.tails == ("t",)
    with pytest.raises(ParseError) as err:
        space_from_json(
            {
                "points": ["x"],
                "minOpen": {"x": ["x"]},
                "tails": {"t": {"attach": ["ghost"]}},
            }
        )
    assert "ghost" in str(err.value)
    with pytest.raises(ParseError) as err2:
        space_from_json({"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"t": "bad"}})
    assert "tails/t" in str(err2.value)


def test_parse_sequence_validation_error():
    raw = {
        "universe": {"points": [], "tails": ["t"]},
        "prefix": [],
        "threads": [{"walk": {"tail": "t", "a": 0, "b": 0}}],
    }
    with pytest.raises(ParseError):
        seq_from_json(raw)


def test_parse_entity_sniffing(tmp_path):
    rng = random.Random(2)
    space = gen_space(rng)
    p = tmp_path / "space.json"
    p.write_text(canonical_dumps(entity_to_json(space)), encoding="utf-8")
    assert parse_entity(p) == space
    ext = gen_ext(rng, space)
    q = tmp_path / "ext.json"
    q.write_text(canonical_dumps(entity_to_json(ext)), encoding="utf-8")
    assert parse_entity(q) == ext
    with pytest.raises(ParseError):
        parse_entity(tmp_path / "missing.json")


# -- CLI ------------------------------------------------------------------------


def test_cli_validate(tmp_path):
    space = nat_space()
    f = tmp_path / "nn.json"
    f.write_text(canonical_dumps(entity_to_json(space)), encoding="utf-8")
    res = run_cli("validate", str(f))
    assert res.returncode == 0
    assert json.loads(res.stdout)["kind"] == "Space"

    bad = tmp_path / "bad.json"
    bad.write_text('{"points": ["x"], "minOpen": {}}', encoding="utf-8")
    res2 = run_cli("validate", str(bad))
    assert res2.returncode == 1


def test_cli_validate_rejects_repeated_names(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text('{"points": ["x", "x"], "minOpen": {"x": ["x"]}, "tails": {}}', encoding="utf-8")
    res = run_cli("validate", str(dup))
    assert res.returncode == 1
    assert res.stderr.startswith("invalid:") and "repeated point name" in res.stderr
    assert "Traceback" not in res.stderr
    with pytest.raises(ParseError):
        universe_from_json({"points": ["x"], "tails": ["t", "t"]})


def test_cli_eval_ops(tmp_path):
    space = nat_space()
    sp = tmp_path / "nn.json"
    sp.write_text(canonical_dumps(entity_to_json(space)), encoding="utf-8")
    res = run_cli("eval", "space-report", str(sp))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["seq_compact"] is False

    seq = tmp_path / "walk.json"
    seq.write_text(
        canonical_dumps(
            {
                "universe": {"points": [], "tails": [NAT_TAIL]},
                "prefix": [],
                "threads": [{"walk": {"tail": NAT_TAIL, "a": 1, "b": 0}}],
            }
        ),
        encoding="utf-8",
    )
    res2 = run_cli("eval", "classify-seq", str(sp), str(seq))
    assert res2.returncode == 0
    cls = json.loads(res2.stdout)
    assert cls["proper"] is True and cls["noConvSubseq"] is True

    res3 = run_cli("eval", "plus", str(sp))
    assert res3.returncode == 0
    based = json.loads(res3.stdout)
    assert based["basePoint"] in based["points"]

    plus_file = tmp_path / "plus.json"
    plus_file.write_text(res3.stdout, encoding="utf-8")
    res4 = run_cli("eval", "bar", str(plus_file))
    assert res4.returncode == 0
    back = json.loads(res4.stdout)
    assert back["D"] == [NAT_TAIL] and back["L"] == []

    res5 = run_cli("eval", "nosuch-op", str(sp))
    assert res5.returncode == 1


def test_cli_eval_omega_sequential(tmp_path):
    sp = tmp_path / "nn.json"
    sp.write_text(canonical_dumps(entity_to_json(nat_space())), encoding="utf-8")
    res = run_cli("eval", "omega-sequential", str(sp))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"omegaSequential": True}


def test_cli_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli("gen", "--profile", "s2-only", "--count", "4", "--seed", "9", "--out", str(out))
        assert res.returncode == 0
    files1 = sorted(out1.glob("*.json"))
    files2 = sorted(out2.glob("*.json"))
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_text() == f2.read_text()
    parsed = json.loads(files1[0].read_text())
    assert {"ext", "partner", "seqs", "maps"} <= parsed.keys()


def test_cli_check_suite_and_report(tmp_path):
    rpt1, rpt2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for rpt in (rpt1, rpt2):
        res = run_cli(
            "check",
            "--suite",
            "sigma-fixtures",
            "--seed",
            "5",
            "--samples",
            "40",
            "--report",
            str(rpt),
        )
        assert res.returncode == 0, res.stdout + res.stderr
    a, b = json.loads(rpt1.read_text()), json.loads(rpt2.read_text())
    assert a.pop("wall_ms") is not None and b.pop("wall_ms") is not None
    assert canonical_dumps(a) == canonical_dumps(b)
    assert a["cases"] == a["passed"]


def test_cli_check_accepts_statement_tags(tmp_path):
    res = run_cli("check", "--suite", "thm-2-5", "--samples", "16")
    assert res.returncode == 0
    assert "proper-vs-noconv" in res.stdout


def test_cli_check_unknown_suite():
    res = run_cli("check", "--suite", "nosuch")
    assert res.returncode != 0


def test_cli_mutant_suite_fails_with_reproducible_witness(tmp_path):
    rpt = tmp_path / "mutant.json"
    res = run_cli(
        "check", "--suite", "fixture-mutant", "--seed", "3", "--samples", "20",
        "--report", str(rpt),
    )
    assert res.returncode == 1
    doc = json.loads(rpt.read_text())
    assert doc["failed"] > 0 and doc["witnesses"]
    # Re-parsed standalone, each witness reproduces the failure.
    for w in doc["witnesses"]:
        assert recheck_witness(w) is False


def test_report_reproducible_in_process():
    r1 = run_suite("cocompact-form", 11, 30, 8)
    r2 = run_suite("cocompact-form", 11, 30, 8)
    a, b = r1.to_json(), r2.to_json()
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert canonical_dumps(a) == canonical_dumps(b)
    assert r1.cases == r1.passed + r1.failed + r1.unknown


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bad_inputs(tmp_path):
    nn = entity_to_json(nat_space())
    sp = _write(tmp_path / "sp.json", json.dumps(nn))

    def map_file(name, tail_image):
        doc = {"dom": nn, "cod": nn, "onTails": {NAT_TAIL: tail_image}}
        return _write(tmp_path / name, json.dumps(doc))

    seq = {
        "universe": {"points": [], "tails": [NAT_TAIL]},
        "prefix": [],
        "threads": [{"walk": {"tail": NAT_TAIL, "a": "x", "b": 0}}],
    }
    ext = {"space": nn, "L": [], "D": [NAT_TAIL]}
    return {
        "missing-file": ["eval", "is-open", sp, str(tmp_path / "missing.json")],
        "malformed-evset": ["eval", "is-open", sp, _write(tmp_path / "ev.json", '{"finite": [')],
        "non-integer-walk": ["eval", "classify-seq", sp, _write(tmp_path / "seq.json", json.dumps(seq))],
        "non-integer-map": [
            "eval", "map-properties", map_file("m1.json", {"toTail": {"tail": NAT_TAIL, "b": "y"}})
        ],
        "non-integer-exception": [
            "eval", "map-properties",
            map_file("m2.json", {"toTail": {"tail": NAT_TAIL}, "exceptions": {"z": "q"}}),
        ],
        "ext-for-space": ["eval", "space-report", _write(tmp_path / "ext.json", json.dumps(ext))],
        "wrong-arity": ["eval", "is-open", sp],
        "negative-samples": ["check", "--suite", "sigma-fixtures", "--samples", "-5"],
    }  # fmt: skip


@pytest.mark.parametrize(
    "case",
    [
        "missing-file",
        "malformed-evset",
        "non-integer-walk",
        "non-integer-map",
        "non-integer-exception",
        "ext-for-space",
        "wrong-arity",
        "negative-samples",
    ],
)
def test_cli_input_errors_exit_1_without_traceback(case, tmp_path):
    res = run_cli(*_bad_inputs(tmp_path)[case])
    assert res.returncode == 1, res.stdout + res.stderr
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_eval_seq_takes_universe_from_space(tmp_path):
    sp = _write(tmp_path / "sp.json", canonical_dumps(entity_to_json(nat_space())))
    seq = _write(
        tmp_path / "walk.json",
        json.dumps({"prefix": [], "threads": [{"walk": {"tail": NAT_TAIL, "a": 2, "b": 1}}]}),
    )
    res = run_cli("eval", "classify-seq", sp, seq)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["proper"] is True
