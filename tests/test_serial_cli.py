"""JSON round trips, parse errors with field paths, and the CLI surface."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extseq
from extseq import cli
from extseq.compactify import infinity, plus
from extseq.core import FinitePoint, TailPoint, ev_set
from extseq.errors import ParseError, PresentationError
from extseq.exteriority import ExtSpace, Externology, make_ext_space
from extseq.generate import (
    gen_convergent_seq,
    gen_ext,
    gen_map,
    gen_seq,
    gen_space,
    generate_instances,
    sample_evset,
)
from extseq.instances import NAT_TAIL, nat_cofinite, nat_plus_space, nat_space
from extseq.maps import TailToTail, make_map
from extseq.sequences import Affine, WalkThread, make_seq
from extseq.serial import (
    KINDS,
    _escape,
    _key_text,
    _scalar_text,
    args_from_json,
    args_to_json,
    canonical_dumps,
    entity_from_json,
    entity_to_json,
    from_json,
    parse_entity,
    to_json,
)
from extseq.sheaves import ConvElem, make_ideal
from extseq.spaces import validate_space
from extseq.suites import recheck_witness, run_suites
from support import MUTANT_SUITE

# The child interpreter imports the same extseq as this process, however
# this process found it (PYTHONPATH or the pytest pythonpath setting).
SRC = str(Path(extseq.__file__).resolve().parent.parent)


def run_cli(*args, module="extseq.cli", **kw):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", module, *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, **kw)


def _one_of_each_kind(rng):
    """A generated space, and a value over it of every kind of the serial
    table; "conv" is missing when the space offers no convergence."""
    space = gen_space(rng)
    ext = gen_ext(rng, space)
    raw = Externology(
        tuple(x for x in space.points if rng.random() < 0.3),
        tuple(t for t in space.tails if rng.random() < 0.3),
    )
    gens = [Affine(1 + rng.randrange(3), rng.randrange(5)) for _ in range(1 + rng.randrange(3))]
    values = {
        "space": space,
        "universe": space.universe,
        "set": sample_evset(rng, space),
        "seq": gen_seq(rng, space),
        "map": gen_map(rng, space, gen_space(rng)),
        "ext": ext,
        "pair": ExtSpace(space, raw),
        "ideal": make_ideal(rng.choice(("M", "M+")), gens),
        "based": infinity(ext),
    }
    convergent = gen_convergent_seq(rng, space)
    if convergent is not None:
        values["conv"] = ConvElem(*convergent)
    return space, values


def test_entity_round_trips():
    rng = random.Random(1)
    seen = set()
    for _ in range(40):
        space, values = _one_of_each_kind(rng)
        for kind, value in values.items():
            # After a space, which a set or pair is read against.
            kinds = ("space", kind)
            assert args_from_json(kinds, args_to_json(kinds, (space, value))) == [space, value]
            over = space if kind in ("set", "pair") else None
            assert from_json(kind, to_json(kind, value), over) == value
        for kind in ("space", "seq", "map", "ext", "based"):
            assert entity_from_json(entity_to_json(values[kind])) == values[kind]
        seen |= values.keys()
    assert seen == KINDS.keys()


def _json_dumps(obj):
    """The text canonical_dumps writes, as json.dumps writes it."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class _Str(str):
    """A str subclass, which json writes as a str."""


# Strings with json's escapes, control characters, non-ASCII and lone
# surrogates, some of them a str subclass; numbers at every size, and the
# floats json names.
_strings = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é😀a')) | st.text(
    st.characters(exclude_categories=())
)
_strings |= _strings.map(_Str)
_numbers = (
    st.integers()
    | st.integers(min_value=10**30)
    | st.integers(max_value=-(10**30))
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
)
# Lists of ids, the lists an entity is mostly made of, as lists and tuples.
_id_lists = st.lists(_strings, max_size=5)
_id_lists |= _id_lists.map(tuple)
_json_trees = st.recursive(
    _strings | _numbers | st.booleans() | st.none() | _id_lists,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    # One family of keys per object, so that json can sort them.
    | st.dictionaries(_strings, kids, max_size=4)
    | st.dictionaries(_numbers | st.booleans(), kids, max_size=4)
    | st.dictionaries(st.none(), kids, max_size=1),
    max_leaves=20,
)


def _reference_text(obj, indent):
    """serial._text as it stood before a list of ids was written in one
    join and a plain dict or list was tested by its type: the reference
    for the text canonical_dumps writes."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [
            _escape(k if isinstance(k, str) else _key_text(k))
            + ": "
            + (_escape(v) if type(v) is str else _reference_text(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_escape(v) if type(v) is str else _reference_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, str):
        return _escape(obj)
    text = _scalar_text(obj)
    if text is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return text


@settings(max_examples=400, deadline=None)
@given(_json_trees)
def test_canonical_dumps_writes_what_json_dumps_writes(obj):
    text = canonical_dumps(obj)
    assert text == _json_dumps(obj) == _reference_text(obj, "\n") + "\n"


def test_canonical_dumps_matches_json_dumps_on_generated_entities():
    for inst in generate_instances(42, 40):
        for entity in (inst.ext, inst.partner, *inst.seqs, *inst.maps):
            doc = entity_to_json(entity)
            assert canonical_dumps(doc) == _json_dumps(doc) == _reference_text(doc, "\n") + "\n"


@pytest.mark.parametrize(
    "obj",
    [{"a": {1, 2}}, [b"x"], {(1, 2): 0}, {1: 0, "a": 1}, {None: 0, "a": 1}],
    ids=["set-value", "bytes-value", "tuple-key", "int-and-str-keys", "none-and-str-keys"],
)
def test_canonical_dumps_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(Exception) as expected:
        _json_dumps(obj)
    with pytest.raises(Exception) as got:
        canonical_dumps(obj)
    assert type(got.value) is type(expected.value)


def test_parse_space_error_paths():
    # A tail entry with no attach list is an unattached tail.
    ok = from_json("space", {"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"t": {}}})
    assert ok.tails == ("t",)
    with pytest.raises(ParseError) as err:
        from_json(
            "space",
            {
                "points": ["x"],
                "minOpen": {"x": ["x"]},
                "tails": {"t": {"attach": ["ghost"]}},
            }
        )
    assert "ghost" in str(err.value)
    with pytest.raises(ParseError) as err2:
        from_json("space", {"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"t": "bad"}})
    assert "tails/t" in str(err2.value)


def test_parse_sequence_validation_error():
    raw = {
        "universe": {"points": [], "tails": ["t"]},
        "prefix": [],
        "threads": [{"walk": {"tail": "t", "a": 0, "b": 0}}],
    }
    with pytest.raises(ParseError):
        from_json("seq", raw)


@pytest.mark.parametrize(
    "kind, raw, message",
    [
        ("map", {"dom": [], "cod": {}}, "f.json/dom: space must be an object"),
        ("ext", {"space": "nn"}, "f.json/space: space must be an object"),
        ("seq", {"universe": 3, "threads": []}, "f.json/universe: universe must be an object"),
        ("conv", {"limit": "x"}, "f.json/seq: sequence must be an object"),
        ("ideal", ["M"], "f.json: ideal must be an object"),
    ],
)
def test_a_non_object_is_named_by_its_noun(kind, raw, message):
    with pytest.raises(ParseError) as err:
        from_json(kind, raw, None, ("f.json",))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "kind, message",
    [
        ("set", "f.json: an evset follows the space it lives over"),
        ("pair", "f.json: an externology pair follows the space it lives over"),
    ],
)
def test_a_spaceless_read_names_the_kind_by_its_noun(kind, message):
    with pytest.raises(ParseError) as err:
        from_json(kind, {}, None, ("f.json",))
    assert str(err.value) == message


def test_a_wrong_shape_is_named_by_its_noun():
    nn = nat_space()
    space = entity_to_json(nn)
    ext = entity_to_json(nat_cofinite())
    seq = entity_to_json(make_seq(nn.universe, (), (WalkThread(NAT_TAIL),)))
    ident = entity_to_json(make_map(nn, nn, {}, {NAT_TAIL: TailToTail(NAT_TAIL)}))
    cases = [
        (("ext",), [space], "nn.json: expected an externology, found a space"),
        (("based",), [ext], "nn.json: expected a based space, found an externology"),
        (("space", "seq"), [space, space], "nn.json: expected a sequence, found a space"),
        (("space", "map"), [space, ext], "nn.json: expected a map, found an externology"),
        (("space", "set"), [space, space], "nn.json: expected an evset, found a space"),
        (("space", "set"), [space, seq], "nn.json: expected an evset, found a sequence"),
        (("space", "set"), [space, ident], "nn.json: expected an evset, found a map"),
        (("space", "pair"), [space, space], "nn.json: expected an externology pair, found a space"),
        (("space", "pair"), [space, seq], "nn.json: expected an externology pair, found a sequence"),
        (("space", "pair"), [space, ident], "nn.json: expected an externology pair, found a map"),
    ]
    for kinds, raws, message in cases:
        with pytest.raises(ParseError) as err:
            args_from_json(kinds, raws, ["nn.json"] * len(raws))
        assert str(err.value) == message
    # A set without `finite` and a pair of L and D alone are still read.
    row = {NAT_TAIL: {"eventual": True, "flips": [1]}}
    _, s = args_from_json(("space", "set"), [space, {"tails": row}])
    assert s == ev_set(nn.universe, (), {NAT_TAIL: True}, {NAT_TAIL: [1]})
    _, s = args_from_json(("space", "set"), [space, {}])
    assert s == ev_set(nn.universe)
    _, e = args_from_json(("space", "pair"), [space, {"L": [], "D": [NAT_TAIL]}])
    assert e == ExtSpace(nn, Externology((), (NAT_TAIL,)))


def test_cli_names_the_expected_kind_by_its_noun(tmp_path):
    sp = _write(tmp_path / "nn.json", canonical_dumps(entity_to_json(nat_space())))
    plus = run_cli("eval", "plus", sp)
    assert plus.returncode == 0, plus.stderr
    based = _write(tmp_path / "plus.json", plus.stdout)
    for args in (("canonicalize", sp), ("is-exterior-seq", based, sp)):
        res = run_cli("eval", *args)
        assert res.returncode == 1
        assert res.stderr == f"error: {args[1]}: expected an externology, found a space\n"


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


def test_cli_validate_keeps_a_based_space(tmp_path):
    sp = _write(tmp_path / "nn.json", canonical_dumps(entity_to_json(nat_space())))
    plus_out = run_cli("eval", "plus", sp)
    assert plus_out.returncode == 0, plus_out.stderr
    res = run_cli("validate", _write(tmp_path / "plus.json", plus_out.stdout))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"kind": "BasedSpace", "entity": json.loads(plus_out.stdout)}


def test_cli_validate_reads_a_surrogate_pair(tmp_path):
    # json.dumps writes the id as the escaped pair \ud83d\ude00, which
    # sends read_json searching for a lone surrogate; it finds none.
    doc = {"points": ["😀"], "minOpen": {"😀": ["😀"]}, "tails": {}}
    res = run_cli("validate", _write(tmp_path / "pair.json", json.dumps(doc)))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"kind": "Space", "entity": doc}


def test_cli_prints_utf8_on_a_stream_that_cannot_encode_an_id(tmp_path):
    # validate and eval write their JSON as UTF-8 bytes, whatever the
    # encoding of the stdout stream.
    doc = {"points": ["😀"], "minOpen": {"😀": ["😀"]}, "tails": {}}
    sp = _write(tmp_path / "smile.json", json.dumps(doc))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="ascii")
    expected = {
        "validate": canonical_dumps({"kind": "Space", "entity": doc}),
        "eval": canonical_dumps(entity_to_json(plus(parse_entity(sp)))),
    }
    for args in (("validate", sp), ("eval", "plus", sp)):
        cmd = [sys.executable, "-m", "extseq.cli", *args]
        res = subprocess.run(cmd, capture_output=True, env=env)
        assert res.returncode == 0, res.stderr.decode("utf-8", "replace")
        assert res.stderr == b""
        assert res.stdout.decode("utf-8") == expected[args[0]]


def test_cli_gen_prints_its_directory_in_utf8(tmp_path):
    # The closing line goes out in UTF-8 under an ASCII stdout, and a name
    # that is not UTF-8 goes out as the bytes it was given.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="ascii")
    for out in (str(tmp_path / "outé"), os.fsencode(tmp_path) + b"/out\xff"):
        cmd = [sys.executable, "-m", "extseq.cli", "gen", "--count", "1", "--out", out]
        res = subprocess.run(cmd, capture_output=True, env=env)
        assert res.returncode == 0, res.stderr.decode("utf-8", "replace")
        assert res.stderr == b""
        assert res.stdout == b"wrote 1 instance(s) to " + os.fsencode(out) + b"\n"
        assert (Path(os.fsdecode(out)) / "instance-000.json").is_file()
        if isinstance(out, str):
            assert res.stdout.decode("utf-8") == f"wrote 1 instance(s) to {out}\n"


def test_cli_prints_text_where_stdout_has_no_buffer(tmp_path):
    sp = _write(tmp_path / "nn.json", canonical_dumps(entity_to_json(nat_space())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["validate", sp]) == 0
    assert json.loads(out.getvalue()) == {"kind": "Space", "entity": entity_to_json(nat_space())}


def test_cli_validate_rejects_repeated_names(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text('{"points": ["x", "x"], "minOpen": {"x": ["x"]}, "tails": {}}', encoding="utf-8")
    res = run_cli("validate", str(dup))
    assert res.returncode == 1
    assert res.stderr.startswith("invalid:") and "repeated point name" in res.stderr
    assert "Traceback" not in res.stderr
    with pytest.raises(ParseError):
        from_json("universe", {"points": ["x"], "tails": ["t", "t"]})


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


def test_package_runs_as_the_cli():
    res = run_cli("check", "--suite", "sigma-fixtures", module="extseq")
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.startswith("sigma-fixtures: pass")


def test_cli_check_accepts_statement_tags(tmp_path):
    res = run_cli("check", "--suite", "thm-2-5", "--samples", "16")
    assert res.returncode == 0
    assert "proper-vs-noconv" in res.stdout


def test_cli_check_unknown_suite():
    # The wrong decider of the tests is registered only by their fixture,
    # so the CLI does not know its suite either.
    for name in ("nosuch", MUTANT_SUITE):
        res = run_cli("check", "--suite", name)
        assert res.returncode == 1
        assert res.stderr == f"error: unknown suite {name!r}\n"


def test_cli_mutant_suite_fails_with_reproducible_witness(tmp_path, capsys, mutant_suite):
    rpt = tmp_path / "mutant.json"
    code = cli.main(
        ["check", "--suite", mutant_suite, "--seed", "3", "--samples", "20", "--report", str(rpt)]
    )
    assert code == 1
    assert capsys.readouterr().out.startswith(f"{mutant_suite}: FAIL")
    doc = json.loads(rpt.read_text())
    assert doc["failed"] > 0 and doc["witnesses"]
    # Re-parsed standalone, each witness reproduces the failure.
    for w in doc["witnesses"]:
        assert recheck_witness(w) is False


def test_report_reproducible_in_process():
    r1 = run_suites(["cocompact-form"], 11, 30, 8)[0]
    r2 = run_suites(["cocompact-form"], 11, 30, 8)[0]
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
    good_seq = {"prefix": [], "threads": [{"walk": {"tail": NAT_TAIL}}]}
    sq = _write(tmp_path / "sq.json", json.dumps(good_seq))

    def evset_file(name, row):
        return _write(tmp_path / name, json.dumps({"finite": [], "tails": {NAT_TAIL: row}}))

    bool_index = {
        "prefix": [{"tail": NAT_TAIL, "index": True}],
        "threads": [{"walk": {"tail": NAT_TAIL}}],
    }

    def seq_file(name, prefix, walk):
        doc = {"prefix": prefix, "threads": [{"walk": walk}]}
        return _write(tmp_path / name, json.dumps(doc))

    nat = {"tail": NAT_TAIL}

    def point(index):
        return {"tail": NAT_TAIL, "index": index}

    one_point = {"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {}}
    ghost = {"dom": one_point, "cod": nn, "onPoints": {"x": "zz"}, "onTails": {}}

    def images_file(name, dom, on_points, on_tails):
        doc = {"dom": dom, "cod": nn, "onPoints": on_points, "onTails": on_tails}
        return ["eval", "map-properties", _write(tmp_path / name, json.dumps(doc))]

    def ext_file(name, limits, tails):
        return _write(tmp_path / name, json.dumps({"space": nn, "L": limits, "D": tails}))

    def space_file(name, doc):
        return ["eval", "space-report", _write(tmp_path / name, json.dumps(doc))]

    def space_text(name, text):
        return ["eval", "space-report", _write(tmp_path / name, text)]

    # json.dumps writes no repeated key and no numeral int() refuses, so
    # these are written as text.
    tail_image = {"toTail": nat, "exceptions": {"3": point(0), "03": point(1)}}
    repeated_exception = json.dumps({"dom": nn, "cod": nn, "onTails": {NAT_TAIL: tail_image}})
    long_walk = json.dumps({"prefix": [], "threads": [{"walk": {"tail": NAT_TAIL, "a": 1}}]})

    open_base = {
        "points": ["x", "y"], "minOpen": {"x": ["x"], "y": ["x", "y"]}, "tails": {}, "basePoint": "x",
    }  # fmt: skip

    # gen makes its output directory, but cannot write this instance file.
    taken_file = tmp_path / "out" / "instance-000.json"
    taken_file.mkdir(parents=True)

    string_universe = {
        "universe": {"points": "xy", "tails": []},
        "prefix": "xy",
        "threads": [{"const": "x"}],
    }
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
        "unknown-op": ["eval", "nosuch-op", sp],
        "negative-samples": ["check", "--suite", "sigma-fixtures", "--samples", "-5"],
        "gen-out-is-a-file": ["gen", "--count", "1", "--out", _write(tmp_path / "taken", "")],
        "gen-file-taken": ["gen", "--count", "2", "--out", str(taken_file.parent)],
        "report-dir-missing": ["check", "--report", str(tmp_path / "missing" / "r.json")],
        "non-boolean-eventual": [
            "eval", "is-open", sp, evset_file("ev1.json", {"eventual": "no", "flips": []})
        ],
        "boolean-flip": [
            "eval", "is-open", sp, evset_file("ev2.json", {"eventual": True, "flips": [True]})
        ],
        "boolean-tail-index": [
            "eval", "classify-seq", sp, _write(tmp_path / "seq2.json", json.dumps(bool_index))
        ],
        "negative-count": ["gen", "--count", "-3", "--out", str(tmp_path / "not-made")],
        "numeric-point-tail": [
            "eval", "classify-seq", sp, seq_file("seq3.json", [{"tail": 5, "index": 2}], nat)
        ],
        "numeric-point-id": ["eval", "classify-seq", sp, seq_file("seq4.json", [{"id": 5}], nat)],
        "numeric-walk-tail": ["eval", "classify-seq", sp, seq_file("seq5.json", [], {"tail": 5})],
        "missing-walk-tail": ["eval", "classify-seq", sp, seq_file("seq6.json", [], {"a": 1})],
        "numeric-map-tail": [
            "eval", "map-properties", map_file("m3.json", {"toTail": {"tail": 5}})
        ],
        "missing-map-tail": ["eval", "map-properties", map_file("m4.json", {"toTail": {"a": 2}})],
        "repeated-exception": [
            "eval", "map-properties",
            map_file("m5.json", {"toTail": nat, "exceptions": {"3": point(0), "03": point(1)}}),
        ],
        "negative-exception": [
            "eval", "map-properties", map_file("m6.json", {"toTail": nat, "exceptions": {"-1": point(0)}})
        ],
        "signed-exception": [
            "eval", "map-properties",
            map_file("m13.json", {"toTail": nat, "exceptions": {" +2": point(0)}}),
        ],
        "underscored-exception": [
            "eval", "map-properties",
            map_file("m14.json", {"toTail": nat, "exceptions": {"1_0": point(0)}}),
        ],
        "padded-negative-exception": [
            "eval", "map-properties",
            map_file("m15.json", {"toTail": nat, "exceptions": {"-01": point(0)}}),
        ],
        "unknown-point-image": [
            "eval", "map-properties", _write(tmp_path / "m7.json", json.dumps(ghost))
        ],
        "unknown-target-tail": [
            "eval", "map-properties", map_file("m8.json", {"toTail": {"tail": "q"}})
        ],
        "unknown-domain-point": images_file(
            "m10.json", nn, {"zz": point(0)}, {NAT_TAIL: {"toTail": nat}}
        ),
        "missing-point-image": images_file("m11.json", one_point, {}, {}),
        "unknown-domain-tail": images_file("m12.json", nn, {}, {"q": {"toTail": nat}}),
        "zero-walk-slope": [
            "eval", "classify-seq", sp, seq_file("seq7.json", [], {"tail": NAT_TAIL, "a": 0})
        ],
        "negative-map-offset": [
            "eval", "map-properties", map_file("m9.json", {"toTail": {"tail": NAT_TAIL, "b": -1}})
        ],
        "string-min-open": space_file(
            "sp1.json", {"points": ["x", "y"], "minOpen": {"x": "xy", "y": ["y"]}, "tails": {}}
        ),
        "numeric-point": space_file("sp2.json", {"points": [1], "minOpen": {}, "tails": {}}),
        "numeric-attach": space_file(
            "sp3.json", {"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"t": {"attach": [1]}}}
        ),
        "unknown-min-open-point": space_file(
            "sp4.json", {"points": ["x"], "minOpen": {"x": ["x", "ghost"]}, "tails": {}}
        ),
        "unknown-attach-point": space_file(
            "sp5.json",
            {"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"t": {"attach": ["ghost"]}}},
        ),
        "missing-min-open": space_file("sp6.json", {"points": ["x"], "minOpen": {}, "tails": {}}),
        "intransitive-min-open": space_file(
            "sp7.json",
            {"points": ["x", "y", "z"], "minOpen": {"x": ["x", "y"], "y": ["y", "z"], "z": ["z"]}},
        ),
        "string-universe": [
            "eval", "classify-seq", sp, _write(tmp_path / "seq8.json", json.dumps(string_universe))
        ],
        "string-prefix": ["eval", "classify-seq", sp, seq_file("seq9.json", "xy", nat)],
        "string-threads": [
            "eval", "classify-seq", sp,
            _write(tmp_path / "seq10.json", json.dumps({"prefix": [], "threads": "ab"})),
        ],
        "no-threads": [
            "eval", "classify-seq", sp,
            _write(tmp_path / "seq11.json", json.dumps({"prefix": [], "threads": []})),
        ],
        "unknown-prefix-point": ["eval", "classify-seq", sp, seq_file("seq12.json", ["zz"], nat)],
        "negative-const-index": [
            "eval", "classify-seq", sp,
            _write(tmp_path / "seq13.json", json.dumps({"threads": [{"const": point(-2)}]})),
        ],
        "unknown-walk-tail": ["eval", "classify-seq", sp, seq_file("seq14.json", [], {"tail": "q"})],
        "unknown-finite-member": [
            "eval", "is-open", sp, _write(tmp_path / "ev3.json", json.dumps({"finite": ["zz"]}))
        ],
        "unknown-row-tail": [
            "eval", "is-open", sp,
            _write(tmp_path / "ev4.json", json.dumps({"finite": [], "tails": {"q": {}}})),
        ],
        "negative-flip": ["eval", "is-open", sp, evset_file("ev5.json", {"flips": [-1]})],
        "unknown-limit": ["eval", "canonicalize", ext_file("e1.json", ["zz"], [])],
        "unknown-d-tail": ["eval", "limit-points", ext_file("e2.json", [], ["q"])],
        "unknown-pair-limit": [
            "eval", "e-report", sp, _write(tmp_path / "p1.json", json.dumps({"L": ["zz"], "D": []}))
        ],
        "repeated-exception-key": [
            "eval", "map-properties",
            _write(tmp_path / "m16.json", repeated_exception.replace('"03"', '"3"')),
        ],
        "long-exception-key": [
            "eval", "map-properties",
            map_file("m17.json", {"toTail": nat, "exceptions": {"1" * 5000: point(0)}}),
        ],
        "repeated-space-field": space_text(
            "sp8.json", '{"points": ["x"], "points": [], "minOpen": {"x": ["x"]}, "tails": {}}'
        ),
        "deep-nesting": space_text("deep.json", "[" * 100_000),
        # json.dumps escapes a lone surrogate as \udXXX, which json.loads reads back.
        "lone-surrogate-id": space_file(
            "sp9.json", {"points": ["\ud800"], "minOpen": {"\ud800": ["\ud800"]}}
        ),
        "lone-surrogate-key": space_file(
            "sp10.json", {"points": ["x"], "minOpen": {"x": ["x"]}, "tails": {"\udc00": {}}}
        ),
        "long-integer": [
            "eval", "classify-seq", sp,
            _write(tmp_path / "long.json", long_walk.replace('"a": 1', '"a": ' + "1" * 5000)),
        ],
        "non-object-entity": ["eval", "space-report", _write(tmp_path / "list.json", "[]")],
        "open-base-point": ["eval", "bar", _write(tmp_path / "bp.json", json.dumps(open_base))],
        "unknown-entity-shape": [
            "eval", "space-report", _write(tmp_path / "foo.json", json.dumps({"foo": 1}))
        ],
        "space-for-set": ["eval", "is-open", sp, sp],
        "seq-for-set": ["eval", "is-open", sp, sq],
        "space-for-pair": ["eval", "e-report", sp, sp],
        "seq-for-pair": ["eval", "e-report", sp, sq],
        "report-name-too-long": [
            "check", "--suite", "sigma-fixtures", "--samples", "4",
            "--report", str(tmp_path / ("r" * 300 + ".json")),
        ],
    }  # fmt: skip


# The field path each parse error names, where the case is a bad field.
_ERROR_PATHS = {
    "non-boolean-eventual": f"ev1.json/tails/{NAT_TAIL}/eventual",
    "boolean-flip": f"ev2.json/tails/{NAT_TAIL}",
    "boolean-tail-index": "seq2.json/prefix/0/index",
    "numeric-point-tail": "seq3.json/prefix/0/tail: tail must be an id string",
    "numeric-point-id": "seq4.json/prefix/0/id: id must be an id string",
    "numeric-walk-tail": "seq5.json/threads/0/walk/tail: tail must be an id string",
    "missing-walk-tail": "seq6.json/threads/0/walk/tail: tail must be an id string",
    "numeric-map-tail": f"m3.json/onTails/{NAT_TAIL}/toTail/tail: tail must be an id string",
    "missing-map-tail": f"m4.json/onTails/{NAT_TAIL}/toTail/tail: tail must be an id string",
    "repeated-exception": f"m5.json/onTails/{NAT_TAIL}/exceptions/03: repeated exception index 3",
    "negative-exception": f"m6.json/onTails/{NAT_TAIL}/exceptions/-1: negative exception index",
    "signed-exception": f"m13.json/onTails/{NAT_TAIL}/exceptions/ +2: exception keys are indices",
    "underscored-exception": (
        f"m14.json/onTails/{NAT_TAIL}/exceptions/1_0: exception keys are indices"
    ),
    "padded-negative-exception": (
        f"m15.json/onTails/{NAT_TAIL}/exceptions/-01: negative exception index"
    ),
    "unknown-point-image": "m7.json/onPoints/x: unknown finite point 'zz'",
    "zero-walk-slope": "seq7.json/threads/0/walk/a: a must be at least 1",
    "negative-map-offset": f"m9.json/onTails/{NAT_TAIL}/toTail/b: b must be at least 0",
    "unknown-target-tail": (
        f"m8.json/onTails/{NAT_TAIL}/toTail/tail: tail image of '{NAT_TAIL}' targets unknown tail 'q'"
    ),
    "unknown-domain-point": "m10.json/onPoints/zz: image given for unknown point 'zz'",
    "missing-point-image": "m11.json/onPoints: no image for point 'x'",
    "unknown-domain-tail": "m12.json/onTails/q: image given for unknown tail 'q'",
    "string-min-open": "sp1.json/minOpen/x: x must be a list of ids",
    "numeric-point": "sp2.json/points: points must be a list of ids",
    "numeric-attach": "sp3.json/tails/t/attach: attach must be a list of ids",
    "unknown-min-open-point": "sp4.json/minOpen/x: minOpen('x') mentions unknown point 'ghost'",
    "unknown-attach-point": "sp5.json/tails/t/attach: attach('t') mentions unknown point 'ghost'",
    "missing-min-open": "sp6.json/minOpen: missing minimal open set for point 'x'",
    "intransitive-min-open": (
        "sp7.json/minOpen/x: minOpen not transitive: 'y' in minOpen('x') "
        "but minOpen('y') is not contained in it"
    ),
    "string-universe": "seq8.json/universe/points: points must be a list of ids",
    "string-prefix": "seq9.json/prefix: prefix must be a list",
    "string-threads": "seq10.json/threads: threads must be a list",
    "no-threads": "seq11.json: a sequence needs at least one thread",
    "unknown-prefix-point": "seq12.json/prefix/0: unknown finite point 'zz'",
    "negative-const-index": "seq13.json/threads/0/const: negative tail index -2",
    "unknown-walk-tail": "seq14.json/threads/0/walk/tail: unknown tail 'q'",
    "unknown-finite-member": "ev3.json/finite: unknown finite point 'zz'",
    "unknown-row-tail": "ev4.json/tails/q: unknown tail 'q'",
    "negative-flip": f"ev5.json/tails/{NAT_TAIL}/flips: flips must be at least 0",
    "unknown-limit": "e1.json/L: unknown finite point 'zz'",
    "unknown-d-tail": "e2.json/D: unknown tail 'q'",
    # The raw pair kind is kept as written, so serial checks its ids itself.
    "unknown-pair-limit": "p1.json/L: L names an unknown finite point",
    "repeated-exception-key": f"m16.json/onTails/{NAT_TAIL}/exceptions: repeated key '3'",
    "long-exception-key": (
        f"m17.json/onTails/{NAT_TAIL}/exceptions/{'1' * 5000}: exception index is too long to read"
    ),
    "repeated-space-field": "sp8.json: repeated key 'points'",
    "deep-nesting": "deep.json: invalid JSON: nested too deeply",
    "lone-surrogate-id": "sp9.json/points/0: string '\\ud800' holds a lone surrogate",
    "lone-surrogate-key": "sp10.json/tails: key '\\udc00' holds a lone surrogate",
    "long-integer": "long.json: invalid JSON: an integer is too long to read",
    "unknown-op": "error: unknown op 'nosuch-op'; known: bar, canonicalize,",
    "gen-file-taken": "out/instance-000.json': ",
    "non-object-entity": "list.json: entity must be a JSON object",
    "open-base-point": "bp.json/basePoint: base point 'x' is not closed",
    "unknown-entity-shape": "foo.json: unrecognized entity shape",
    "space-for-set": "sp.json: expected an evset, found a space",
    "seq-for-set": "sq.json: expected an evset, found a sequence",
    "space-for-pair": "sp.json: expected an externology pair, found a space",
    "seq-for-pair": "sq.json: expected an externology pair, found a sequence",
}


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
        "unknown-op",
        "negative-samples",
        "gen-out-is-a-file",
        "gen-file-taken",
        "report-dir-missing",
        "non-boolean-eventual",
        "boolean-flip",
        "boolean-tail-index",
        "negative-count",
        "numeric-point-tail",
        "numeric-point-id",
        "numeric-walk-tail",
        "missing-walk-tail",
        "numeric-map-tail",
        "missing-map-tail",
        "repeated-exception",
        "negative-exception",
        "signed-exception",
        "underscored-exception",
        "padded-negative-exception",
        "unknown-point-image",
        "unknown-target-tail",
        "unknown-domain-point",
        "missing-point-image",
        "unknown-domain-tail",
        "zero-walk-slope",
        "negative-map-offset",
        "string-min-open",
        "numeric-point",
        "numeric-attach",
        "unknown-min-open-point",
        "unknown-attach-point",
        "missing-min-open",
        "intransitive-min-open",
        "string-universe",
        "string-prefix",
        "string-threads",
        "no-threads",
        "unknown-prefix-point",
        "negative-const-index",
        "unknown-walk-tail",
        "unknown-finite-member",
        "unknown-row-tail",
        "negative-flip",
        "unknown-limit",
        "unknown-d-tail",
        "unknown-pair-limit",
        "repeated-exception-key",
        "long-exception-key",
        "repeated-space-field",
        "deep-nesting",
        "lone-surrogate-id",
        "lone-surrogate-key",
        "long-integer",
        "non-object-entity",
        "unknown-entity-shape",
        "open-base-point",
        "space-for-set",
        "seq-for-set",
        "space-for-pair",
        "seq-for-pair",
        "report-name-too-long",
    ],
)
def test_cli_input_errors_exit_1_without_traceback(case, tmp_path):
    res = run_cli(*_bad_inputs(tmp_path)[case])
    assert res.returncode == 1, res.stdout + res.stderr
    # Nothing ran: a bad report path is caught before the suites start.
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert _ERROR_PATHS.get(case, "") in res.stderr
    # A bad count is caught before the output directory is made.
    assert not (tmp_path / "not-made").exists()


@pytest.mark.parametrize(
    "case",
    [
        "unknown-limit",
        "unknown-d-tail",
        "non-object-entity",
        "unknown-entity-shape",
        "unknown-min-open-point",
        "repeated-exception-key",
        "long-exception-key",
        "repeated-space-field",
        "deep-nesting",
        "lone-surrogate-id",
        "lone-surrogate-key",
        "long-integer",
        "open-base-point",
    ],
)
def test_cli_validate_names_the_field(case, tmp_path):
    # validate names the same fields, after the file it read.
    res = run_cli("validate", _bad_inputs(tmp_path)[case][-1])
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert f"invalid: {tmp_path}/{_ERROR_PATHS[case]}" in res.stderr


_NN = nat_space()
_ONE_POINT = validate_space(["x"], {"x": ["x"]})


@pytest.mark.parametrize(
    "build, path, message",
    [
        (
            lambda: make_map(_ONE_POINT, _NN, {"x": FinitePoint("x")}, {}),
            ("onPoints", "x"),
            "unknown finite point 'x'",
        ),
        (
            lambda: make_map(_NN, _NN, {}, {NAT_TAIL: TailToTail(NAT_TAIL, 1, -1)}),
            ("onTails", NAT_TAIL, "toTail", "b"),
            "b must be at least 0",
        ),
        (
            lambda: make_seq(_NN.universe, [TailPoint("q", 0)], [WalkThread(NAT_TAIL)]),
            ("prefix", "0"),
            "unknown tail 'q'",
        ),
        (
            lambda: ev_set(_NN.universe, (), False, {NAT_TAIL: [2, -1]}),
            ("tails", NAT_TAIL, "flips"),
            "flips must be at least 0",
        ),
        (
            lambda: validate_space(["x"], {"x": ["x"]}, ["t"], {"t": ["ghost"]}),
            ("tails", "t", "attach"),
            "attach('t') mentions unknown point 'ghost'",
        ),
        (lambda: make_ext_space(_NN, ["zz"]), ("L",), "unknown finite point 'zz'"),
        (lambda: make_ext_space(_NN, (), ["q"]), ("D",), "unknown tail 'q'"),
    ],
    ids=[
        "make_map-point", "make_map-tail", "make_seq", "ev_set", "validate_space",
        "make_ext_space-L", "make_ext_space-D",
    ],  # fmt: skip
)
def test_constructors_name_the_field(build, path, message):
    # Built in Python, without serial: the constructor names the field.
    with pytest.raises(PresentationError) as err:
        build()
    assert err.value.path == path
    assert err.value.message == message


def test_cli_eval_seq_takes_universe_from_space(tmp_path):
    sp = _write(tmp_path / "sp.json", canonical_dumps(entity_to_json(nat_space())))
    seq = _write(
        tmp_path / "walk.json",
        json.dumps({"prefix": [], "threads": [{"walk": {"tail": NAT_TAIL, "a": 2, "b": 1}}]}),
    )
    res = run_cli("eval", "classify-seq", sp, seq)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["proper"] is True


def test_id_list_errors_name_their_field_once():
    with pytest.raises(ParseError) as err:
        from_json("set", {"finite": [1]}, nat_space(), ("f.json",))
    assert str(err.value) == "f.json/finite: finite must be a list of ids"
    with pytest.raises(ParseError) as err2:
        from_json("universe", {"points": [], "tails": "n"}, None, ("u.json",))
    assert str(err2.value) == "u.json/tails: tails must be a list of ids"


def test_cli_coreflect_and_e_report_read_a_raw_pair(tmp_path):
    # The convergent sequence with L = {inf} and D empty: its canonical pair
    # adds the tail that inf captures.
    sp = _write(tmp_path / "np.json", json.dumps(entity_to_json(nat_plus_space())))
    raw = _write(tmp_path / "raw.json", json.dumps({"L": ["inf"], "D": []}))
    canon = _write(tmp_path / "canon.json", json.dumps({"L": ["inf"], "D": [NAT_TAIL]}))
    res = run_cli("eval", "e-report", sp, raw)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["e_sequential"] is False
    res2 = run_cli("eval", "e-report", sp, canon)
    assert res2.returncode == 0, res2.stderr
    assert json.loads(res2.stdout)["e_sequential"] is True
    res3 = run_cli("eval", "coreflect", sp, raw)
    assert res3.returncode == 0, res3.stderr
    out = json.loads(res3.stdout)
    assert out["L"] == ["inf"] and out["D"] == [NAT_TAIL]


# -- a standing fuzz of the entity parser -------------------------------------

# Values an edit may put anywhere: wrong types, out-of-range and huge
# numbers, NaN, a lone surrogate, ids of the generated spaces, and
# containers of the wrong shape.
AWKWARD = [
    None, True, False, 0, -1, 7, 2**70, 1.5, float("nan"), "", "zz", "t0", "p0",
    "\ud800", [], {}, [0], ["p0", "p0"], {"tail": "t0", "index": -2}, {"id": "p0"},
]  # fmt: skip


def _fuzz_entities():
    """The entity JSON of generated instances: their exterior spaces,
    partners, maps, sequences, spaces and one-point compactifications."""
    out = []
    for inst in generate_instances(1, 12, "all", seqs_per=1, maps_per=1):
        out += [inst.ext, inst.partner, *inst.maps, *inst.seqs]
        out += [inst.ext.space, plus(inst.ext.space)]
    return [entity_to_json(e) for e in out]


FUZZ_ENTITIES = _fuzz_entities()


def _fuzz_arg_lists():
    """Argument lists of `eval`, three for each kinds a registered
    predicate takes, as `args_to_json` writes them."""
    rng = random.Random(2)
    out = []
    for kinds in sorted({kinds for kinds, _, _ in cli.EVAL_OPS.values()}):
        for _ in range(3):
            space, values = _one_of_each_kind(rng)
            args = [space if kind == "space" else values[kind] for kind in kinds]
            out.append((kinds, args_to_json(kinds, args)))
    return out


FUZZ_ARG_LISTS = _fuzz_arg_lists()


def _nodes(tree, where=()):
    yield where, tree
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield from _nodes(value, where + (key,))


def _fresh(value):
    return json.loads(json.dumps(value))


def _mutant(rng, doc):
    """A copy of `doc` after one to three edits: a value replaced, a key or
    item deleted, an item duplicated, a key added, or a subtree grafted.
    Every value put in is a fresh copy, so no edit reaches another."""
    doc = _fresh(doc)
    for _ in range(1 + rng.randrange(3)):
        spots = list(_nodes(doc))
        where, node = rng.choice(spots)
        edit = rng.randrange(5)
        if edit == 3 or not where:
            target = node if isinstance(node, dict) else doc
            if isinstance(target, dict):
                key = rng.choice(["x", "p0", "t0", "basePoint", "L", "universe", "threads"])
                target[key] = _fresh(rng.choice(AWKWARD))
            continue
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        key = where[-1]
        if edit == 0:
            parent[key] = _fresh(rng.choice(AWKWARD))
        elif edit == 1:
            del parent[key]
        elif edit == 2 and isinstance(parent, list):
            parent.insert(key, _fresh(parent[key]))
        elif edit == 2:
            parent[key] = [parent[key], _fresh(parent[key])]
        else:
            parent[key] = _fresh(rng.choice(spots)[1])
    return doc


def _resolves(tree, path) -> bool:
    """The path names a field of the tree, or a key one level past it."""
    node = tree
    for i, key in enumerate(path):
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and key.isdecimal() and int(key) < len(node):
            node = node[int(key)]
        else:
            return i == len(path) - 1
    return True


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutated_entities_parse_or_raise_a_parse_error_with_a_field_path(seed):
    # The parser either returns an entity or refuses the input with a
    # ParseError whose path names a field of it: never another exception.
    # So does the reader of `eval`'s argument lists.
    rng = random.Random(seed)
    for _ in range(50):
        doc = _mutant(rng, rng.choice(FUZZ_ENTITIES))
        try:
            entity_from_json(doc)
        except ParseError as exc:
            assert _resolves(doc, exc.path), (exc.path, str(exc), doc)
    for _ in range(25):
        kinds, doc = rng.choice(FUZZ_ARG_LISTS)
        doc = _mutant(rng, doc)
        try:
            args_from_json(kinds, doc)
        except ParseError as exc:
            assert _resolves(doc, exc.path), (kinds, exc.path, str(exc), doc)
