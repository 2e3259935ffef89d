"""Command-line front door: validate, check, eval, gen.

`eval` runs one decider of EVAL_OPS on entity files and prints its result
as canonical JSON; `validate` and `eval` print it in UTF-8 whatever the
encoding of stdout.  `check` runs property suites, prints pass or FAIL for
each, and exits 1 if any case failed.  Every command exits 0 on success,
and 1 with one `error:` (or `invalid:`) line on a bad input."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

from .compactify import bar, infinity, is_omega_sequential, is_s_compact, plus, wedge
from .errors import ParseError, PresentationError
from .exteriority import (
    cocompact_ext_space,
    coreflect,
    e_report,
    is_e_open,
    is_exterior_seq,
    limit_points,
)
from .generate import PROFILES, generate_instances
from .maps import compose_maps, map_properties
from .sequences import classify, convergence_ideal
from .serial import (
    ENTITY_KINDS,
    args_from_json,
    canonical_dumps,
    entity_to_json,
    parse_entity,
    point_to_json,
    read_json,
)
from .spaces import is_open, is_sequentially_open, set_properties, space_report
from .suites import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    resolve_suite,
    run_suites,
    suite_names,
)


def _print_utf8(text: str) -> None:
    """Print text in UTF-8, whatever the stream's own encoding, so that
    every id and path name prints; as text where stdout has no byte
    buffer.  A path name's undecodable bytes (carried as surrogate
    escapes) go out as they came in."""
    if hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8", "surrogateescape"))
    else:
        sys.stdout.write(text)


def _print_json(doc) -> None:
    """Print a document as canonical JSON (`_print_utf8`)."""
    _print_utf8(canonical_dumps(doc))


def _cmd_validate(args) -> int:
    try:
        entity = parse_entity(args.file)
    except ParseError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    _print_json({"kind": type(entity).__name__, "entity": entity_to_json(entity)})
    return 0


def _classify(space, s):
    cls = classify(space, s)
    return {
        "convergent": cls.convergent,
        "limitSet": [point_to_json(p) for p in sorted(cls.limit_set, key=repr)],
        "proper": cls.proper,
        "noConvSubseq": cls.no_conv_subseq,
    }


def _convergence_ideal(space, s):
    shape = convergence_ideal(space, s)
    out = {"kind": shape.kind}
    if shape.witness:
        out["witness"] = {"a": shape.witness.a, "b": shape.witness.b}
    if shape.non_witness:
        out["nonWitness"] = {"a": shape.non_witness.a, "b": shape.non_witness.b}
    return out


def _sorted_limit_points(e):
    return sorted(limit_points(e))


def _of_pair(fn):
    """A decider on an externology, given a space and a pair over it.  The
    pair is read as written (an "ext" is canonical once read), so the
    decider sees a raw externology."""
    return lambda _space, e: fn(e)


# op -> (argument kinds, decider, output key).  A result with a key is
# written as {key: result}; one without is written by its type (see
# _result_json).
EVAL_OPS = {
    "space-report": (("space",), space_report, None),
    "set-properties": (("space", "set"), set_properties, None),
    "is-open": (("space", "set"), is_open, "open"),
    "is-seq-open": (("space", "set"), is_sequentially_open, "sequentiallyOpen"),
    "s-compact": (("space", "set"), is_s_compact, "sCompact"),
    "omega-sequential": (("space",), is_omega_sequential, "omegaSequential"),
    "classify-seq": (("space", "seq"), _classify, None),
    "convergence-ideal": (("space", "seq"), _convergence_ideal, None),
    "map-properties": (("map",), map_properties, None),
    "compose-maps": (("map", "map"), compose_maps, None),
    "canonicalize": (("ext",), coreflect, None),  # an ext file is canonical once read
    "cocompact": (("space",), cocompact_ext_space, None),
    "limit-points": (("ext",), _sorted_limit_points, "limitPoints"),
    "is-e-open": (("ext", "set"), is_e_open, "eOpen"),
    "is-exterior-seq": (("ext", "seq"), is_exterior_seq, "exterior"),
    "coreflect": (("space", "pair"), _of_pair(coreflect), None),
    "e-report": (("space", "pair"), _of_pair(e_report), None),
    "plus": (("space",), plus, None),
    "wedge": (("space",), wedge, None),
    "infinity": (("ext",), infinity, None),
    "bar": (("based",), bar, None),
}


def _result_json(result):
    """An entity as its JSON, a report dataclass as its fields, and a dict
    as it is."""
    if type(result) in ENTITY_KINDS:
        return entity_to_json(result)
    if is_dataclass(result):
        return asdict(result)
    return result


def _cmd_eval(args) -> int:
    if args.op not in EVAL_OPS:
        known = ", ".join(sorted(EVAL_OPS))
        print(f"error: unknown op {args.op!r}; known: {known}", file=sys.stderr)
        return 1
    kinds, decider, key = EVAL_OPS[args.op]
    try:
        result = decider(*args_from_json(kinds, [read_json(p) for p in args.files], args.files))
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_json({key: result} if key else _result_json(result))
    return 0


def _cmd_check(args) -> int:
    try:
        names = suite_names() if args.suite == "all" else [resolve_suite(args.suite)]
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 1
    # Checked before any suite runs, so a bad path does not waste the run.
    # A path the OS refuses outright (a name too long) raises OSError.
    if args.report:
        try:
            bad = Path(args.report).is_dir() or not Path(args.report).parent.is_dir()
        except OSError:
            bad = True
        if bad:
            print(f"error: cannot write the report to {args.report!r}", file=sys.stderr)
            return 1
    reports = run_suites(names, args.seed, args.samples, args.budget)
    for report in reports:
        print(
            f"{report.suite}: {'FAIL' if report.failed else 'pass'} "
            f"({report.passed}/{report.cases} passed, {report.failed} failed, {report.wall_ms} ms)"
        )
    if args.report:
        docs = [r.to_json() for r in reports]
        doc = docs[0] if len(docs) == 1 else {"suites": docs}
        try:
            Path(args.report).write_text(canonical_dumps(doc), encoding="utf-8")
        except OSError as exc:
            msg = f"cannot write the report to {args.report!r}: {exc.strerror}"
            print(f"error: {msg}", file=sys.stderr)
            return 1
    return 1 if any(r.failed for r in reports) else 0


def _cmd_gen(args) -> int:
    if args.count < 0:
        print(f"error: --count must be at least 0, got {args.count}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use {args.out!r} as a directory: {exc.strerror}", file=sys.stderr)
        return 1
    insts = generate_instances(args.seed, args.count, args.profile)
    for i, inst in enumerate(insts):
        doc = {
            "ext": entity_to_json(inst.ext),
            "partner": entity_to_json(inst.partner),
            "seqs": [entity_to_json(s) for s in inst.seqs],
            "maps": [entity_to_json(f) for f in inst.maps],
        }
        path = out / f"instance-{i:03d}.json"
        try:
            path.write_text(canonical_dumps(doc), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {str(path)!r}: {exc.strerror}", file=sys.stderr)
            return 1
    _print_utf8(f"wrote {len(insts)} instance(s) to {out}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="extseq",
        description="Exact deciders and property suites for proper and exterior sequentiality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate one entity file")
    p_validate.add_argument("file")
    p_validate.set_defaults(fn=_cmd_validate)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("--suite", default="all", help="suite name, tag, or 'all'")
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_check.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_check.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="recorded in the report only"
    )
    p_check.add_argument("--report", default=None, help="write the JSON report here")
    p_check.set_defaults(fn=_cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one operation on entity files")
    p_eval.add_argument("op")
    p_eval.add_argument("files", nargs="*")
    p_eval.set_defaults(fn=_cmd_eval)

    p_gen = sub.add_parser("gen", help="generate instance files")
    p_gen.add_argument("--profile", default="all", choices=PROFILES)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
