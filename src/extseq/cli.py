"""Command-line front door: validate, check, eval, gen."""

from __future__ import annotations

import argparse
import sys
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
from .generate import generate_instances
from .maps import compose_maps, map_properties
from .sequences import classify, convergence_ideal
from .serial import (
    args_from_json,
    based_to_json,
    canonical_dumps,
    entity_to_json,
    ext_to_json,
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


def _cmd_validate(args) -> int:
    try:
        entity = parse_entity(args.file)
    except ParseError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(canonical_dumps({"kind": type(entity).__name__, "entity": entity_to_json(entity)}), end="")
    return 0


EVAL_OPS = {}


def _op(name, *sig):
    def deco(fn):
        EVAL_OPS[name] = (sig, fn)
        return fn

    return deco


@_op("space-report", "space")
def _eval_space_report(space):
    return space_report(space)


@_op("set-properties", "space", "set")
def _eval_set_properties(space, s):
    return set_properties(space, s)


@_op("is-open", "space", "set")
def _eval_is_open(space, s):
    return {"open": is_open(space, s)}


@_op("is-seq-open", "space", "set")
def _eval_is_seq_open(space, s):
    return {"sequentiallyOpen": is_sequentially_open(space, s)}


@_op("s-compact", "space", "set")
def _eval_s_compact(space, s):
    return {"sCompact": is_s_compact(space, s)}


@_op("omega-sequential", "space")
def _eval_omega(space):
    return {"omegaSequential": is_omega_sequential(space)}


@_op("classify-seq", "space", "seq")
def _eval_classify(space, s):
    cls = classify(space, s)
    return {
        "convergent": cls.convergent,
        "limitSet": [point_to_json(p) for p in sorted(cls.limit_set, key=repr)],
        "proper": cls.proper,
        "noConvSubseq": cls.no_conv_subseq,
    }


@_op("convergence-ideal", "space", "seq")
def _eval_ideal(space, s):
    shape = convergence_ideal(space, s)
    out = {"kind": shape.kind}
    if shape.witness:
        out["witness"] = {"a": shape.witness.a, "b": shape.witness.b}
    if shape.non_witness:
        out["nonWitness"] = {"a": shape.non_witness.a, "b": shape.non_witness.b}
    return out


@_op("map-properties", "map")
def _eval_map_props(f):
    return map_properties(f)


@_op("compose-maps", "map", "map")
def _eval_compose(f, g):
    return entity_to_json(compose_maps(f, g))


@_op("canonicalize", "ext")
def _eval_canonicalize(e):
    return ext_to_json(e)


@_op("cocompact", "space")
def _eval_cocompact(space):
    return ext_to_json(cocompact_ext_space(space))


@_op("limit-points", "ext")
def _eval_limit_points(e):
    return {"limitPoints": sorted(limit_points(e))}


@_op("is-e-open", "ext", "set")
def _eval_is_e_open(e, s):
    return {"eOpen": is_e_open(e, s)}


@_op("is-exterior-seq", "ext", "seq")
def _eval_is_ext_seq(e, s):
    return {"exterior": is_exterior_seq(e, s)}


# A pair is read as written (an "ext" is canonical once read), so these two
# see a raw externology.
@_op("coreflect", "space", "pair")
def _eval_coreflect(_space, e):
    return ext_to_json(coreflect(e))


@_op("e-report", "space", "pair")
def _eval_e_report(_space, e):
    return e_report(e)


@_op("plus", "space")
def _eval_plus(space):
    return based_to_json(plus(space))


@_op("wedge", "space")
def _eval_wedge(space):
    return based_to_json(wedge(space))


@_op("infinity", "ext")
def _eval_infinity(e):
    return based_to_json(infinity(e))


@_op("bar", "based")
def _eval_bar(b):
    return ext_to_json(bar(b))


def _coerce_result(result):
    if hasattr(result, "__dataclass_fields__"):
        return {k: getattr(result, k) for k in result.__dataclass_fields__}
    return result


def _cmd_eval(args) -> int:
    if args.op not in EVAL_OPS:
        print(f"unknown op {args.op!r}; known: {', '.join(sorted(EVAL_OPS))}", file=sys.stderr)
        return 1
    sig, fn = EVAL_OPS[args.op]
    try:
        result = fn(*args_from_json(sig, [read_json(p) for p in args.files], args.files))
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(canonical_dumps(_coerce_result(result)), end="")
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
    if args.report and (Path(args.report).is_dir() or not Path(args.report).parent.is_dir()):
        print(f"error: cannot write the report to {args.report!r}", file=sys.stderr)
        return 1
    reports = run_suites(names, args.seed, args.samples, args.budget)
    for report in reports:
        status = "pass" if report.exit_code == 0 else ("FAIL" if report.exit_code == 1 else "unknown")
        print(
            f"{report.suite}: {status} "
            f"({report.passed}/{report.cases} passed, {report.failed} failed, "
            f"{report.unknown} unknown, {report.wall_ms} ms)"
        )
    if any(r.exit_code == 1 for r in reports):
        worst = 1
    elif any(r.exit_code == 2 for r in reports):
        worst = 2
    else:
        worst = 0
    if args.report:
        doc = (
            reports[0].to_json()
            if len(reports) == 1
            else {"suites": [r.to_json() for r in reports]}
        )
        Path(args.report).write_text(canonical_dumps(doc), encoding="utf-8")
    return worst


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
        (out / f"instance-{i:03d}.json").write_text(canonical_dumps(doc), encoding="utf-8")
    print(f"wrote {len(insts)} instance(s) to {out}")
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
    p_gen.add_argument("--profile", default="all", choices=["finite", "tailed", "s2-only", "all"])
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
