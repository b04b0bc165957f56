"""Command-line front end.

Subcommands wrap the library operations over the shared JSON formats;
reports go to stdout (or ``--output``), progress to stderr.  Exit codes:
0 = predicate true / all checks pass, 1 = predicate false or check
failure (witnesses in the JSON), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import overridden_tolerances
from .errors import LogmajError
from .isometry import analyze, check_surjective_reflection, synthesize
from .jordan import JordanMap, stormer_split, random_jordan, verify_jordan
from .majorization import (exp_log_determinant, fk_log_determinant, log_submajorizes,
                           submajorizes)
from .norms import evaluate_norm
from .serialize import (decode_linear_map, decode_norm_spec,
                        decode_operator, decode_plan, decode_step_function,
                        decode_synth_spec, encode_linear_map, encode_operator,
                        encode_step_function, jsonable)
from .stepfun import mu
from .suites import RunConfig, run_suites


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload, output: str | None) -> None:
    text = json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _count(text: str) -> int:
    """argparse type of a trial count: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # --output/--tolerances are accepted both before and after the
    # subcommand; SUPPRESS keeps a subcommand-level default from clobbering
    # a value given at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the JSON result to a file")
    common.add_argument("--tolerances", default=argparse.SUPPRESS,
                        help="JSON file of tolerance overrides")

    parser = argparse.ArgumentParser(
        prog="logmaj",
        description="singular value calculus, submajorisation and "
                    "order-isometry analysis on weighted matrix algebras")
    parser.add_argument("--output", default=None,
                        help="write the JSON result to a file")
    parser.add_argument("--tolerances", default=None,
                        help="JSON file of tolerance overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mu = sub.add_parser("mu", parents=[common],
                          help="singular value function of an operator")
    p_mu.add_argument("operator")

    p_norm = sub.add_parser("norm", parents=[common],
                            help="evaluate a norm on an operator")
    p_norm.add_argument("spec")
    p_norm.add_argument("operator")

    p_maj = sub.add_parser("majorize", parents=[common],
                           help="check f <<(log) g for step functions")
    p_maj.add_argument("--log", action="store_true", help="logarithmic submajorisation")
    p_maj.add_argument("minorant")
    p_maj.add_argument("majorant")

    p_det = sub.add_parser("det", parents=[common],
                           help="Fuglede-Kadison determinant")
    p_det.add_argument("operator")

    p_jordan = sub.add_parser("jordan", help="Jordan map operations")
    jordan_sub = p_jordan.add_subparsers(dest="jordan_command", required=True)
    jv = jordan_sub.add_parser("verify", parents=[common],
                               help="certify a linear map as Jordan")
    jv.add_argument("map")
    jv.add_argument("--seed", type=int, default=0,
                    help="ignored: the certificate is complete and draws no samples")
    js = jordan_sub.add_parser("split", parents=[common],
                               help="hom/anti-hom central split")
    js.add_argument("map")
    jr = jordan_sub.add_parser("random", parents=[common],
                               help="build a Jordan map from a plan")
    jr.add_argument("plan")

    p_iso = sub.add_parser("isometry", help="isometry analysis operations")
    iso_sub = p_iso.add_subparsers(dest="isometry_command", required=True)
    ia = iso_sub.add_parser("analyze", parents=[common],
                            help="five-phase order-isometry analysis")
    ia.add_argument("map")
    ia.add_argument("norm_domain")
    ia.add_argument("norm_codomain")
    ia.add_argument("--trials", type=_count, default=200)
    ia.add_argument("--seed", type=int, default=0)
    isy = iso_sub.add_parser("synth", parents=[common],
                             help="synthesize a calibrated map")
    isy.add_argument("spec")
    ir = iso_sub.add_parser("reflect", parents=[common],
                            help="surjective positivity reflection")
    ir.add_argument("map")
    ir.add_argument("norm_codomain")
    ir.add_argument("--trials", type=_count, default=200)
    ir.add_argument("--seed", type=int, default=0)

    p_suite = sub.add_parser("suite", help="property suites")
    suite_sub = p_suite.add_subparsers(dest="suite_command", required=True)
    sr = suite_sub.add_parser("run", parents=[common],
                              help="run the named property suites")
    sr.add_argument("--only", help="run a single suite by name")
    sr.add_argument("--trials", type=_count, help="override per-suite trial counts")
    sr.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_mu(args) -> tuple[dict, int]:
    x = decode_operator(_load_json(args.operator))
    return encode_step_function(mu(x)), 0


def _cmd_norm(args) -> tuple[dict, int]:
    spec = decode_norm_spec(_load_json(args.spec))
    x = decode_operator(_load_json(args.operator))
    return {"norm": evaluate_norm(spec, x)}, 0


def _cmd_majorize(args) -> tuple[dict, int]:
    f = decode_step_function(_load_json(args.minorant)).rearrange()
    g = decode_step_function(_load_json(args.majorant)).rearrange()
    verdict = log_submajorizes(f, g) if args.log else submajorizes(f, g)
    return verdict.to_json(), 0 if verdict.holds else 1


def _cmd_det(args) -> tuple[dict, int]:
    x = decode_operator(_load_json(args.operator))
    log_det = fk_log_determinant(x)
    return {"det": exp_log_determinant(log_det), "log_det": log_det}, 0


def _cmd_jordan(args) -> tuple[dict, int]:
    if args.jordan_command == "verify":
        result = verify_jordan(decode_linear_map(_load_json(args.map)))
        if isinstance(result, JordanMap):
            return {"jordan": True, "certificate": result.certificate.to_json()}, 0
        return {"jordan": False, "certificate": result.certificate.to_json(),
                "worst": {"kind": result.kind, "residual": result.residual,
                          "witness": encode_operator(result.witness)
                          if result.witness is not None else None}}, 1
    if args.jordan_command == "split":
        result = verify_jordan(decode_linear_map(_load_json(args.map)))
        if not isinstance(result, JordanMap):
            return {"jordan": False,
                    "worst": {"kind": result.kind, "residual": result.residual}}, 1
        split = stormer_split(result)
        return {
            "jordan": True,
            "z": encode_operator(split.z),
            "summands": [
                {"projection": encode_operator(p), "kind": k}
                for p, k in zip(split.projections, split.kinds)
            ],
        }, 0
    plan = decode_plan(_load_json(args.plan))
    built = random_jordan(plan.domain, plan)
    return {"map": encode_linear_map(built.map),
            "certificate": built.certificate.to_json()}, 0


def _cmd_isometry(args) -> tuple[dict, int]:
    if args.isometry_command == "analyze":
        T = decode_linear_map(_load_json(args.map))
        e = decode_norm_spec(_load_json(args.norm_domain))
        f = decode_norm_spec(_load_json(args.norm_codomain))
        report = analyze(T, e, f, trials=args.trials, seed=args.seed)
        return report.to_json(), 0 if report.passed else 1
    if args.isometry_command == "synth":
        spec = decode_synth_spec(_load_json(args.spec))
        built = synthesize(spec)
        return {"map": encode_linear_map(built), "calibrated": spec.calibrated}, 0
    T = decode_linear_map(_load_json(args.map))
    f = decode_norm_spec(_load_json(args.norm_codomain))
    report = check_surjective_reflection(T, f, trials=args.trials, seed=args.seed)
    return report.to_json(), 0 if report.ok else 1


def _cmd_suite(args) -> tuple[dict, int]:
    config = RunConfig(seed=args.seed, trials=args.trials, only=args.only,
                       tolerance_overrides=args.overrides)

    def progress(result):
        status = "PASS" if result.passed else "FAIL"
        print(f"[suite] {result.name}: {status} ({result.trials} trials)",
              file=sys.stderr)

    report = run_suites(config, progress=progress)
    return report, 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        _emit({"error": {"type": "UsageError",
                         "message": "invalid arguments; see --help"}}, None)
        return 2
    try:
        args.overrides = _load_json(args.tolerances) if args.tolerances else {}
        handler = {
            "mu": _cmd_mu,
            "norm": _cmd_norm,
            "majorize": _cmd_majorize,
            "det": _cmd_det,
            "jordan": _cmd_jordan,
            "isometry": _cmd_isometry,
            "suite": _cmd_suite,
        }[args.command]
        with overridden_tolerances(**args.overrides):
            payload, code = handler(args)
    except (LogmajError, FileNotFoundError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              getattr(args, "output", None))
        return 2
    _emit(payload, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
