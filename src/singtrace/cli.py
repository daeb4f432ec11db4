"""Command line front end.

Subcommands mirror the library: classify, indices, ideal-check,
kernel-check, construct, rearrange, dichotomy (alias thm32).  Inputs are
family JSON files, spectrum CSVs, or an inline family built from
--kind/--p/--q/... flags.  Reports carry every value a caller can set
(the detectors' other parameters are fixed constants), never a
timestamp, so re-running a recorded job reproduces the numeric fields
bit for bit.

Exit codes: 0 for a decided verdict, 2 for an honest "cannot tell on
this horizon", 1 for bad inputs or violated preconditions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .classify import ClassifyConfig, classify, dichotomy
from .errors import SingTraceError
from .functions import g_inverse
from .ideals import in_kernel, in_principal_ideal
from .indices import EstimatorConfig, matuszewska
from .ingest import ParseError, family_from_dict, family_to_dict, load_input
from .staircase import construct_dominator, construct_vanisher, verify_construction

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(obj):
    """JSON-safe structure: inf/nan become strings, dataclasses become dicts."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _flat_lines(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            lines.extend(_flat_lines(v, f"{prefix}{k}."))
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, v in enumerate(obj):
            lines.extend(_flat_lines(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix.rstrip('.')}: {obj}")
    return lines


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_sanitize(report), indent=2)
    else:
        text = "\n".join(_flat_lines(_sanitize(report)))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# input handling


INLINE_KINDS = ("power_log", "exponential", "pure_power")


def _inputs(parser, n_inputs):
    """Input files, each optional: --kind builds the first one inline."""
    for i in range(n_inputs):
        parser.add_argument(
            f"input{i + 1 if n_inputs > 1 else ''}",
            nargs="?",
            help="family JSON or spectrum CSV file",
        )
    parser.add_argument("--kind", choices=INLINE_KINDS, help="inline family instead of a file")
    parser.add_argument("--p", type=float, default=1.0)
    parser.add_argument("--q", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cap", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=1.0)


def _estimator_flags(parser):
    parser.add_argument("--horizon", type=float, default=None,
                        help="index estimator horizon in the g coordinate")
    parser.add_argument("--h-grid", default=None,
                        help="comma separated increment lengths, e.g. 1,2,4")
    parser.add_argument("--tail-window", type=float, default=None,
                        help="fraction of the horizon used as the tail window")


def _criterion_flags(parser):
    _estimator_flags(parser)
    parser.add_argument("--lambda", dest="lam", type=float, default=ClassifyConfig.ratio_lambda,
                        help="ratio criterion dilation factor (> 1)")
    parser.add_argument("--tol", type=float, default=ClassifyConfig.regular_tol,
                        help="regularity / index tolerance")


def _output_flags(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None, help="write the report to a file")


def _inline_family(args):
    return family_from_dict({k: getattr(args, k) for k in ("kind", "p", "q", "scale", "cap", "alpha")})


def _resolve_inputs(args, names):
    fns = []
    for name in names:
        path = getattr(args, name)
        if path is not None:
            fns.append(load_input(path))
        elif args.kind is not None and not fns:
            fns.append(_inline_family(args))
        else:
            raise ParseError(
                f"missing input '{name}': give a file or an inline --kind family"
            )
    return fns


def _estimator_config(args) -> EstimatorConfig | None:
    flags = {"horizon": args.horizon, "tail_fraction": args.tail_window, "h_grid": args.h_grid}
    kwargs = {k: v for k, v in flags.items() if v is not None}
    if not kwargs:
        return None
    try:  # an out-of-range flag is bad input, like a bad file
        if args.h_grid is not None:
            kwargs["h_grid"] = tuple(float(h) for h in args.h_grid.split(","))
        return EstimatorConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(f"estimator flags: {exc}") from None


def _classify_config(args) -> ClassifyConfig:
    estimator = _estimator_config(args)
    try:
        return ClassifyConfig(args.lam, args.tol, estimator)
    except ValueError as exc:
        raise ParseError(f"--lambda: {exc}") from None


def _verdict_str(v: bool | None) -> str:
    return {True: "true", False: "false", None: "undecided"}[v]


# ---------------------------------------------------------------------------
# command handlers (each returns an exit code)


def _cmd_classify(args) -> int:
    (fn,) = _resolve_inputs(args, ["input"])
    cfg = _classify_config(args)
    rep = classify(fn, cfg)
    report = {
        "command": "classify",
        "input": family_to_dict(fn),
        "config": cfg,
        "trace_class": rep.trace_class,
        "regular": rep.regular,
        "delta": rep.delta,
        "indices": rep.indices_report,
        "criteria": {name: {"traceable": _verdict_str(v.traceable), **v.evidence}
                     for name, v in zip(("indices", "liminf", "ratio"), rep.verdicts)},
        "agreement": rep.agreement,
        "finite_rank": rep.finite_rank,
        "horizon_limited": rep.horizon_limited,
        "traceable": _verdict_str(rep.traceable),
    }
    _emit(report, args)
    return EXIT_OK if rep.traceable is not None else EXIT_UNDECIDED


def _cmd_indices(args) -> int:
    (fn,) = _resolve_inputs(args, ["input"])
    cfg = _estimator_config(args)
    # explicit estimator parameters ask for the estimator, not the closed form
    rep = matuszewska(fn, cfg, mode="estimated" if cfg is not None else "auto")
    report = {
        "command": "indices",
        "input": family_to_dict(fn),
        "delta_lower": rep.delta_lower,
        "delta_upper": rep.delta_upper,
        "mode": rep.mode,
        "per_h": [{"h": h, "sup": s, "inf": i} for h, s, i in rep.per_h],
        "config": rep.config,
        "finite_rank": rep.finite_rank,
        "horizon_limited": rep.horizon_limited,
        "bias_note": rep.bias_note,
    }
    _emit(report, args)
    return EXIT_OK


def _membership(args, checker, label) -> int:
    fa, fb = _resolve_inputs(args, ["input1", "input2"])
    dec = checker(fa, fb)
    report = {
        "command": label,
        "input_a": family_to_dict(fa),
        "input_b": family_to_dict(fb),
        "verdict": dec.verdict,
        "mode": dec.mode,
        "witness": dec.witness,
        "refutation": dec.refutation,
        "note": dec.note,
    }
    _emit(report, args)
    return EXIT_OK if dec.verdict != "undecided" else EXIT_UNDECIDED


def _cmd_ideal(args) -> int:
    return _membership(args, in_principal_ideal, "ideal-check")


def _cmd_kernel(args) -> int:
    return _membership(args, in_kernel, "kernel-check")


def _cmd_construct(args) -> int:
    (fn,) = _resolve_inputs(args, ["input"])
    build = construct_vanisher if args.variant == "vanisher" else construct_dominator
    s = build(fn, n_steps=args.n_steps)
    ver = verify_construction(s)
    report = {
        "command": f"construct {args.variant}",
        "input": family_to_dict(fn),
        "n_steps": args.n_steps,
        "rule": s.rule,
        "normalization_offset": s.normalization_offset,
        "staircase": family_to_dict(s.g()),
        "verification": ver,
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_rearrange(args) -> int:
    fn = g_inverse(load_input(args.input))
    if fn.rank is None:
        raise ParseError("rearrange expects a spectrum input")
    report = {
        "command": "rearrange",
        "profile": family_to_dict(fn),
        "rank": fn.rank,
        "mass": fn.family.mass(),
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_dichotomy(args) -> int:
    fa, fb = _resolve_inputs(args, ["input1", "input2"])
    cfg = _classify_config(args)
    res = dichotomy(fa, fb, cfg)
    report = {
        "command": "dichotomy",
        "input_a": family_to_dict(fa),
        "input_b": family_to_dict(fb),
        "config": cfg,
        "outcome": res.outcome,
        "a_trace_class": res.a_trace_class,
        "ideal_verdict": res.ideal_decision.verdict,
        "kernel_verdict": res.kernel_decision.verdict,
        "note": res.note,
    }
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singtrace",
        description="Eigenvalue asymptotics: traceability classification, "
        "ideal membership, staircase constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run all three traceability criteria")
    _inputs(p, 1)
    _criterion_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("indices", help="growth index report")
    _inputs(p, 1)
    _estimator_flags(p)
    p.set_defaults(handler=_cmd_indices)

    p = sub.add_parser("ideal-check", help="is A in the principal ideal of B?")
    _inputs(p, 2)
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("kernel-check", help="is A in the kernel of the ideal of B?")
    _inputs(p, 2)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("construct", help="build a vanisher or dominator staircase")
    p.add_argument("variant", choices=("vanisher", "dominator"))
    _inputs(p, 1)
    p.add_argument("--n-steps", type=int, default=40, help="staircase steps")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("rearrange", help="non-increasing rearrangement of a spectrum")
    p.add_argument("input", help="spectrum CSV or JSON file")
    p.set_defaults(handler=_cmd_rearrange)

    p = sub.add_parser(
        "dichotomy",
        aliases=["thm32"],
        help="zero/infinite dichotomy of singular traces on the ideal of B at A",
    )
    _inputs(p, 2)
    _criterion_flags(p)
    p.set_defaults(handler=_cmd_dichotomy)

    for p in dict.fromkeys(sub.choices.values()):  # an alias repeats its parser
        _output_flags(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors are bad input; exit code 2 means undecided
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader went away: nothing more can be said on stdout, and the
        # flush at exit must find a sink that does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SingTraceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
