"""Command line front end.

Subcommands::

    check         run every hypothesis check on an instance
    solve         certify what can be certified, then iterate to a fixed pair
    chain         find a short ascending chain between two points
    oracle        independent exhaustive cross-check (finite instances only)
    verify-lemma  track the iterate-gap decay against its certified ceiling
    gen           emit a deterministic generated instance

Exit codes are pinned: 0 on success, 1 when a hypothesis is violated (or a
solve does not converge, or a requested chain does not exist, or the
verify-lemma streams leave the box or miss a certified bound), 2 on I/O,
schema, or argument errors, printed as ``error: <field>: <message>`` when
the error names a document field. All JSON output is canonical (sorted
keys, two-space indent, trailing newline) so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys

from . import hypotheses, instances, mappings, oracle, pipeline, solver, spaces
from .errors import ChainfixError, DomainError, clipped_repr


def _suite_doc(suite: dict) -> dict:
    return {name: suite[name].as_dict() for name in pipeline.SUITE_ORDER}


def _violated(suite: dict) -> list[str]:
    return [name for name in pipeline.SUITE_ORDER if not suite[name].passed]


def _write(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _residual(value: float) -> float | None:
    """None for the residual of an iterate whose image left the box (inf)."""
    return value if math.isfinite(value) else None


def _csv_point(pt) -> str:
    if isinstance(pt, tuple):
        return ";".join(repr(c) for c in pt)
    return str(pt)


_TRACE_COLUMNS = ("m", "x", "y", "residual", "eta_step", "bound")


def emit_trace(result: solver.SolveResult, fmt: str) -> bytes:
    """Iteration trace; row m's eta_step and bound describe the step into m."""
    step_bounds = {row.m: row.bound for row in result.bound_check}
    rows = [(row.m, row.x, row.y, _residual(row.residual), row.eta_step,
             step_bounds.get(row.m - 1)) for row in result.trace]
    if fmt == "jsonl":
        point = spaces.point_jsonable
        lines = [
            json.dumps(dict(zip(_TRACE_COLUMNS, (m, point(x), point(y), *rest))),
                       sort_keys=True)
            for m, x, y, *rest in rows
        ]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    if fmt != "csv":
        raise DomainError(f"unknown trace format {fmt!r}")
    out = [",".join(_TRACE_COLUMNS)]
    for m, x, y, *rest in rows:
        numbers = ("" if v is None else repr(v) for v in rest)
        out.append(",".join([str(m), _csv_point(x), _csv_point(y), *numbers]))
    return ("\n".join(out) + "\n").encode("utf-8")


def cmd_check(args) -> int:
    inst = instances.load_instance(args.instance)
    suite = pipeline.run_hypothesis_suite(inst)
    doc = {
        "instance": args.instance,
        "epsilon": inst.params.epsilon,
        "reports": _suite_doc(suite),
        "violated": _violated(suite),
    }
    _write(args.json, instances.canonical_json(doc))
    return 1 if doc["violated"] else 0


def _configured(path: str):
    """The instance at ``path``, its hypothesis suite, its solve configuration
    and the hypotheses that leave its decay bound uncertified."""
    inst = instances.load_instance(path)
    suite = pipeline.run_hypothesis_suite(inst)
    cfg = pipeline.build_config(inst, suite)
    return inst, suite, cfg, pipeline.uncertified(inst, suite)


def cmd_solve(args) -> int:
    inst, suite, cfg, reasons = _configured(args.instance)
    result = solver.picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
    collapse = solver.collapse_check(
        result,
        inst.space,
        x0=inst.x0,
        y0=inst.y0,
        pair_bounds=suite["pair-bounds"].verdict == hypotheses.HOLDS,
        residual_tolerance=cfg.residual_tolerance,
    )
    doc = {
        "instance": args.instance,
        "status": result.status,
        "fixed_point": (
            {"x": spaces.point_jsonable(result.x), "y": spaces.point_jsonable(result.y)}
            if result.converged
            else None
        ),
        "iterations_used": result.iterations_used,
        "residual": _residual(result.residual),
        "gap": result.gap,
        "config": {
            "residual_tolerance": cfg.residual_tolerance,
            "max_iterations": cfg.max_iterations,
            "lam": cfg.lam,
            "epsilon": cfg.epsilon,
            "chain_n": cfg.chain_n,
            "lambda_certified": not reasons,
            "uncertified": list(reasons),
        },
        "hypotheses": _suite_doc(suite),
        "violated": _violated(suite),
        "bound": {
            "advisory": bool(reasons),
            "all_below": (
                solver.below_bound(result.bound_check) if result.bound_check else None
            ),
            "rows": [[r.m, r.observed, r.bound] for r in result.bound_check],
        },
        "collapse": {
            "verdict": collapse.verdict,
            "gap": collapse.gap,
            "tolerance": collapse.tolerance,
            "mode": collapse.mode,
        },
    }
    _write(args.json, instances.canonical_json(doc))
    if args.trace:
        _write(args.trace, emit_trace(result, args.trace_format))
    return 1 if doc["violated"] or not result.converged else 0


def _cli_point(space, text: str, what: str):
    raw = text
    if isinstance(space, spaces.BoxSpace):
        try:
            raw = [float(part) for part in text.split(",")]
        except ValueError:
            raise DomainError(
                f"{what}: expected comma-separated coordinates, "
                f"got {clipped_repr(text)}"
            ) from None
    elif text not in space.labels:
        try:
            raw = int(text)
        except ValueError:
            pass  # reported as an unknown label
    return instances.parse_point(space, raw, what)


def _epsilon_arg(text: str) -> float:
    shown = clipped_repr(text)
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {shown}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite number {shown}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {shown}")
    return value


def _horizon_arg(text: str) -> int:
    shown = clipped_repr(text)
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {shown}") from None
    if not 0 <= value <= instances.MAX_ITERATIONS:
        raise argparse.ArgumentTypeError(
            f"must lie in [0, {instances.MAX_ITERATIONS}], got {shown}"
        )
    return value


def cmd_chain(args) -> int:
    inst = instances.load_instance(args.instance)
    eps = args.eps if args.eps is not None else inst.params.epsilon
    src = _cli_point(inst.space, args.src, "--from")
    dst = _cli_point(inst.space, args.dst, "--to")
    chain = hypotheses.find_epsilon_chain(inst.space, src, dst, eps)
    if chain is None:
        doc = {"found": False, "epsilon": eps, "n": None, "points": None}
    else:
        chain.validate(inst.space)
        doc = {
            "found": True,
            "epsilon": eps,
            "n": chain.n,
            "points": [spaces.point_jsonable(p) for p in chain.points],
        }
    _write(args.json, instances.canonical_json(doc))
    return 0 if chain is not None else 1


def cmd_oracle(args) -> int:
    inst = instances.load_instance(args.instance)
    if not isinstance(inst.cmap, mappings.TableMap):
        raise DomainError("the oracle is exhaustive and needs a finite instance")
    rep = oracle.oracle_report(inst.cmap, inst.params.epsilon)
    doc = {
        "instance": args.instance,
        "epsilon": inst.params.epsilon,
        "fixed_points": rep.fixed_points,
        "contraction": rep.contraction.as_dict(),
        "chain": {
            "max_n": rep.max_chain_n,
            "unreachable": rep.unreachable,
            "table": rep.chain_table,
        },
    }
    _write(args.json, instances.canonical_json(doc))
    return 1 if rep.contraction.violated or rep.unreachable else 0


def cmd_verify_lemma(args) -> int:
    inst, _, cfg, reasons = _configured(args.instance)
    fx = inst.cmap.apply(inst.x0, inst.y0)
    fy = inst.cmap.apply(inst.y0, inst.x0)
    chain_up = chain_down = None
    if "seed-condition" not in reasons:
        eps = inst.params.epsilon
        chain_up = hypotheses.find_epsilon_chain(inst.space, inst.x0, fx, eps)
        chain_down = hypotheses.find_epsilon_chain(inst.space, fy, inst.y0, eps)
    report = solver.verify_decay_bound(
        inst.cmap, (inst.x0, inst.y0), cfg, horizon=args.horizon,
        chain_up=chain_up, chain_down=chain_down,
    )
    advisory = bool(reasons)
    doc = {
        "instance": args.instance,
        "horizon": args.horizon,
        "chain_n": report.chain_n,
        "advisory": advisory,
        "uncertified": list(reasons),
        "all_below_bound": report.all_below_bound,
        "final_observed": report.final_observed,
        "escaped_at": report.escaped_at,
        "rows": [
            [m, obs, None if math.isnan(b) else b] for m, obs, b in report.rows
        ],
    }
    _write(args.json, instances.canonical_json(doc))
    if report.escaped_at is not None:
        return 1
    if report.all_below_bound is False and not advisory:
        return 1
    return 0


def cmd_gen(args) -> int:
    inst = instances.generate_finite_instance(args.seed, args.size)
    _write(args.out, instances.dump_instance(inst))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="chainfix",
        description="Coupled fixed points on ordered chainable metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every hypothesis check")
    p.add_argument("instance")
    p.add_argument("--json", default=None, help="write the report here, not stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="iterate to a coupled fixed pair")
    p.add_argument("instance")
    p.add_argument("--json", default=None)
    p.add_argument("--trace", default=None, help="write the iteration trace here")
    p.add_argument(
        "--trace-format", choices=("jsonl", "csv"), default="jsonl",
        help="jsonl (default) or csv; k-dim coordinates join with ';' in csv",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("chain", help="shortest ascending chain between points")
    p.add_argument("instance")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--eps", type=_epsilon_arg, default=None,
                   help="override the instance epsilon")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("oracle", help="independent exhaustive cross-check")
    p.add_argument("instance")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-lemma", help="iterate-gap decay vs its ceiling")
    p.add_argument("instance")
    p.add_argument("--horizon", type=_horizon_arg, default=50)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("gen", help="emit a deterministic generated instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--out", default=None, help="write the instance here, not stdout")
    p.set_defaults(func=cmd_gen)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.func(args)
    except (ChainfixError, OSError) as exc:
        field = getattr(exc, "field", None)  # an OSError names no field
        where = f"{field}: " if field else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2


def main() -> None:
    """Process entry of ``python -m chainfix`` and the ``chainfix`` script.

    A call is short and frees its data by reference counting, so the
    collector is off while it runs, and the heap is frozen before exit so
    that the interpreter's final collections do not walk every object the
    call loaded. ``run_cli`` leaves the collector as it is, for callers in
    a longer process.
    """
    gc.disable()
    code = run_cli(sys.argv[1:])
    gc.freeze()
    sys.exit(code)
