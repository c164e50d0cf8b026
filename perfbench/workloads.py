"""Workload inputs and operation lists.

Every input is a function of the workload seed alone. The program receives
only the instance files written here (plus, for ``cli-startup``, the shipped
files under ``instances/``). An operation is a short list of chainfix CLI
argument lists, run in order; all paths are relative to the repository root,
so the bytes the program prints do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-startup", "finite-exhaustive", "box-sampled")

SHIPPED = ("f1", "chain4", "antichain2", "l1", "l2d")
SHIPPED_FINITE = ("f1", "chain4", "antichain2")
# comparable endpoints for `chain` (antichain2 has no comparable pair of
# distinct points, so it asks for the trivial chain)
CHAIN_ENDS = {
    "f1": ("a", "d"),
    "chain4": ("a", "d"),
    "antichain2": ("p", "p"),
    "l1": ("0", "1"),
    "l2d": ("0,0", "1,1"),
}

# n = 64 is the schema cap. Fifteen instances with seeds 60*seed + i cover
# every pairing of map regime (seed % 3) and tight epsilon (seed % 5 == 3)
# exactly once, and the dense order (seed % 4 == 0) at the same positions,
# so every workload seed runs the same mix. The constant-map regime (i % 3 ==
# 0) costs about twice the others; running it last in each pass keeps the
# median and the tail percentile (about p60 at 20-40 samples) inside the
# cheaper regimes' cluster whatever the sample count.
FINITE_SIZE = 64
FINITE_COUNT = 15
FINITE_STRIDE = 60
FINITE_ORDER = sorted(range(FINITE_COUNT), key=lambda i: (i % 3 == 0, i))

# Box instances: (file stem, dimension, pieces per component); None pieces
# means a shipped file at a finer grid. Two 2-D solves (P = 33 sample points,
# about 0.8 s) for every 1-D solve (P = 25, about 0.6 s) put the median and
# the tail percentile inside the 2-D cluster whatever the sample count.
BOX_INSTANCES = (
    ("l2d", 2, None), ("gen2-affine", 2, 1), ("l1", 1, None),
    ("gen2-minmax", 2, 2), ("gen2-affine-b", 2, 1), ("gen1-affine", 1, 1),
    ("gen2-minmax-b", 2, 2), ("gen2-minmax-c", 2, 2), ("gen1-minmax", 1, 2),
)
BOX_STEP = {1: 0.0625, 2: 0.25}
BOX_EPSILON = {1: 0.3, 2: 0.6}


@dataclass(frozen=True)
class Op:
    calls: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    fresh_process: bool  # True: `python -m chainfix` per call; else run_cli
    ops: tuple[Op, ...]
    count_set: tuple[int, ...]  # operations (indices) the count metrics cover
    kernel: str  # speed.py reference kernel that brackets each operation


def work_dir(name: str) -> str:
    return f".bench_work/{name}"


def build(name: str, seed: int) -> Workload:
    """Operation list for a workload; inputs live in work_dir(name)/inputs."""
    inputs = f"{work_dir(name)}/inputs"
    out = f"{work_dir(name)}/out"
    if name == "cli-startup":
        ops = []
        for inst in SHIPPED:
            path = f"instances/{inst}.json"
            src, dst = CHAIN_ENDS[inst]
            ops += [
                ("check", path),
                ("solve", path, "--trace", f"{out}/{inst}.trace.jsonl",
                 "--trace-format", "jsonl"),
                ("solve", path, "--trace", f"{out}/{inst}.trace.csv",
                 "--trace-format", "csv"),
                ("verify-lemma", path),
                ("chain", path, "--from", src, "--to", dst),
            ]
            if inst in SHIPPED_FINITE:
                ops.append(("oracle", path))
        ops.append(("gen", "--seed", str(seed), "--size", str(FINITE_SIZE),
                    "--out", f"{out}/gen.json"))
        return Workload(name, True, tuple(Op((c,)) for c in ops), tuple(range(len(ops))),
                        "spawn")
    if name == "finite-exhaustive":
        ops = tuple(
            Op((("solve", p), ("oracle", p)))
            for p in (f"{inputs}/g{i:02d}.json" for i in FINITE_ORDER)
        )
        # counts cover one instance of each map regime
        return Workload(name, False, ops, tuple(FINITE_ORDER.index(i) for i in (1, 2, 0)),
                        "python+sgemm")
    if name == "box-sampled":
        ops = tuple(
            Op((("solve", f"{inputs}/{stem}.json"),)) for stem, _, _ in BOX_INSTANCES
        )
        # counts cover both dimensions, shipped and generated, affine and min/max
        return Workload(name, False, ops, (0, 1, 2, 3), "python")
    raise ValueError(f"unknown workload {name!r}")


def prepare(name: str, seed: int, dest: Path, root: Path) -> None:
    """Import chainfix and write the workload's instance files into dest."""
    import chainfix

    dest.mkdir(parents=True, exist_ok=True)
    if name == "finite-exhaustive":
        for i in range(FINITE_COUNT):
            inst = chainfix.generate_finite_instance(
                FINITE_STRIDE * seed + i, FINITE_SIZE
            )
            (dest / f"g{i:02d}.json").write_bytes(chainfix.dump_instance(inst))
    elif name == "box-sampled":
        for stem, doc in box_documents(seed, root).items():
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            (dest / f"{stem}.json").write_text(text, encoding="utf-8")


def box_documents(seed: int, root: Path) -> dict[str, dict]:
    """Shipped l1/l2d at finer grids plus maps generated from the seed.

    Generated maps are mixed monotone (nonnegative x-coefficients, y enters
    with a minus sign), map [0,1]^k into itself with a margin, and have
    ||A||_1 + ||B||_1 <= 0.45 (column-sum norms, entrywise maxima over the
    pieces of a min/max), so the contraction ratio stays below 0.9 and every
    scan runs in full.
    """
    rng = random.Random(seed)
    docs = {}
    for stem, dim, pieces in BOX_INSTANCES:
        if pieces is None:
            doc = json.loads((root / "instances" / f"{stem}.json").read_text())
            doc["space"]["grid_step"] = BOX_STEP[dim]
        else:
            doc = _box_doc(dim, [_component(rng, dim, pieces) for _ in range(dim)])
        docs[stem] = doc
    return docs


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.randint(round(lo * 10000), round(hi * 10000)) / 10000:.4f}"


def _component(rng: random.Random, dim: int, pieces: int) -> str:
    names = ["x", "y"] if dim == 1 else [f"x{j}" for j in (1, 2)] + [f"y{j}" for j in (1, 2)]
    hi = 0.25 if dim == 1 else 0.11  # keeps ||A||_1 + ||B||_1 <= 0.45
    terms = []
    for _ in range(pieces):
        a = [_num(rng, 0.02, hi) for _ in range(dim)]
        b = [_num(rng, 0.02, 0.45 - hi if dim == 1 else hi) for _ in range(dim)]
        lo_c = sum(float(v) for v in b) + 0.02
        hi_c = 1.0 - sum(float(v) for v in a) - 0.02
        c = _num(rng, lo_c + 0.0001, hi_c - 0.0001)
        xs = " + ".join(f"{v}*{n}" for v, n in zip(a, names[:dim]))
        ys = " - ".join(f"{v}*{n}" for v, n in zip(b, names[dim:]))
        terms.append(f"{xs} - {ys} + {c}")
    if pieces == 1:
        return terms[0]
    return f"{rng.choice(['min', 'max'])}({', '.join(terms)})"


def _box_doc(dim: int, formulas: list[str]) -> dict:
    corner = (lambda v: v) if dim == 1 else (lambda v: [v] * dim)
    return {
        "schema_version": 1,
        "space": {"kind": "box", "dimension": dim, "lower": [0] * dim,
                  "upper": [1] * dim, "grid_step": BOX_STEP[dim]},
        "map": {"kind": "expression",
                "formula": formulas[0] if dim == 1 else formulas},
        "seeds": {"x0": corner(0), "y0": corner(1)},
        "parameters": {"epsilon": BOX_EPSILON[dim], "lambda_claimed": 0.9,
                       "tolerance": 1e-10, "max_iterations": 80},
        "declared_flags": {"order_limit_closure": True},
    }
