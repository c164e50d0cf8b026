"""chainfix benchmark: one command, three workloads, a strict correctness gate.

Run from the repository root:

    python3 perfbench/run.py --workload finite-exhaustive --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation. Their
times are scaled to nominal host speed by a reference kernel timed beside
every operation and set-up (speed.py); the wall-clock figures are printed
beside them.
``--trace 1`` is the separate traced run: it reports the per-layer metrics
(spans and counters installed around chainfix's public functions by
``layers.py``), the import breakdown from ``python -X importtime``, and the
tracing overhead. Both print an environment header, the per-metric lines,
the sha256 of every byte the program wrote in the first full pass, and, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics. DESIGN.md says why each workload exists and which end-to-end metric
each layer metric should move.

Load stays within one process and one closed-loop client: fresh CLI processes
run one at a time, and BLAS gets no more threads than the CPUs this process
may use. The program is imported from ``src/`` of this checkout and from
nowhere else; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gate
import layers
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # setup_s is the median of this many fresh set-ups
IMPORT_REPEATS = 3  # import.* are medians of this many -X importtime children
FIRST_PASS_LIMIT_S = 120.0  # give up completing a first pass after this long
SUBCOMMANDS = ("check", "solve", "chain", "oracle", "verify-lemma", "gen")


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


@dataclass
class Record:
    op: int  # index into the workload's operation list
    calls: list[gate.Call]
    seconds: float  # wall time
    norm: float  # wall time scaled to nominal host speed (speed.py)
    rss_kb: int = 0  # fresh processes only: the child's peak resident set


# -- environment ----------------------------------------------------------------
def child_env() -> dict[str, str]:
    """Environment for chainfix children: BLAS threads = the CPUs they may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: str(len(os.sched_getaffinity(0))) for var in BLAS_VARS})
    return env


@contextmanager
def one_cpu():
    """Keep this process and the children it starts on one CPU.

    The speed kernel (speed.py) runs in this process; a child that ran on
    another vCPU, at another speed, would be scaled by the wrong factor.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def import_chainfix() -> None:
    if not (SRC / "chainfix" / "__init__.py").is_file():
        raise BenchError(f"no chainfix sources under {SRC}")
    os.environ.update({var: str(NPROC) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import chainfix
    import chainfix.cli  # noqa: F401  (run_cli is looked up on the module)

    if Path(chainfix.__file__).resolve().parent != (SRC / "chainfix").resolve():
        raise BenchError(f"chainfix was imported from {chainfix.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, steal: float | None) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": NPROC,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_steal_share": steal,
    }


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters; field 8 is time stolen by the host."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def code_hash() -> str:
    """Hash of the program and the benchmark; counts compare only within one."""
    h = hashlib.sha256()
    files = [*(SRC / "chainfix").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- running the program ----------------------------------------------------------
def _read_outputs(argv) -> dict[str, bytes]:
    return {f: (ROOT / f).read_bytes() for f in gate.written_files(argv) if (ROOT / f).exists()}


def _clear_outputs(argv) -> None:
    for f in gate.written_files(argv):
        (ROOT / f).unlink(missing_ok=True)


def run_inprocess(argv) -> tuple[gate.Call, float]:
    """One chainfix.cli.run_cli call with stdout and stderr captured."""
    _clear_outputs(argv)
    cli = sys.modules["chainfix.cli"]
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        code = cli.run_cli(list(argv))
    except Exception:  # a traceback is a failed operation, not a crash
        code = None
        err.write(traceback.format_exc())
    finally:
        elapsed = perf_counter() - start
        sys.stdout, sys.stderr = saved
    out.flush()
    return gate.Call(tuple(argv), code, out.detach().getvalue(), err.getvalue(),
                     _read_outputs(argv)), elapsed


def run_process(argv, scratch: Path, env) -> tuple[gate.Call, float, int]:
    """One fresh `python -m chainfix` process; returns its peak RSS in KiB."""
    _clear_outputs(argv)
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "chainfix", *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        call = gate.Call(tuple(argv), proc.returncode, out.read(),
                         err.read().decode("utf-8", "replace"), _read_outputs(argv))
    return call, elapsed, usage.ru_maxrss


class Runner:
    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.scratch = ROOT / workloads.work_dir(wl.name)
        self.env = child_env()
        self.ref = speed.Reference(wl.kernel)

    def op(self, index: int, fresh: bool) -> Record:
        calls, seconds, rss = [], 0.0, 0
        for argv in self.wl.ops[index % len(self.wl.ops)].calls:
            if fresh:
                call, elapsed, kb = run_process(argv, self.scratch, self.env)
                rss = max(rss, kb)
            else:
                call, elapsed = run_inprocess(argv)
            calls.append(call)
            seconds += elapsed
        norm = seconds * self.ref.scale()
        return Record(index % len(self.wl.ops), calls, seconds, norm, rss)


# -- set-up -----------------------------------------------------------------------
def setup(name: str, seed: int) -> tuple[float, float]:
    """Fresh set-ups (interpreter, import, inputs).

    Returns the median of their times scaled to nominal host speed, and the
    median of their wall times.
    """
    base = ROOT / workloads.work_dir(name)
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    ref = speed.Reference("spawn")
    times, norms = [], []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               str(base / f"setup-{i}"), "--workload", name, "--seed", str(seed)]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True)
        times.append(perf_counter() - start)
        norms.append(times[-1] * ref.scale())
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    for i in range(SETUP_REPEATS - 1):
        shutil.rmtree(base / f"setup-{i}")
    (base / f"setup-{SETUP_REPEATS - 1}").rename(base / "inputs")
    (base / "out").mkdir()
    return statistics.median(norms), statistics.median(times)


def import_breakdown(env) -> dict[str, float]:
    """Cumulative import times in seconds from `python -X importtime` children."""
    wanted = {"chainfix": "import.chainfix_s", "chainfix.oracle": "import.oracle_s",
              "numpy": "import.numpy_s"}
    samples: dict[str, list[float]] = {m: [] for m in wanted.values()}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import chainfix, chainfix.oracle"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing chainfix failed: {proc.stderr[-2000:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)  # µs
        for module, metric in wanted.items():
            samples[metric].append(seen.get(module, 0.0))
    return {metric: statistics.median(vals) for metric, vals in samples.items()}


# -- checking -----------------------------------------------------------------------
class Validation:
    def __init__(self):
        self.oracle = gate.OracleComparison()
        self.first: dict[tuple, bytes] = {}  # argv -> fingerprint of its first run
        self.verdicts: dict[bytes, list[str]] = {}  # fingerprint -> problems
        self.instances: dict[str, dict] = {}
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, records: list[Record]) -> None:
        distinct = {}
        for call in (c for r in records for c in r.calls):
            distinct.setdefault(call.fingerprint(), call)
        docs, loop = {}, {}
        for fp, call in distinct.items():
            if fp in self.verdicts:
                continue
            self.verdicts[fp] = gate.call_problems(call)
            if not self.verdicts[fp] and call.argv[0] in gate.JSON_COMMANDS:
                docs[fp] = gate.strict_json(call.stdout)
                contraction = gate.loop_contraction(call.argv[0], docs[fp])
                if contraction is not None:
                    loop.setdefault(call.argv[1], contraction)
        for fp, doc in docs.items():
            self.verdicts[fp] += self._semantic(distinct[fp].argv, doc, loop)
        for record in records:
            self.attempted += 1
            problems = []
            for call in record.calls:
                fp = call.fingerprint()
                if self.first.setdefault(call.argv, fp) != fp:
                    problems.append("bytes differ from an earlier run")
                problems += self.verdicts[fp]
            if problems:
                self.failed += 1
                argv = " | ".join(" ".join(c.argv) for c in record.calls)
                self.problems += [f"{argv}: {p}" for p in problems]

    def _semantic(self, argv, doc, loop) -> list[str]:
        command, path = argv[0], argv[1]
        if command == "solve":
            if path not in self.instances:
                self.instances[path] = json.loads((ROOT / path).read_text())
            miss = gate.closed_form_problem(self.instances[path], doc)
            return [miss] if miss else []
        if command == "oracle":
            if path not in loop:
                return ["no loop-route result to compare the oracle with"]
            return self.oracle.compare(str(ROOT / path), loop[path], doc)
        return []

    @property
    def agree_ratio(self) -> float:
        o = self.oracle
        return o.agreed / o.compared if o.compared else 1.0


def digest(records: list[Record], n_ops: int) -> tuple[str, int]:
    """sha256 over every byte written by the first run of each operation, in order."""
    first: dict[int, Record] = {}
    for record in records:
        first.setdefault(record.op, record)
    h = hashlib.sha256()
    for index in sorted(first):
        for call in first[index].calls:
            h.update(call.fingerprint())
    return h.hexdigest(), len(first)


# -- measuring ------------------------------------------------------------------------
def timed_loop(runner: Runner, seconds: float) -> list[Record]:
    """Closed loop, one client: the next operation starts when the last ends."""
    n = len(runner.wl.ops)
    records: list[Record] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        first_pass_open = len(records) < n and elapsed < FIRST_PASS_LIMIT_S
        if elapsed >= seconds and not first_pass_open:
            return records
        records.append(runner.op(len(records), runner.wl.fresh_process))


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Below 20 samples that percentile would fall under the median, so the
    median is reported instead, with fewer than ten samples beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(100 * (n - 10) // n, 50)
    rank = max(math.ceil(pct * n / 100), 1)
    return max(ordered[rank - 1], statistics.median(ordered)), pct, n - rank


def time_metrics(ops: list[int], latencies: list[float]) -> tuple[dict[str, float], int, int]:
    """Median, tail and throughput of one run's operation times.

    Throughput is taken over one pass of the operation list, each operation
    at the mean of its times in this run, so every run has the same mix and
    every sample counts. Also returns the tail's percentile and the number
    of samples beyond it.
    """
    tail_s, pct, beyond = tail(latencies)
    per_op: dict[int, list[float]] = {}
    for op, seconds in zip(ops, latencies):
        per_op.setdefault(op, []).append(seconds)
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "ops_per_s": len(per_op) / sum(statistics.fmean(v) for v in per_op.values()),
    }, pct, beyond


def end_to_end(runner: Runner, seconds: float, setup_s: tuple[float, float],
               val: Validation, out):
    records = timed_loop(runner, seconds)
    val.check(records)
    ops = [r.op for r in records]
    metrics, pct, beyond = time_metrics(ops, [r.norm for r in records])
    wall, wall_pct, _ = time_metrics(ops, [r.seconds for r in records])
    if runner.wl.fresh_process:
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["setup_s"] = setup_s[0]
    metrics["peak_rss_mb"] = rss_kb / 1024
    out(f"# latency_tail_s is p{pct} of {len(records)} samples ({beyond} beyond it); "
        f"ops_per_s is one pass over the {len(runner.wl.ops)} operations, each at its "
        "mean time in this run")
    out("# the time metrics are scaled to nominal host speed (speed.py); "
        "on the wall clock they read: "
        f"setup_s {setup_s[1]!r}, latency_p50_s {wall['latency_p50_s']!r}, "
        f"latency_tail_s {wall['latency_tail_s']!r} (p{wall_pct}), "
        f"ops_per_s {wall['ops_per_s']!r}")
    return records, metrics


def traced(runner: Runner, seconds: float, val: Validation, seed: int, out):
    """Paired untraced/traced operations, then a counting pass over a fixed set."""
    wl = runner.wl
    rec = layers.Recorder()
    metrics = import_breakdown(runner.env)
    records: list[Record] = []
    plain, spanned, process_gap = [], [], []
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        fresh = runner.op(i, fresh=True) if wl.fresh_process else None
        pair = {}
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                rec.op = i
                rec.install_spans()
            try:
                pair[traced_side] = runner.op(i, fresh=False)
            finally:
                rec.uninstall()
        plain.append(pair[False].seconds)
        spanned.append(pair[True].seconds)
        records += [pair[False], pair[True]]
        if fresh is not None:
            records.append(fresh)
            process_gap.append(fresh.seconds - pair[False].seconds)
        i += 1
    traced_ops = i

    counted = layers.Recorder()
    counted.install_counters()
    try:
        count_records = [runner.op(k, fresh=False) for k in wl.count_set]
    finally:
        counted.uninstall()
    records += count_records
    val.check(records)

    for name in layers.SPANS:
        metrics[f"{name}_s"] = rec.self_s[name] / traced_ops
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = rec.self_s[f"cli.{sub}"] / traced_ops
    metrics["cli.process_s"] = statistics.fmean(process_gap) if process_gap else 0.0
    counts = {
        "cli.output_bytes": sum(c.output_bytes() for r in count_records for c in r.calls),
        "spaces.distance_calls": counted.calls["spaces.distance"],
        "spaces.leq_calls": counted.calls["spaces.leq"],
        "spaces.validate_calls": counted.calls["spaces.validate"],
        "mappings.apply_calls": counted.calls["mappings.apply"],
        "expressions.evaluate_calls": counted.calls["expressions.evaluate"],
        "hypotheses.sample_size": counted.sample_size,
        "hypotheses.contraction.pairs_tested": counted.pairs_tested,
        "solver.iterations": counted.iterations,
    }
    metrics.update(counts)
    metrics["hypotheses.contraction.admissible_ratio"] = (
        counted.full_scan_tested / counted.full_scan_enumerated
        if counted.full_scan_enumerated else 0.0
    )
    metrics["oracle.agree_ratio"] = val.agree_ratio
    metrics["trace.overhead_ratio"] = sum(spanned) / sum(plain)

    out(f"# timings are self seconds per operation over {traced_ops} traced operations; "
        f"counts cover operations {list(wl.count_set)}")
    mean_traced = statistics.fmean(spanned)
    for name in sorted(rec.self_s):
        out(f"#   {name:32s} self {rec.self_s[name] / traced_ops:.6f} s/op "
            f"({rec.self_s[name] / traced_ops / mean_traced:6.1%} of traced latency "
            f"{mean_traced:.4f} s/op), inclusive {rec.total_s[name] / traced_ops:.6f} s/op")
    hot_spots(wl.name, metrics, rec, traced_ops, process_gap, plain, out)
    check_counts(wl.name, seed, counts, val, out)
    dump_spans(wl.name, seed, rec.spans)
    return records, metrics


def hot_spots(name, metrics, rec, traced_ops, process_gap, plain, out) -> None:
    solve_s = rec.total_s["cli.solve"] / traced_ops
    if name == "cli-startup":
        fresh = statistics.fmean(p + g for p, g in zip(plain, process_gap))
        out(f"# hot spot: import chainfix {metrics['import.chainfix_s']:.4f} s = "
            f"{metrics['import.chainfix_s'] / fresh:.1%} of the mean fresh-process "
            f"call ({fresh:.4f} s); chainfix.oracle alone {metrics['import.oracle_s']:.4f} s")
    elif name == "finite-exhaustive" and solve_s:
        cc = metrics["hypotheses.common_comparable_s"]
        out(f"# hot spot: common-comparable {cc:.4f} s = {cc / solve_s:.1%} of an "
            f"in-process solve ({solve_s:.4f} s inclusive, per operation)")
    elif name == "box-sampled" and solve_s:
        scans = metrics["hypotheses.contraction_s"] + metrics["hypotheses.mixed_monotone_s"]
        out(f"# hot spot: contraction + mixed-monotone {scans:.4f} s = "
            f"{scans / solve_s:.1%} of an in-process solve ({solve_s:.4f} s inclusive)")


def check_counts(name, seed, counts, val: Validation, out) -> None:
    """Counts must repeat exactly between runs of the same code and seed."""
    path = ROOT / ".bench_work" / "counts" / f"{name}-seed{seed}.json"
    current = {"code": code_hash(), "counts": counts}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["code"] == current["code"]:
            drift = {k: (previous["counts"].get(k), v) for k, v in counts.items()
                     if previous["counts"].get(k) != v}
            if drift:
                val.failed += 1
                val.attempted += 1
                val.problems.append(f"count metrics changed between runs: {drift}")
                out(f"# exact-count check FAILED: {drift}")
                return
            out(f"# exact-count check: all {len(counts)} counts repeat the previous run")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, sort_keys=True))
    out("# exact-count check: counts recorded; the next traced run with this seed compares")


def dump_spans(name, seed, spans) -> None:
    path = ROOT / ".bench_work" / "traces" / f"{name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for op, span, parent, start, end in spans:
            fh.write(json.dumps({"op": op, "name": span, "parent": parent,
                                 "start": start, "end": end}) + "\n")


# -- entry point -------------------------------------------------------------------------
def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_chainfix()
        if args.setup_only:
            workloads.prepare(args.workload, args.seed, Path(args.setup_only), ROOT)
            return 0
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def measure(args) -> int:
    units = declared_metrics(args.trace)
    lines = []
    out = lines.append
    wl = workloads.build(args.workload, args.seed)
    ticks = cpu_ticks()
    try:
        with one_cpu():
            setup_s = setup(args.workload, args.seed)
        with one_cpu() if wl.fresh_process else nullcontext():
            runner = Runner(wl)
            val = Validation()
            if args.trace:
                records, values = traced(runner, args.seconds, val, args.seed, out)
            else:
                records, values = end_to_end(runner, args.seconds, setup_s, val, out)
    finally:
        shutil.rmtree(ROOT / workloads.work_dir(args.workload), ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    steal = steal_share(ticks, cpu_ticks())
    env = environment(args, steal)
    env["host_speed"] = runner.ref.summary()
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    sha, covered = digest(records, len(wl.ops))
    print(f"# output digest sha256 {sha} over {covered} of {len(wl.ops)} operations")
    print(f"# failed_ratio {val.failed / val.attempted} ratio "
          f"({val.failed} failed of {val.attempted} attempted)")
    for problem in val.problems[:20]:
        print(f"# FAILED {problem}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]!r} {unit}")
    result = {
        "correct": val.failed == 0,
        "attempted": val.attempted,
        "failed": val.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
