"""Acceptance gate: every shipped guarantee, one test and one verdict line each.

Verdict lines are echoed at the end of the pytest run (see the terminal
summary hook in conftest). Tolerances and budgets here are pinned; loosening
any of them is a behavior change, not a test fix.

The certified finite pool comes from the deterministic generator: seeds
0..104 at sizes 2 + seed % 15, which spans 2..16. "Certified" below always
means the full exhaustive hypothesis suite passed; the two box instances
carry sampled certifications with a declared contraction factor, so their
bound checks are advisory in the API but still asserted numerically here.
"""

import functools
import json
import time

import pytest

from chainfix.cli import run_cli
from chainfix.hypotheses import HOLDS
from chainfix.instances import generate_finite_instance, load_instance
from chainfix.oracle import oracle_report
from chainfix.pipeline import build_config, run_hypothesis_suite, uncertified
from chainfix.solver import collapse_check, picard_solve, verify_decay_bound

from conftest import ACCEPTANCE_LINES

SEED_COUNT = 105
TIME_BUDGET_S = 10.0


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"[criterion {num}] FAIL: {label}")
                raise
            line = f"[criterion {num}] PASS: {label}"
            if detail:
                line += f" ({detail})"
            ACCEPTANCE_LINES.append(line)
            print(line)
        return wrapper
    return deco


@pytest.fixture(scope="session")
def pool():
    """Generated instances with both verification routes, timed end to end."""
    t0 = time.perf_counter()
    records = []
    for seed in range(SEED_COUNT):
        size = 2 + seed % 15
        inst = generate_finite_instance(seed, size)
        suite = run_hypothesis_suite(inst)
        orc = oracle_report(inst.cmap, inst.params.epsilon)
        records.append((seed, inst, suite, orc))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def certified(suite) -> bool:
    return all(suite[name].verdict == HOLDS for name in (
        "mixed-monotone",
        "uniform-local-contraction",
        "epsilon-chainable",
        "seed-condition",
    )) and not suite["uniform-local-contraction"].vacuous


def all_certified(suite) -> bool:
    return certified(suite) and all(suite[name].verdict == HOLDS for name in (
        "common-comparable",
        "pair-bounds",
    ))


@criterion(1, "hypothesis route and exhaustive oracle agree on every "
              "generated finite instance")
def test_oracle_equivalence(pool):
    records, elapsed = pool
    assert len(records) >= 100
    sizes = {inst.space.size for _, inst, _, _ in records}
    assert min(sizes) == 2 and max(sizes) == 16
    for seed, inst, suite, orc in records:
        con = suite["uniform-local-contraction"]
        assert con.violated == orc.contraction.violated, seed
        assert con.witness == orc.contraction.witness, seed
        assert con.lambda_hat == orc.contraction.lambda_hat, seed  # bitwise
        assert con.pairs_tested == orc.contraction.pairs_tested, seed
        assert con.vacuous == orc.contraction.vacuous, seed
        ch = suite["epsilon-chainable"].details
        assert list(ch["chain_n"].items()) == [
            ((i, j), h) for i, j, h in orc.chain_table.tolist()
        ], seed
        assert list(ch["unreachable"]) == orc.unreachable, seed
        assert ch["max_n"] == orc.max_chain_n, seed
    assert elapsed < TIME_BUDGET_S
    return f"{len(records)} instances, sizes 2-16, {elapsed:.2f}s < 10s"


@criterion(2, "iterate steps stay strictly below 2*n*lam^m*eps through m=50, "
              "and reach 1e-6 by m=50 on fast-decay starts")
def test_decay_bound(pool, l1_path, l2d_path, chain4_path):
    records, _ = pool
    targets = []
    for seed, inst, suite, _ in records:
        if not uncertified(inst, suite):
            targets.append((f"seed{seed}", inst, build_config(inst, suite)))
    for path in (l1_path, l2d_path, chain4_path):
        inst = load_instance(path)
        suite = run_hypothesis_suite(inst)
        targets.append((path, inst, build_config(inst, suite)))
    assert len(targets) > 10
    fast = 0
    for name, inst, cfg in targets:
        assert cfg.can_bound, name
        rep = verify_decay_bound(
            inst.cmap, (inst.x0, inst.y0), cfg, horizon=50
        )
        assert rep.escaped_at is None, name
        assert len(rep.rows) == 51, name
        for row in rep.rows:
            assert row.observed < row.bound, (name, row)
        if cfg.lam <= 0.9 and rep.rows[0].observed <= 2.0:
            assert rep.rows[50].observed < 1e-6, name
            fast += 1
    assert fast >= 2  # both box instances qualify
    return f"{len(targets)} certified instances, {fast} fast-decay"


@criterion(3, "affine instance converges to (3/7, 3/7) within 1e-10 per "
              "component inside 60 iterations")
def test_affine_convergence(l1_path):
    inst = load_instance(l1_path)
    cfg = build_config(inst, run_hypothesis_suite(inst))
    res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
    assert res.converged
    assert res.iterations_used <= 60
    c = 3.0 / 7.0
    ex = abs(res.x[0] - c)
    ey = abs(res.y[0] - c)
    assert ex <= 1e-10 and ey <= 1e-10
    return (f"{res.iterations_used} iterations, component errors "
            f"{ex:.2e} and {ey:.2e}")


@criterion(4, "ascending stream rises and descending stream falls on every "
              "certified instance")
def test_monotone_trajectories(pool, l1_path, l2d_path, chain4_path):
    records, _ = pool
    targets = [
        (f"seed{seed}", inst, build_config(inst, suite))
        for seed, inst, suite, _ in records
        if not uncertified(inst, suite)
    ]
    for path in (l1_path, l2d_path, chain4_path):
        inst = load_instance(path)
        targets.append((path, inst, build_config(inst, run_hypothesis_suite(inst))))
    checked = 0
    for name, inst, cfg in targets:
        res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
        leq = inst.space.leq
        rows = res.trace
        assert len(rows) >= 2, name
        for prev, cur in zip(rows, rows[1:]):
            assert leq(prev.x, cur.x), (name, prev.m)
            assert leq(cur.y, prev.y), (name, prev.m)
        checked += 1
    assert checked == len(targets)
    return f"{checked} instances, every consecutive trace pair ordered"


@criterion(5, "every all-certified finite instance has exactly one coupled "
              "fixed pair; the threshold instance keeps three under a "
              "certified contraction violation")
def test_fixed_point_counts(pool, f1_path, chain4_path):
    records, _ = pool
    unique_checked = 0
    for seed, inst, suite, orc in records:
        if all_certified(suite):
            assert len(orc.fixed_points) == 1, seed
            x, y = orc.fixed_points[0]
            assert x == y, seed  # pair bounds force the diagonal
            unique_checked += 1
    assert unique_checked >= 5
    inst = load_instance(chain4_path)
    assert oracle_report(inst.cmap, inst.params.epsilon).fixed_points.tolist() == [
        [0, 0]
    ]
    f1 = load_instance(f1_path)
    f1_suite = run_hypothesis_suite(f1)
    orc = oracle_report(f1.cmap, f1.params.epsilon)
    assert orc.fixed_points.tolist() == [[0, 0], [0, 1], [1, 0]]
    con = f1_suite["uniform-local-contraction"]
    assert con.violated and con.mode == "exhaustive"
    assert con.witness == (1, 0, 0, 0)
    return (f"{unique_checked} all-certified instances unique; "
            "threshold instance keeps 3 fixed pairs")


@criterion(6, "converged pairs collapse to the diagonal within twice the "
              "residual tolerance whenever the collapse hypotheses hold")
def test_diagonal_collapse(pool, l1_path, l2d_path, chain4_path):
    records, _ = pool
    l1_gap = None
    checked = 0
    targets = [
        (f"seed{seed}", inst, suite)
        for seed, inst, suite, _ in records if all_certified(suite)
    ]
    for path in (l1_path, l2d_path, chain4_path):
        inst = load_instance(path)
        targets.append((path, inst, run_hypothesis_suite(inst)))
    for name, inst, suite in targets:
        cfg = build_config(inst, suite)
        res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
        assert res.converged, name
        verdict = collapse_check(
            res, inst.space, x0=inst.x0, y0=inst.y0,
            pair_bounds=suite["pair-bounds"].passed,
            residual_tolerance=cfg.residual_tolerance,
        )
        assert verdict.verdict == "holds", name
        assert res.gap <= 2.0 * cfg.residual_tolerance, name
        if name == l1_path:
            l1_gap = res.gap
            assert res.gap <= 2e-10
        checked += 1
    assert l1_gap is not None
    return f"{checked} instances, affine gap {l1_gap:.2e} <= 2e-10"


@criterion(7, "generated instances, reports, solve summaries, and traces are "
              "byte-identical across repeated runs")
def test_determinism(tmp_path, monkeypatch, l2d_path, l1_path):
    pairs = []
    for tag in ("a", "b"):
        # separate working directories with identical relative file names, so
        # recorded paths inside the documents match byte for byte
        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run_cli(["gen", "--seed", "42", "--size", "9",
                        "--out", "gen.json"]) == 0
        run_cli(["solve", l2d_path, "--json", "solve.json",
                 "--trace", "trace.jsonl"])
        run_cli(["check", l1_path, "--json", "check.json"])
        run_cli(["solve", "gen.json", "--json", "gsolve.json"])
        pairs.append(tuple(
            (workdir / name).read_bytes()
            for name in ("gen.json", "solve.json", "trace.jsonl",
                         "check.json", "gsolve.json")
        ))
    assert pairs[0] == pairs[1]
    total = sum(len(b) for b in pairs[0])
    return f"5 artifact kinds compared, {total} bytes each run"


def test_pair_bounds_certification_forces_diagonal_uniqueness(pool):
    # consistency probe across the pool, not a numbered criterion: when the
    # full suite holds, the unique pair sits on the diagonal and the solver
    # finds it from the declared seeds
    records, _ = pool
    for seed, inst, suite, orc in records:
        if not all_certified(suite):
            continue
        cfg = build_config(inst, suite)
        res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
        assert res.converged, seed
        fp = tuple(orc.fixed_points[0].tolist())
        assert (res.x, res.y) == fp, seed


def test_f1_solver_lands_on_off_diagonal_pair(f1_path):
    # the failure mode criterion 5 guards: without contraction the seeds
    # converge immediately to a genuinely off-diagonal fixed pair
    inst = load_instance(f1_path)
    cfg = build_config(inst, run_hypothesis_suite(inst))
    res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
    assert res.converged
    assert (res.x, res.y) == (0, 1)
    assert res.gap == 1.0


def test_acceptance_artifacts_exist(instance_dir):
    for name in ("l1.json", "l2d.json", "f1.json", "chain4.json",
                 "antichain2.json"):
        doc = json.loads((instance_dir / name).read_text())
        assert doc["schema_version"] == 1
