"""Correctness gate: decides whether one CLI call's output counts as failed.

A call fails when its exit code is not 0 or 1, when stderr holds a
traceback, when a JSON output (stdout, ``--out``, a jsonl trace) does not
parse as strict JSON (NaN and Infinity rejected), or when a csv trace is
malformed. Across calls, the same argument list must produce the same bytes
every time within one session; on finite instances the loop route must agree
with the oracle; and a converged solve of an affine box map must land within
twice the tolerance of the closed form (I - A + B)^-1 c.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

JSON_COMMANDS = ("check", "solve", "chain", "oracle", "verify-lemma")
CSV_HEADER = "m,x,y,residual,eta_step,bound"


@dataclass
class Call:
    argv: tuple[str, ...]
    code: int | None  # None: the call raised instead of returning
    stdout: bytes
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)

    def output_bytes(self) -> int:
        return len(self.stdout) + len(self.stderr.encode()) + sum(
            len(b) for b in self.files.values()
        )

    def fingerprint(self) -> bytes:
        parts = [repr(self.argv).encode(), repr(self.code).encode(),
                 self.stdout, self.stderr.encode()]
        for name in sorted(self.files):
            parts += [name.encode(), self.files[name]]
        return b"\0".join(len(p).to_bytes(8, "big") + p for p in parts)


def written_files(argv) -> list[str]:
    """Paths a call writes besides stdout, from its --trace/--out/--json flags."""
    return [argv[i + 1] for i, a in enumerate(argv[:-1])
            if a in ("--trace", "--out", "--json")]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def call_problems(call: Call) -> list[str]:
    """Problems visible in a single call's exit code and bytes."""
    problems = []
    if call.code not in (0, 1):
        problems.append(f"exit code {call.code}")
    if "Traceback" in call.stderr:
        problems.append("traceback on stderr")
    command = call.argv[0]
    try:
        if command in JSON_COMMANDS:
            strict_json(call.stdout)
        for name, data in call.files.items():
            if name.endswith(".csv"):
                _check_csv(data)
            elif name.endswith(".jsonl"):
                for line in data.splitlines():
                    strict_json(line)
            else:
                strict_json(data)
    except (ValueError, UnicodeDecodeError) as exc:
        problems.append(f"output is not strict JSON/CSV: {exc}")
    return problems


def _check_csv(data: bytes) -> None:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("csv trace header missing")
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6:
            raise ValueError(f"csv row has {len(cells)} cells: {line!r}")
        for cell in cells:
            for value in filter(None, cell.split(";")):
                if not math.isfinite(float(value)):
                    raise ValueError(f"non-finite csv value {value!r}")


def affine_parts(formula: str) -> tuple[dict[str, Fraction], Fraction] | None:
    """Coefficients and constant of an affine formula; None if not affine."""

    def walk(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return {}, Fraction(str(node.value))
        if isinstance(node, ast.Name):
            return {node.id: Fraction(1)}, Fraction(0)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            sub = walk(node.operand)
            if sub is None or isinstance(node.op, ast.UAdd):
                return sub
            return {k: -v for k, v in sub[0].items()}, -sub[1]
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, (ast.Add, ast.Sub)):
                sign = 1 if isinstance(node.op, ast.Add) else -1
                coef = dict(left[0])
                for k, v in right[0].items():
                    coef[k] = coef.get(k, Fraction(0)) + sign * v
                return coef, left[1] + sign * right[1]
            if isinstance(node.op, ast.Mult):
                if left[0] and right[0]:
                    return None  # variable times variable
                const, lin = (left, right) if not left[0] else (right, left)
                return {k: v * const[1] for k, v in lin[0].items()}, lin[1] * const[1]
            if isinstance(node.op, ast.Div) and not right[0] and right[1] != 0:
                return {k: v / right[1] for k, v in left[0].items()}, left[1] / right[1]
        return None  # min, max, abs or anything else

    return walk(ast.parse(formula, mode="eval").body)


def closed_form_problem(instance: dict, solve_doc: dict) -> str | None:
    """Check a converged affine box solve against (I - A + B)^-1 c."""
    if instance["space"]["kind"] != "box" or solve_doc["status"] != "converged":
        return None
    formula = instance["map"]["formula"]
    formulas = [formula] if isinstance(formula, str) else formula
    dim = len(formulas)
    xs = ["x"] if dim == 1 else [f"x{j}" for j in range(1, dim + 1)]
    ys = ["y"] if dim == 1 else [f"y{j}" for j in range(1, dim + 1)]
    rows, rhs = [], []
    for i, text in enumerate(formulas):
        parts = affine_parts(text)
        if parts is None:
            return None
        coef, const = parts
        rows.append([
            (1 if i == j else 0) - coef.get(xs[j], 0) - coef.get(ys[j], 0)
            for j in range(dim)
        ])  # I - A + B, with F = A x - B y + c
        rhs.append(const)
    star = _solve_exact(rows, rhs)
    tol = instance["parameters"].get("tolerance", 1e-10)
    for name in ("x", "y"):
        got = solve_doc["fixed_point"][name]
        got = [got] if dim == 1 else got
        miss = sum(abs(g - float(s)) for g, s in zip(got, star))
        if not miss <= 2 * tol:
            return f"fixed point {name} misses the closed form by {miss!r}"
    return None


def _solve_exact(rows, rhs) -> list[Fraction]:
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


class OracleComparison:
    """Loop route against the oracle on finite instances, one result at a time."""

    def __init__(self):
        self.compared = 0
        self.agreed = 0
        self._tables: dict[str, tuple] = {}

    def compare(self, path: str, loop_contraction: dict, oracle_doc: dict) -> list[str]:
        problems = []
        if loop_contraction != oracle_doc["contraction"]:
            problems.append("loop route and oracle disagree on the contraction report")
        table, unreachable, max_n = self._loop_chain_table(path)
        chain = oracle_doc["chain"]
        oracle_table = {(i, j): h for i, j, h in chain["table"]}
        if (oracle_table, sorted(map(tuple, chain["unreachable"])), chain["max_n"]) != (
            table, unreachable, max_n
        ):
            problems.append("loop route and oracle disagree on the chain table")
        self.compared += 2
        self.agreed += 2 - len(problems)
        return problems

    def _loop_chain_table(self, path: str):
        if path not in self._tables:
            from chainfix import check_epsilon_chainable, load_instance

            inst = load_instance(path)
            rep = check_epsilon_chainable(inst.space, inst.params.epsilon)
            self._tables[path] = (
                dict(rep.details["chain_n"]),
                sorted(rep.details["unreachable"]),
                rep.details["max_n"],
            )
        return self._tables[path]


def loop_contraction(command: str, doc: dict) -> dict | None:
    """The loop route's contraction report inside a check or solve document."""
    key = {"check": "reports", "solve": "hypotheses"}.get(command)
    return None if key is None else doc[key]["uniform-local-contraction"]
