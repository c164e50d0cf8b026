"""Coupled Picard iteration with certified decay bounds.

The solver advances the pair (x, y) by x <- F(x, y), y <- F(y, x)
simultaneously and stops when the coupled residual

    d(x, F(x, y)) + d(y, F(y, x))

drops to the configured tolerance. When the instance's hypotheses are
certified (chain structure with maximal length n, contraction factor lam,
locality epsilon), successive iterates of a seed-condition start obey

    step_m <= 2 * n * lam**m * epsilon

and the solver records that bound next to the observed step so a violation
is visible in the trace. The bound is advisory for sampled certifications:
a grid cannot prove the hypotheses on a continuum, so the numbers are
reported but a breach is not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import DomainError, EscapeError
from .hypotheses import Chain
from .mappings import CoupledMap
from .spaces import Point, product_comparable, product_eta

CONVERGED = "converged"
EXHAUSTED = "max-iterations-exhausted"
DIVERGED = "diverged-from-box"


@dataclass(frozen=True)
class SolveConfig:
    residual_tolerance: float = 1e-10
    max_iterations: int = 200
    lam: float | None = None
    epsilon: float | None = None
    chain_n: int | None = None
    lambda_certified: bool = False

    def __post_init__(self) -> None:
        if self.residual_tolerance <= 0:
            raise DomainError(
                f"residual_tolerance must be positive, got {self.residual_tolerance!r}"
            )
        if self.max_iterations < 1:
            raise DomainError(
                f"max_iterations must be at least 1, got {self.max_iterations!r}"
            )
        if self.lam is not None and not 0.0 < self.lam < 1.0:
            raise DomainError(f"lam must lie in (0, 1), got {self.lam!r}")
        if self.epsilon is not None and not self.epsilon > 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.chain_n is not None and self.chain_n < 1:
            raise DomainError(f"chain_n must be at least 1, got {self.chain_n!r}")

    @property
    def can_bound(self) -> bool:
        return (
            self.lam is not None
            and self.epsilon is not None
            and self.chain_n is not None
        )


class TraceRow(NamedTuple):
    m: int
    x: Point
    y: Point
    residual: float
    eta_step: float | None  # pair-metric distance from iterate m-1; None at m=0


class BoundRow(NamedTuple):
    m: int
    observed: float
    bound: float


@dataclass(frozen=True)
class SolveResult:
    status: str
    x: Point
    y: Point
    iterations_used: int
    residual: float
    gap: float  # d(x, y) at the final iterate
    trace: tuple[TraceRow, ...] = ()
    bound_check: tuple[BoundRow, ...] = ()
    bound_advisory: bool = False

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def fixed_pair(self) -> tuple[Point, Point]:
        if not self.converged:
            raise DomainError(f"no fixed pair: solver status is {self.status!r}")
        return (self.x, self.y)


def residual(cmap: CoupledMap, x: Point, y: Point) -> float:
    d = cmap.space.distance
    return d(x, cmap.apply(x, y)) + d(y, cmap.apply(y, x))


def decay_bound(chain_n: int, lam: float, epsilon: float, m: int) -> float:
    """Certified ceiling 2 * n * lam**m * epsilon on the m-th iteration step."""
    if chain_n < 1:
        raise DomainError(f"chain_n must be at least 1, got {chain_n!r}")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lam must lie in (0, 1), got {lam!r}")
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if m < 0:
        raise DomainError(f"iteration index must be nonnegative, got {m!r}")
    return 2.0 * chain_n * lam**m * epsilon


def below_bound(rows) -> bool:
    """The lemma's strict ceiling: every observed step lies below its bound."""
    return all(row.observed < row.bound for row in rows)


def picard_solve(
    cmap: CoupledMap, x0: Point, y0: Point, config: SolveConfig | None = None
) -> SolveResult:
    """Iterate the coupled map from (x0, y0) until the residual is tolerable.

    The m-th trace row holds the iterate, its residual, and the pair-metric
    step taken to reach it; the residual at iterate m equals the step from
    m to m+1, which is what makes the recorded decay bound comparable.
    """
    cfg = config or SolveConfig()
    space = cmap.space
    space.validate_point(x0)
    space.validate_point(y0)
    x, y = x0, y0
    d = space.distance
    trace: list[TraceRow] = []
    bounds: list[BoundRow] = []
    prev_step: float | None = None
    for m in range(cfg.max_iterations + 1):
        try:
            fx = cmap.apply(x, y)
            fy = cmap.apply(y, x)
        except EscapeError:
            trace.append(TraceRow(m, x, y, math.inf, prev_step))
            return SolveResult(
                DIVERGED, x, y, m, math.inf, d(x, y),
                tuple(trace), tuple(bounds),
                bound_advisory=not cfg.lambda_certified,
            )
        r = d(x, fx) + d(y, fy)
        trace.append(TraceRow(m, x, y, r, prev_step))
        if cfg.can_bound:
            bounds.append(
                BoundRow(m, r, decay_bound(cfg.chain_n, cfg.lam, cfg.epsilon, m))
            )
        if r <= cfg.residual_tolerance:
            return SolveResult(
                CONVERGED, x, y, m, r, d(x, y),
                tuple(trace), tuple(bounds),
                bound_advisory=not cfg.lambda_certified,
            )
        if m == cfg.max_iterations:
            return SolveResult(
                EXHAUSTED, x, y, m, r, d(x, y),
                tuple(trace), tuple(bounds),
                bound_advisory=not cfg.lambda_certified,
            )
        x, y = fx, fy
        prev_step = r
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[BoundRow, ...]
    all_below_bound: bool | None  # None when no bound was available
    final_observed: float
    chain_n: int | None
    uncertified: tuple[str, ...] = ()


def verify_decay_bound(
    cmap: CoupledMap,
    ascending: tuple[Point, Point],
    descending: tuple[Point, Point],
    config: SolveConfig,
    horizon: int = 50,
    *,
    chain_up: Chain | None = None,
    chain_down: Chain | None = None,
    mixed_monotone: bool = False,
    contraction: bool = False,
) -> DecayReport:
    """Track the pair-metric gap between two iterate streams against the bound.

    ``ascending`` starts the stream launched at the chain's lower end and
    ``descending`` the one at its upper end; the observed quantity at step m
    is d(x_m, x'_m) + d(y_m, y'_m). Hypotheses the caller could not certify
    are listed in ``uncertified`` rather than raised, because the point of
    the report is to watch the numbers even when certification is partial.
    """
    if not isinstance(horizon, int) or horizon < 0:
        raise DomainError(f"horizon must be a nonnegative integer, got {horizon!r}")
    space = cmap.space
    uncertified = []
    if not mixed_monotone:
        uncertified.append("mixed-monotone")
    if not contraction:
        uncertified.append("uniform-local-contraction")
    if chain_up is None and chain_down is None and config.chain_n is None:
        uncertified.append("epsilon-chainable")
    n: int | None
    if chain_up is not None or chain_down is not None:
        n = max(
            chain_up.n if chain_up is not None else 0,
            chain_down.n if chain_down is not None else 0,
            1,
        )
    else:
        n = config.chain_n
    lam, eps = config.lam, config.epsilon
    have_bound = n is not None and lam is not None and eps is not None
    a, b = ascending
    c, e = descending
    for p in (a, b, c, e):
        space.validate_point(p)
    d = space.distance
    rows: list[BoundRow] = []
    observed = d(a, c) + d(b, e)
    for m in range(horizon + 1):
        bound = decay_bound(n, lam, eps, m) if have_bound else math.nan
        rows.append(BoundRow(m, observed, bound))
        if m == horizon:
            break
        try:
            a, b = cmap.apply(a, b), cmap.apply(b, a)
            c, e = cmap.apply(c, e), cmap.apply(e, c)
        except EscapeError:
            observed = math.inf
            continue
        observed = d(a, c) + d(b, e)
    all_below = None
    if have_bound:
        all_below = below_bound(rows)
    return DecayReport(
        tuple(rows), all_below, rows[-1].observed, n, tuple(uncertified)
    )


@dataclass(frozen=True)
class UniquenessVerdict:
    verdict: str  # "same" | "distinct" | "inconclusive"
    case: str  # "directly-comparable" | "via-witness" | "no-witness"
    eta: float
    details: dict = field(default_factory=dict)


def uniqueness_probe(
    cmap: CoupledMap,
    pair1: tuple[Point, Point],
    pair2: tuple[Point, Point],
    witness: Optional[tuple[Point, Point]] = None,
    *,
    config: SolveConfig | None = None,
    horizon: int = 50,
) -> UniquenessVerdict:
    """Decide whether two coupled fixed pairs are the same point of the space.

    Directly product-comparable pairs are compared outright. Otherwise a
    product point comparable to both is iterated; if its orbit lands on both
    pairs they coincide. Both inputs must actually be fixed pairs up to the
    configured residual tolerance.
    """
    cfg = config or SolveConfig()
    space = cmap.space
    tol = cfg.residual_tolerance
    for pair in (pair1, pair2):
        r = residual(cmap, *pair)
        if r > tol:
            raise DomainError(
                f"pair {pair!r} is not fixed: residual {r!r} exceeds {tol!r}"
            )
    eta = product_eta(space, pair1, pair2)
    if product_comparable(space, pair1, pair2):
        verdict = "same" if eta <= 2.0 * tol else "distinct"
        return UniquenessVerdict(verdict, "directly-comparable", eta)
    if witness is None:
        return UniquenessVerdict(
            "inconclusive", "no-witness", eta,
            {"reason": "pairs are incomparable and no linking witness was given"},
        )
    w1, w2 = witness
    space.validate_point(w1)
    space.validate_point(w2)
    if not (
        product_comparable(space, witness, pair1)
        and product_comparable(space, witness, pair2)
    ):
        raise DomainError(
            "witness pair must be product-comparable to both fixed pairs"
        )
    a, b = w1, w2
    e1 = product_eta(space, (a, b), pair1)
    e2 = product_eta(space, (a, b), pair2)
    for _ in range(horizon):
        if e1 <= tol and e2 <= tol:
            break
        a, b = cmap.apply(a, b), cmap.apply(b, a)
        e1 = product_eta(space, (a, b), pair1)
        e2 = product_eta(space, (a, b), pair2)
    details = {"witness_eta_to_pair1": e1, "witness_eta_to_pair2": e2}
    if (e1 <= tol and e2 <= tol) or eta <= 2.0 * tol:
        return UniquenessVerdict("same", "via-witness", eta, details)
    return UniquenessVerdict("distinct", "via-witness", eta, details)


@dataclass(frozen=True)
class CollapseVerdict:
    verdict: str  # "holds" | "violated" | "not-applicable"
    gap: float
    tolerance: float
    mode: str  # "comparable-seeds" | "pair-bounds"


def collapse_check(
    result: SolveResult,
    space,
    *,
    x0: Point,
    y0: Point,
    pair_bounds: bool,
    residual_tolerance: float,
) -> CollapseVerdict:
    """Check that a converged pair collapsed to the diagonal (x = y).

    Applicable when the seeds are comparable (mode "comparable-seeds"), or
    otherwise when every two points of the space have a common upper or
    lower bound (mode "pair-bounds"). The gap allowance is twice the
    residual tolerance: each component sits within tolerance of the limit,
    so the pair is within 2 * tolerance of the diagonal.
    """
    comparable = space.leq(x0, y0) or space.leq(y0, x0)
    mode = "comparable-seeds" if comparable else "pair-bounds"
    applicable = comparable or pair_bounds
    tol = 2.0 * residual_tolerance
    if not result.converged or not applicable:
        return CollapseVerdict("not-applicable", result.gap, tol, mode)
    verdict = "holds" if result.gap <= tol else "violated"
    return CollapseVerdict(verdict, result.gap, tol, mode)
