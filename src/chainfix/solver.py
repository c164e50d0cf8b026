"""Coupled Picard iteration with certified decay bounds.

The solver advances the pair (x, y) by x <- F(x, y), y <- F(y, x)
simultaneously and stops when the coupled residual

    d(x, F(x, y)) + d(y, F(y, x))

drops to the configured tolerance. When the instance's hypotheses are
certified (chain structure with maximal length n, contraction factor lam,
locality epsilon), successive iterates of a seed-condition start obey

    step_m <= 2 * n * lam**m * epsilon

and the solver records that bound next to the observed step so a violation
is visible in the trace. Whether the bound is certified is
``pipeline.uncertified``'s decision, and the solver never sees it; an
uncertified bound is advisory (a grid cannot prove the hypotheses on a
continuum), so the numbers are reported but a breach is not an error.

``picard_solve`` and ``verify_decay_bound`` read one orbit, ``_orbit``.
It validates the seeds once. Every later point is an image of the map, which
is a point of the space by construction (an expression map still tests each
image against the box and raises ``EscapeError`` outside it), so the orbit
steps with the maps' unchecked ``_apply`` and measures with the spaces'
unchecked ``_distance``: the same arithmetic in the same term order as the
public ``apply`` and ``distance``, so every value is bitwise what they give.
The decay lemma's second stream, launched at F(x0, y0), is that orbit one
step ahead, so its gap is the residual and it is never stepped on its own.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import DomainError, EscapeError, Frozen
from .hypotheses import Chain
from .mappings import CoupledMap
from .spaces import Point, is_finite_number

CONVERGED = "converged"
EXHAUSTED = "max-iterations-exhausted"
DIVERGED = "diverged-from-box"


def _check_factors(lam, epsilon, chain_n) -> None:
    """Refuse a decay-bound factor outside its domain; None (not known) passes."""
    if lam is not None and not 0.0 < lam < 1.0:
        raise DomainError(f"lam must lie in (0, 1), got {lam!r}")
    if epsilon is not None and not (is_finite_number(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon!r}")
    # a bool is no int
    if chain_n is not None and (type(chain_n) is not int or chain_n < 1):
        raise DomainError(f"chain_n must be an integer of at least 1, got {chain_n!r}")


class SolveConfig(Frozen):
    """Settings of ``picard_solve`` and ``verify_decay_bound``: a finite
    positive residual tolerance, an integer iteration cap of at least 1 (a
    cap the iteration count never equals would leave an orbit that does not
    converge unbounded), and the decay bound's factors, when known: a finite
    positive epsilon and an integer chain length of at least 1 (an infinite
    epsilon bounds every step by inf, a certificate that says nothing)."""

    _fields = ("residual_tolerance", "max_iterations", "lam", "epsilon", "chain_n")

    def __init__(self, residual_tolerance: float = 1e-10, max_iterations: int = 200,
                 lam: float | None = None, epsilon: float | None = None,
                 chain_n: int | None = None) -> None:
        if not (is_finite_number(residual_tolerance) and residual_tolerance > 0):
            raise DomainError("residual_tolerance must be a finite positive number, "
                              f"got {residual_tolerance!r}")
        if type(max_iterations) is not int or max_iterations < 1:  # a bool is no int
            raise DomainError("max_iterations must be an integer of at least 1, "
                              f"got {max_iterations!r}")
        _check_factors(lam, epsilon, chain_n)
        vars(self).update(residual_tolerance=residual_tolerance,
                          max_iterations=max_iterations, lam=lam, epsilon=epsilon,
                          chain_n=chain_n)

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


class SolveResult(NamedTuple):
    status: str
    x: Point
    y: Point
    iterations_used: int
    residual: float
    gap: float  # d(x, y) at the final iterate
    trace: tuple[TraceRow, ...] = ()
    bound_check: tuple[BoundRow, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def fixed_pair(self) -> tuple[Point, Point]:
        if not self.converged:
            raise DomainError(f"no fixed pair: solver status is {self.status!r}")
        return (self.x, self.y)


def decay_bound(chain_n: int, lam: float, epsilon: float, m: int) -> float:
    """Certified ceiling 2 * n * lam**m * epsilon on the m-th iteration step,
    for the factors ``SolveConfig`` accepts."""
    _check_factors(lam, epsilon, chain_n)
    if m < 0:
        raise DomainError(f"iteration index must be nonnegative, got {m!r}")
    return 2.0 * chain_n * lam**m * epsilon


def below_bound(rows) -> bool:
    """The lemma's strict ceiling: every observed step lies below its bound.

    A step of exactly 0 always does: the exact bound is positive for every
    m, even where its float has underflowed to 0.0.
    """
    return all(row.observed < row.bound or row.observed == 0 for row in rows)


def _orbit(cmap: CoupledMap, x0: Point, y0: Point):
    """Yield (m, x_m, y_m, r_m), r_m = d(x_m, x_{m+1}) + d(y_m, y_{m+1}),
    along the coupled orbit of (x0, y0); it ends at the first m whose image
    F(x_m, y_m) leaves the box, with r_m None, and otherwise never."""
    space = cmap.space
    space.validate_point(x0)
    space.validate_point(y0)
    step, d = cmap._apply, space._distance
    x, y = x0, y0
    for m in itertools.count():
        try:
            fx, fy = step(x, y), step(y, x)
        except EscapeError:
            yield m, x, y, None
            return
        yield m, x, y, d(x, fx) + d(y, fy)
        x, y = fx, fy


def picard_solve(
    cmap: CoupledMap, x0: Point, y0: Point, config: SolveConfig | None = None
) -> SolveResult:
    """Iterate the coupled map from (x0, y0) until the residual is tolerable.

    The m-th trace row holds the iterate, its residual, and the pair-metric
    step taken to reach it; the residual at iterate m equals the step from
    m to m+1, which is what makes the recorded decay bound comparable. When
    F(x_m, y_m) leaves the box the status is ``diverged-from-box`` and the
    residual of row m is inf, since the step out of the box has no length.
    """
    cfg = config or SolveConfig()
    trace: list[TraceRow] = []
    bounds: list[BoundRow] = []
    prev_step = None
    status = EXHAUSTED
    for m, x, y, r in _orbit(cmap, x0, y0):
        if r is None:
            status, r = DIVERGED, math.inf
        else:
            if cfg.can_bound:
                bounds.append(
                    BoundRow(m, r, decay_bound(cfg.chain_n, cfg.lam, cfg.epsilon, m))
                )
            if r <= cfg.residual_tolerance:
                status = CONVERGED
        trace.append(TraceRow(m, x, y, r, prev_step))
        if status != EXHAUSTED or m == cfg.max_iterations:
            break
        prev_step = r
    gap = cmap.space._distance(x, y)
    return SolveResult(status, x, y, m, r, gap, tuple(trace), tuple(bounds))


class DecayReport(NamedTuple):
    rows: tuple[BoundRow, ...]
    all_below_bound: bool | None  # None when no bound was available
    final_observed: float
    chain_n: int | None
    escaped_at: int | None = None  # first step whose iterates leave the box


def verify_decay_bound(
    cmap: CoupledMap,
    seeds: tuple[Point, Point],
    config: SolveConfig,
    horizon: int = 50,
    *,
    chain_up: Chain | None = None,
    chain_down: Chain | None = None,
) -> DecayReport:
    """Track the gap between the lemma's two iterate streams against the bound.

    The lemma launches one stream at the seeds (x0, y0) and one at their
    image F(x0, y0), which is the first stream a step ahead, so the observed
    gap at step m is the orbit's residual. The report only tracks the numbers;
    whether the bound is certified is ``pipeline.uncertified``'s decision.
    The chain length is the longer of the two chains when either is given,
    else ``config.chain_n``. If F(x_m, y_m) leaves the box, the rows stop at
    m - 1, ``escaped_at`` is m, and ``all_below_bound`` judges the rows
    before the escape; when the seeds' own image leaves the box there is no
    second stream, and ``EscapeError`` is raised.
    """
    if not isinstance(horizon, int) or horizon < 0:
        raise DomainError(f"horizon must be a nonnegative integer, got {horizon!r}")
    chains = [c.n for c in (chain_up, chain_down) if c is not None]
    n = max(*chains, 1) if chains else config.chain_n
    lam, eps = config.lam, config.epsilon
    have_bound = n is not None and lam is not None and eps is not None
    rows: list[BoundRow] = []
    escaped_at = None
    for m, _, _, observed in _orbit(cmap, *seeds):
        if observed is None:
            if not m:
                raise EscapeError("the seeds' image leaves the box", witness=seeds)
            escaped_at = m
            break
        bound = decay_bound(n, lam, eps, m) if have_bound else math.nan
        rows.append(BoundRow(m, observed, bound))
        if m == horizon:
            break
    all_below = below_bound(rows) if have_bound else None
    return DecayReport(tuple(rows), all_below, rows[-1].observed, n, escaped_at)


class CollapseVerdict(NamedTuple):
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
    so the pair is within 2 * tolerance of the diagonal. ``x0`` and ``y0``
    are the seeds ``result`` was iterated from, which ``picard_solve`` has
    validated, so they are compared without validating them again.
    """
    comparable = space._leq(x0, y0) or space._leq(y0, x0)
    mode = "comparable-seeds" if comparable else "pair-bounds"
    applicable = comparable or pair_bounds
    tol = 2.0 * residual_tolerance
    if not result.converged or not applicable:
        return CollapseVerdict("not-applicable", result.gap, tol, mode)
    verdict = "holds" if result.gap <= tol else "violated"
    return CollapseVerdict(verdict, result.gap, tol, mode)
