"""The library pipeline: run the six hypothesis checks, then configure the solver.

On a box, only the two map checks read a sample, the document's grid (if
it sets ``grid_step``) plus 8 seeded uniform draws, and only where the map's
formula proves nothing; chainability, pair bounds and common comparability
are decided on the whole box from its shape, with no sample. On a finite
space every check enumerates the whole space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .hypotheses import (
    HOLDS,
    check_common_comparable,
    check_epsilon_chainable,
    check_mixed_monotone,
    check_pair_bounds,
    check_seed,
    estimate_contraction,
)
from .instances import Instance

if TYPE_CHECKING:
    from .solver import SolveConfig

SUITE_ORDER = (
    "mixed-monotone",
    "uniform-local-contraction",
    "epsilon-chainable",
    "seed-condition",
    "common-comparable",
    "pair-bounds",
)


def run_hypothesis_suite(inst: Instance) -> dict:
    """All six hypothesis reports, keyed by hypothesis name."""
    cmap, eps, step = inst.cmap, inst.params.epsilon, inst.grid_step
    return {
        "mixed-monotone": check_mixed_monotone(cmap, step),
        "uniform-local-contraction": estimate_contraction(cmap, eps, step),
        "epsilon-chainable": check_epsilon_chainable(inst.space, eps),
        "seed-condition": check_seed(cmap, inst.x0, inst.y0),
        "common-comparable": check_common_comparable(inst.space),
        "pair-bounds": check_pair_bounds(inst.space),
    }


def _factor(inst: Instance, c) -> float | None:
    # the claimed factor, else the measured supremum; a constant map measures
    # 0, which the open interval excludes, so 0.5 stands in
    lam = inst.params.lambda_claimed
    if lam is None and not c.violated and c.lambda_hat is not None:
        lam = c.lambda_hat if c.lambda_hat > 0.0 else 0.5
    return lam


def uncertified(inst: Instance, suite: dict) -> tuple[str, ...]:
    """The decay bound's hypotheses that are not proven, by suite name.

    The bound 2·n·λ^m·ε leans on the first four hypotheses of
    ``SUITE_ORDER``; each is listed unless its verdict is ``holds``.
    Contraction is listed too when its scan was vacuous or the factor is
    below the measured ``lambda_hat``. An empty tuple means certified.
    """
    proven = {name: suite[name].verdict == HOLDS for name in SUITE_ORDER[:4]}
    c = suite["uniform-local-contraction"]
    proven["uniform-local-contraction"] = (
        c.verdict == HOLDS and not c.vacuous and _factor(inst, c) >= c.lambda_hat
    )
    return tuple(name for name, ok in proven.items() if not ok)


def build_config(inst: Instance, suite: dict) -> SolveConfig:
    """Solve configuration from the instance parameters and the suite's
    factors; whether they certify the bound is ``uncertified``'s answer."""
    # the solver runs only for a command that configures it, not for ``check``
    from .solver import SolveConfig

    chainable = suite["epsilon-chainable"]
    chain_n = None
    if chainable.passed:
        chain_n = max(chainable.details["max_n"], 1)
    return SolveConfig(
        residual_tolerance=inst.params.tolerance,
        max_iterations=inst.params.max_iterations,
        lam=_factor(inst, suite["uniform-local-contraction"]),
        epsilon=inst.params.epsilon,
        chain_n=chain_n,
    )
