"""Coupled fixed points of mixed monotone maps on chainable ordered metric spaces.

The package splits into layers: ``spaces`` and ``mappings`` model the ground
objects, ``hypotheses`` checks the assumptions the theory needs (with
conclusive verdicts on finite spaces and, from its coefficients, for an
affine box map; sampled ones otherwise on boxes), ``solver``
runs the coupled iteration with a certified step-decay bound, ``oracle``
recomputes everything on finite instances through an independent vectorized
route, ``pipeline`` chains the checks into a solver configuration, and
``instances``/``cli`` handle the JSON schema and the command line.
"""

from .errors import (
    ChainfixError,
    DomainError,
    EscapeError,
    GrammarError,
    InvalidInstanceError,
    SamplingError,
)
from .hypotheses import (
    HOLDS,
    SAMPLED,
    VIOLATED,
    Chain,
    ContractivityReport,
    HypothesisReport,
    SamplingPlan,
    check_common_comparable,
    check_epsilon_chainable,
    check_mixed_monotone,
    check_pair_bounds,
    check_seed,
    estimate_contraction,
    find_epsilon_chain,
    sample_points,
)
from .instances import (
    Instance,
    Parameters,
    dump_instance,
    generate_finite_instance,
    instance_document,
    load_instance,
    parse_instance,
)
from .mappings import (
    CoupledMap,
    ExpressionMap,
    IteratePair,
    TableMap,
    expression_map,
    iterate_m,
)
from .oracle import (
    OracleReport,
    all_coupled_fixed_points,
    exhaustive_contraction_check,
    min_chain_table,
    oracle_report,
)
from .pipeline import build_config, run_hypothesis_suite, uncertified
from .solver import (
    BoundRow,
    CollapseVerdict,
    DecayReport,
    SolveConfig,
    SolveResult,
    TraceRow,
    UniquenessVerdict,
    collapse_check,
    decay_bound,
    picard_solve,
    residual,
    uniqueness_probe,
    verify_decay_bound,
)
from .spaces import (
    BoxSpace,
    FiniteSpace,
    product_comparable,
    product_eta,
    product_leq,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRow",
    "BoxSpace",
    "Chain",
    "ChainfixError",
    "CollapseVerdict",
    "ContractivityReport",
    "CoupledMap",
    "DecayReport",
    "DomainError",
    "EscapeError",
    "ExpressionMap",
    "FiniteSpace",
    "GrammarError",
    "HOLDS",
    "HypothesisReport",
    "Instance",
    "InvalidInstanceError",
    "IteratePair",
    "OracleReport",
    "Parameters",
    "SAMPLED",
    "SamplingError",
    "SamplingPlan",
    "SolveConfig",
    "SolveResult",
    "TableMap",
    "TraceRow",
    "UniquenessVerdict",
    "VIOLATED",
    "all_coupled_fixed_points",
    "build_config",
    "check_common_comparable",
    "check_epsilon_chainable",
    "check_mixed_monotone",
    "check_pair_bounds",
    "check_seed",
    "collapse_check",
    "decay_bound",
    "dump_instance",
    "estimate_contraction",
    "exhaustive_contraction_check",
    "expression_map",
    "find_epsilon_chain",
    "generate_finite_instance",
    "instance_document",
    "iterate_m",
    "load_instance",
    "min_chain_table",
    "oracle_report",
    "parse_instance",
    "picard_solve",
    "product_comparable",
    "product_eta",
    "product_leq",
    "residual",
    "run_hypothesis_suite",
    "sample_points",
    "uncertified",
    "uniqueness_probe",
    "verify_decay_bound",
]
