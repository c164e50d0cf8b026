"""The package's public surface: ``chainfix.__all__``.

The list is pinned name by name, so adding or deleting a public name is a
visible API change here rather than a silent one.
"""

import types

import chainfix
from chainfix.spaces import BoxSpace, FiniteSpace

PUBLIC = {
    # errors
    "ChainfixError", "DomainError", "EscapeError", "GrammarError",
    "InvalidInstanceError", "SamplingError",
    # spaces and maps
    "BoxSpace", "FiniteSpace", "CoupledMap", "ExpressionMap", "TableMap",
    "expression_map",
    # hypotheses
    "HOLDS", "SAMPLED", "VIOLATED", "Chain", "ContractivityReport",
    "HypothesisReport", "SamplingPlan", "check_common_comparable",
    "check_epsilon_chainable", "check_mixed_monotone", "check_pair_bounds",
    "check_seed", "estimate_contraction", "find_epsilon_chain", "sample_points",
    # instances
    "Instance", "Parameters", "dump_instance", "generate_finite_instance",
    "instance_document", "load_instance", "parse_instance",
    # oracle
    "OracleReport", "all_coupled_fixed_points", "exhaustive_contraction_check",
    "min_chain_table", "oracle_report",
    # pipeline
    "build_config", "run_hypothesis_suite", "uncertified",
    # solver
    "BoundRow", "CollapseVerdict", "DecayReport", "SolveConfig", "SolveResult",
    "TraceRow", "collapse_check", "decay_bound", "picard_solve",
    "verify_decay_bound",
}


def test_every_public_name_resolves_once():
    assert len(set(chainfix.__all__)) == len(chainfix.__all__)
    for name in chainfix.__all__:
        assert getattr(chainfix, name) is not None


def test_public_names_are_exactly_the_pinned_ones():
    assert set(chainfix.__all__) == PUBLIC
    exported = {
        name for name, value in vars(chainfix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_membership_is_asked_of_boxes_only():
    # ExpressionMap.apply asks a box whether an image lies inside it; a
    # finite point is checked by validate_point alone
    assert hasattr(BoxSpace, "contains")
    assert not hasattr(FiniteSpace, "contains")
