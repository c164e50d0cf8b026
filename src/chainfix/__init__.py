"""Coupled fixed points of mixed monotone maps on chainable ordered metric spaces.

The package splits into layers: ``spaces`` and ``mappings`` model the ground
objects, ``hypotheses`` checks the assumptions the theory needs (with
conclusive verdicts on finite spaces, from a box's shape for its space
hypotheses, and from its formula for a box map that it bounds; sampled
ones otherwise for a box map), ``solver``
runs the coupled iteration with a certified step-decay bound, ``oracle``
recomputes everything on finite instances through an independent vectorized
route, ``pipeline`` chains the checks into a solver configuration, and
``instances``/``cli`` handle the JSON schema and the command line.

Each submodule runs when something first reads from it, and each public name
is read from its submodule on access, so a CLI call runs only the modules its
command uses.
"""

from . import _lazy

for _module in ("affine", "cli", "errors", "expressions", "hypotheses", "instances",
                "mappings", "oracle", "pipeline", "solver", "spaces"):
    _lazy._lazy(f"{__name__}.{_module}")
del _module

# public name -> the submodule that defines it, read on first access
_SOURCE = {
    **dict.fromkeys(("ChainfixError", "DomainError", "EscapeError", "GrammarError",
                     "InvalidInstanceError", "SamplingError"), "errors"),
    **dict.fromkeys(("HOLDS", "SAMPLED", "VIOLATED", "Chain", "ContractivityReport",
                     "HypothesisReport", "check_common_comparable",
                     "check_epsilon_chainable", "check_mixed_monotone",
                     "check_pair_bounds", "check_seed", "estimate_contraction",
                     "find_epsilon_chain", "sample_points"), "hypotheses"),
    **dict.fromkeys(("Instance", "Parameters", "dump_instance",
                     "generate_finite_instance", "instance_document", "load_instance",
                     "parse_instance"), "instances"),
    **dict.fromkeys(("CoupledMap", "ExpressionMap", "TableMap", "expression_map"),
                    "mappings"),
    **dict.fromkeys(("OracleReport", "all_coupled_fixed_points",
                     "exhaustive_contraction_check", "min_chain_table",
                     "oracle_report"), "oracle"),
    **dict.fromkeys(("build_config", "run_hypothesis_suite", "uncertified"),
                    "pipeline"),
    **dict.fromkeys(("BoundRow", "CollapseVerdict", "DecayReport", "SolveConfig",
                     "SolveResult", "TraceRow", "collapse_check", "decay_bound",
                     "picard_solve", "verify_decay_bound"), "solver"),
    **dict.fromkeys(("BoxSpace", "FiniteSpace"), "spaces"),
}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    # not cached on the package, so a name always reads its module's binding
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
