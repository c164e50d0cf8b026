"""The package's public surface: ``chainfix.__all__``.

The list is pinned name by name, so adding or deleting a public name is a
visible API change here rather than a silent one.
"""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

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
    "HypothesisReport", "check_common_comparable",
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


def _exported():
    # public names are read from their submodules on access (PEP 562), so
    # they are listed by dir(), not held in vars()
    return {
        name for name in dir(chainfix)
        if not name.startswith("_")
        and not isinstance(getattr(chainfix, name), types.ModuleType)
    }


def test_public_names_are_exactly_the_pinned_ones():
    assert set(chainfix.__all__) == PUBLIC
    assert _exported() == PUBLIC
    for name in chainfix.__all__:
        getattr(chainfix, name)
    assert _exported() == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        chainfix.no_such_name
    assert not hasattr(chainfix, "solve")


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from chainfix import *", scope)
    assert set(scope) - {"__builtins__"} == PUBLIC
    assert scope["picard_solve"] is sys.modules["chainfix.solver"].picard_solve


PATCH_PROBE = """
import os, sys, types
sys.path.insert(0, sys.argv[1])
import layers
import chainfix, chainfix.cli
names = {m for m, _ in layers.SPANS.values()}
names |= {t[0] for ts in layers.COUNTERS.values() for t in ts}
print({m: m in sys.modules and (
    "ran" if type(sys.modules[m]) is types.ModuleType else "lazy") for m in names})
rec = layers.Recorder()
rec.install_spans()
chainfix.cli.run_cli(["solve", sys.argv[2], "--json", os.devnull])
print(sorted(rec.self_s))
"""


def test_benchmark_patches_modules_that_have_not_run(l1_path):
    # perfbench/layers.py finds each module it wraps through sys.modules:
    # importing the package and the CLI registers every one of them and runs
    # none but the CLI itself (type() is the lazy subclass until first
    # access), and the wrappers installed then time a later call
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", PATCH_PROBE, str(root / "perfbench"), l1_path],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    states, spans = map(ast.literal_eval, proc.stdout.splitlines())
    assert {"chainfix.cli", "chainfix.hypotheses", "chainfix.solver",
            "chainfix.oracle", "chainfix.expressions"} <= set(states)
    assert states == {m: "ran" if m == "chainfix.cli" else "lazy" for m in states}
    assert {"cli.solve", "instances.parse", "hypotheses.contraction",
            "solver.picard"} <= set(spans)


def test_membership_is_asked_of_boxes_only():
    # ExpressionMap.apply asks a box whether an image lies inside it; a
    # finite point is checked by validate_point alone
    assert hasattr(BoxSpace, "contains")
    assert not hasattr(FiniteSpace, "contains")


def test_errors_share_one_shape():
    # ``field`` and ``witness`` are keywords of the base class alone; an
    # error that always blames one key names it as a class attribute
    base = chainfix.ChainfixError
    errors = [getattr(chainfix, name) for name in sorted(PUBLIC)
              if name.endswith("Error")]
    assert all(issubclass(cls, base) for cls in errors)
    assert [cls for cls in errors if "__init__" in vars(cls)] == [base]
    for cls in errors:
        exc = cls("message", field="key", witness=(0, 1))
        assert (str(exc), exc.field, exc.witness) == ("message", "key", (0, 1))
    defaults = {cls.__name__: (cls("m").field, cls("m").witness) for cls in errors}
    assert defaults == {
        "ChainfixError": (None, None), "DomainError": (None, None),
        "EscapeError": ("map.formula", None), "GrammarError": ("formula", None),
        "InvalidInstanceError": (None, None), "SamplingError": (None, None),
    }
