"""The package's plain result records: immutable named tuples.

Reports, chains, instances and parameters carry no validation of their own,
so they are ``typing.NamedTuple`` classes. This pins what their callers rely
on: no attribute can be assigned, ``repr`` reads ``Name(field=value, ...)``
in field order, ``_replace`` gives a changed copy, and a defaulted
``details`` mapping is read-only, so no two records share a mutable dict.
"""

import pytest

from chainfix.hypotheses import (
    Chain,
    ContractivityReport,
    HypothesisReport,
    find_epsilon_chain,
)
from chainfix.instances import Instance, Parameters, load_instance
from chainfix.oracle import OracleReport, oracle_report
from chainfix.pipeline import build_config, run_hypothesis_suite
from chainfix.solver import (
    CollapseVerdict,
    DecayReport,
    SolveResult,
    collapse_check,
    picard_solve,
    verify_decay_bound,
)


@pytest.fixture(scope="module")
def records(chain4_path):
    """One record of each of the nine types, built the way callers build them."""
    inst = load_instance(chain4_path)
    suite = run_hypothesis_suite(inst)
    cfg = build_config(inst, suite)
    res = picard_solve(inst.cmap, inst.x0, inst.y0, cfg)
    return [
        suite["epsilon-chainable"],
        suite["uniform-local-contraction"],
        find_epsilon_chain(inst.space, 0, 3, inst.params.epsilon),
        inst.params,
        inst,
        oracle_report(inst.cmap, inst.params.epsilon),
        res,
        verify_decay_bound(inst.cmap, (0, 3), cfg, horizon=3),
        collapse_check(res, inst.space, x0=inst.x0, y0=inst.y0,
                       pair_bounds=True, residual_tolerance=1e-10),
    ]


def test_one_record_of_each_type(records):
    assert [type(r) for r in records] == [
        HypothesisReport, ContractivityReport, Chain,
        Parameters, Instance, OracleReport, SolveResult, DecayReport,
        CollapseVerdict,
    ]


def test_no_attribute_can_be_assigned(records):
    for r in records:
        first = r._fields[0]
        with pytest.raises(AttributeError):
            setattr(r, first, getattr(r, first))
        with pytest.raises(AttributeError):
            r.note = "added later"


def test_repr_lists_every_field_in_order(records):
    for r in records:
        fields = ", ".join(f"{k}={getattr(r, k)!r}" for k in r._fields)
        assert repr(r) == f"{type(r).__name__}({fields})"
    assert repr(records[8]) == (
        "CollapseVerdict(verdict='holds', gap=0, tolerance=2e-10, "
        "mode='comparable-seeds')"
    )


def test_replace_gives_a_changed_copy(records):
    params = records[3]
    low = params._replace(lambda_claimed=0.5)
    assert low.lambda_claimed == 0.5
    assert params.lambda_claimed is None
    assert low._replace(lambda_claimed=None) == params


def test_default_details_are_read_only():
    a = HypothesisReport("seed-condition", "holds")
    b = HypothesisReport("seed-condition", "holds")
    assert a.details == b.details == {}
    with pytest.raises(TypeError):
        a.details["reason"] = "written through the default"
    assert b.details == {}
