"""The decay bound's certification policy, `pipeline.uncertified`."""

from unittest import mock

import pytest

from chainfix import hypotheses
from chainfix.hypotheses import HOLDS
from chainfix.instances import generate_finite_instance, load_instance
from chainfix.pipeline import build_config, run_hypothesis_suite, uncertified


def certified_reference(inst, suite) -> bool:
    # the conjunction build_config evaluated before the policy had a name,
    # where a conclusive contraction report was an exhaustive one; one read
    # from an affine map's coefficients (mode "exact") is conclusive too
    c = suite["uniform-local-contraction"]
    lam = inst.params.lambda_claimed
    if lam is None and not c.violated and c.lambda_hat is not None:
        lam = c.lambda_hat if c.lambda_hat > 0.0 else 0.5
    return (
        not c.violated
        and c.mode in ("exhaustive", "exact")
        and not c.vacuous
        and lam is not None
        and c.lambda_hat is not None
        and lam >= c.lambda_hat
        and suite["mixed-monotone"].verdict == HOLDS
        and suite["seed-condition"].verdict == HOLDS
        and suite["epsilon-chainable"].verdict == HOLDS
    )


def test_empty_exactly_when_the_old_conjunction_holds(instance_dir):
    instances = [generate_finite_instance(seed, 2 + seed % 15) for seed in range(105)]
    instances += [load_instance(p) for p in sorted(instance_dir.glob("*.json"))]
    empty = 0
    for inst in instances:
        suite = run_hypothesis_suite(inst)
        reasons = uncertified(inst, suite)
        assert (reasons == ()) == certified_reference(inst, suite)
        assert reasons or build_config(inst, suite).can_bound
        empty += reasons == ()
    assert 10 < empty < len(instances)


@pytest.mark.parametrize("name, expected", [
    ("chain4", ()),
    ("antichain2", ("uniform-local-contraction",)),  # vacuous scan
    ("f1", ("uniform-local-contraction",)),  # violated
    # affine: both map hypotheses hold from the coefficients, and
    # chainability from the box
    ("l1", ()),
    ("l2d", ()),
])
def test_shipped_instances(instance_dir, name, expected):
    inst = load_instance(instance_dir / f"{name}.json")
    assert uncertified(inst, run_hypothesis_suite(inst)) == expected


def test_claimed_factor_below_the_measured_one(chain4_path):
    inst = load_instance(chain4_path)  # measures lambda_hat 2/3
    low = inst._replace(params=inst.params._replace(lambda_claimed=0.5))
    suite = run_hypothesis_suite(low)
    assert suite["uniform-local-contraction"].verdict == HOLDS
    assert uncertified(low, suite) == ("uniform-local-contraction",)


def test_failed_seed_condition(chain4_path):
    inst = load_instance(chain4_path)
    swapped = inst._replace(x0=inst.y0, y0=inst.x0)
    assert uncertified(swapped, run_hypothesis_suite(swapped)) == ("seed-condition",)


def test_unproven_chainability():
    # the generator's seed 3 leaves a comparable pair without an epsilon-chain
    inst = generate_finite_instance(3, 5)
    suite = run_hypothesis_suite(inst)
    assert suite["epsilon-chainable"].verdict != HOLDS
    assert uncertified(inst, suite) == ("epsilon-chainable",)


@pytest.mark.parametrize("name", ["l1", "l2d"])
def test_box_space_hypotheses_are_exact(instance_dir, name):
    # pair bounds, common comparability and chainability are read off the
    # box's shape, with no sample drawn
    inst = load_instance(instance_dir / f"{name}.json")
    with mock.patch.object(hypotheses, "sample_points",
                           side_effect=AssertionError):
        suite = run_hypothesis_suite(inst)
    for hypothesis in ("common-comparable", "pair-bounds", "epsilon-chainable"):
        report = suite[hypothesis]
        assert (report.verdict, report.details["mode"]) == (HOLDS, "exact")
        assert report.sample_size is None
