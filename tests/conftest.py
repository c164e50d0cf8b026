import pathlib

import pytest

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

# filled by the acceptance tests, echoed after the run so the verdict per
# criterion survives output capturing
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# a formula of each depth: "x" after N "+0", or after N minus signs, has
# depth N + 1, each "-min(" adds two levels, and "x/(...)" one level above
# its constant denominator
@pytest.fixture(params=[
    lambda depth: "x" + "+0" * (depth - 1),
    lambda depth: "-" * (depth - 1) + "x",
    lambda depth: "-" * ((depth - 1) % 2) + "-min(" * ((depth - 1) // 2) + "x"
    + ", y)" * ((depth - 1) // 2),
    lambda depth: "x/(1" + "+0" * (depth - 2) + ")",
], ids=["sum", "unary-minus", "nested-min", "denominator"])
def nested_formula(request):
    """A 1-D formula in x and y of the depth it is called with."""
    return request.param


@pytest.fixture(scope="session")
def instance_dir() -> pathlib.Path:
    return INSTANCES


@pytest.fixture(scope="session")
def l1_path() -> str:
    return str(INSTANCES / "l1.json")


@pytest.fixture(scope="session")
def l2d_path() -> str:
    return str(INSTANCES / "l2d.json")


@pytest.fixture(scope="session")
def f1_path() -> str:
    return str(INSTANCES / "f1.json")


@pytest.fixture(scope="session")
def chain4_path() -> str:
    return str(INSTANCES / "chain4.json")


@pytest.fixture(scope="session")
def antichain2_path() -> str:
    return str(INSTANCES / "antichain2.json")
