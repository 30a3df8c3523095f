import pytest
from hypothesis import settings

import lqgcodesign as lq

import support

# the same examples on every run, so a tier-1 result never depends on luck
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def scalar_scenario() -> lq.Scenario:
    return support.scalar_two_sensor_scenario()


@pytest.fixture(scope="session")
def scalar_solution(scalar_scenario):
    return lq.solve_riccati(scalar_scenario.system, scalar_scenario.weights)


@pytest.fixture(scope="session")
def scalar_cache(scalar_scenario, scalar_solution):
    return lq.ObjectiveCache(scalar_scenario, scalar_solution)


@pytest.fixture(scope="session")
def one_sensor_scenario() -> lq.Scenario:
    return support.scalar_one_sensor_scenario()
