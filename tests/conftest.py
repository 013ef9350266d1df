import pytest

import support


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true",
                     help="also run the tests marked slow (larger differential runs)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: give --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def small_random_pool():
    return support.random_pool(60)


@pytest.fixture(scope="session")
def nested_instances():
    return support.nested_pool()


@pytest.fixture(scope="session")
def mixed_instances():
    return support.mixed_pool()


@pytest.fixture(scope="session")
def separated_instances():
    return support.separated_grid()


@pytest.fixture(scope="session")
def recharge_instances():
    return support.recharge_pool()
