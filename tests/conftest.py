import time

import pytest
import strategies

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(session, config, items):
    # Acceptance criteria run last so the runtime criterion sees the whole session.
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


def session_elapsed() -> float:
    return time.perf_counter() - SESSION_START


@pytest.fixture(scope="session")
def uncertified_models():
    """All five catalog models, built without certification."""
    return {name: model for name, (_, model) in strategies.catalog_models(False).items()}


@pytest.fixture(scope="session")
def catalog_models():
    """All five catalog models, certified once at budget 10^4, seed 0."""
    return strategies.catalog_models(True)
