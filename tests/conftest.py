import time

import pytest

import rayvex as rx
from rayvex import envelope as env

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(session, config, items):
    # Acceptance criteria run last so the runtime criterion sees the whole session.
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


def session_elapsed() -> float:
    return time.perf_counter() - SESSION_START


def _catalog(**build_args) -> dict:
    """name -> (entry, model) for the five catalog entries, each built at its default sense and anchor."""
    return {
        entry.name: (
            entry,
            env.build(
                entry.field, entry.default_polytope, sense=entry.build_sense, anchor=entry.default_anchor, **build_args
            ),
        )
        for entry in rx.catalog()
    }


@pytest.fixture(scope="session")
def uncertified_models():
    """All five catalog models, built without certification."""
    return {name: model for name, (_, model) in _catalog(run_certification=False).items()}


@pytest.fixture(scope="session")
def catalog_models():
    """All five catalog models, certified once at budget 10^4, seed 0."""
    return _catalog(budget=10_000, seed=0)
