"""Shared fixtures: bundled synthetic corpus, fixture paths, hypothesis profile."""

import gc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from kwboost.fixtures import FixtureSet, make_fixtures

settings.register_profile(
    "suite",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> FixtureSet:
    """The bundled 5-utterance corpus, generated once per session."""
    out = tmp_path_factory.mktemp("corpus")
    return make_fixtures(DATA_DIR / "corpus_spec.jsonl", out, seed=7)


@pytest.fixture(scope="session")
def demo_keywords() -> Path:
    return DATA_DIR / "keywords_demo.txt"


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_on(request):
    """The cyclic collector switched on or off for the test, then restored."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_on else gc.disable)()
