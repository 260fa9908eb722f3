import pytest
from hypothesis import HealthCheck, settings

from tamedac import ModelParams
from tamedac.model import _shared_segments

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def double_well() -> ModelParams:
    return ModelParams.cubic_double_well()


@pytest.fixture(autouse=True)
def fresh_workspaces():
    """Start every test with an empty drift-workspace memo, so what a test
    measures with tracemalloc does not depend on which test ran before it."""
    _shared_segments.cache_clear()
