import pytest
from hypothesis import HealthCheck, settings

from tamedac import ModelParams

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

