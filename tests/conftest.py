import pathlib

import numpy as np
import pytest

# every test draws its samples from the oracle module's helpers
from missmass.verify import proportional_observation, random_observation  # noqa: F401

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)
