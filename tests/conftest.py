from fractions import Fraction

import pytest

from svmpath.construct import StretchFactor, admissible_constructions, build_instance
from svmpath.goldfarb import GoldfarbParams

DEFAULT_STRETCH = StretchFactor(20000)


def default_params(dim: int) -> GoldfarbParams:
    return GoldfarbParams(dim, Fraction(1, 3), Fraction(1, 16))


def spread(items) -> list:
    """First, middle and last item, so the Fraction-oracle cross-checks stay cheap at d = 7."""
    items = list(items)
    return [items[0], items[len(items) // 2], items[-1]]


@pytest.fixture(scope="session")
def params4():
    return default_params(4)


@pytest.fixture(scope="session")
def constructions4(params4):
    return admissible_constructions(params4, DEFAULT_STRETCH)


@pytest.fixture(scope="session")
def instance4(params4):
    return build_instance(params4, DEFAULT_STRETCH)


@pytest.fixture(scope="session")
def instance3():
    return build_instance(default_params(3), DEFAULT_STRETCH)
