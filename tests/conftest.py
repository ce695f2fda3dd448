from fractions import Fraction

import pytest

from svmpath.construct import StretchFactor, admissible_constructions, build_instance
from svmpath.goldfarb import GoldfarbParams

DEFAULT_STRETCH = StretchFactor(20000)

# the paper's (eps, gamma) and the benchmark's other eight (perfbench/run.py PAIRS)
REFERENCE_PARAMS = tuple(
    (Fraction(eps), Fraction(gamma))
    for eps, gamma in (
        ("1/3", "1/16"), ("3/8", "1/16"), ("1/3", "1/15"), ("1/3", "1/14"), ("5/16", "1/16"),
        ("3/8", "1/15"), ("2/5", "1/16"), ("2/5", "1/15"), ("5/14", "1/16"),
    )
)


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
