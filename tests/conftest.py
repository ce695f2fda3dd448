import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import svmpath
from svmpath import construct
from svmpath.construct import StretchFactor, admissible_constructions, build_instance
from svmpath.goldfarb import GoldfarbParams

DEFAULT_STRETCH = StretchFactor(20000)
SRC = Path(svmpath.__file__).resolve().parent.parent

# the paper's (eps, gamma) and the benchmark's other eight (perfbench/run.py PAIRS)
REFERENCE_PARAMS = tuple(
    (Fraction(eps), Fraction(gamma))
    for eps, gamma in (
        ("1/3", "1/16"), ("3/8", "1/16"), ("1/3", "1/15"), ("1/3", "1/14"), ("5/16", "1/16"),
        ("3/8", "1/15"), ("2/5", "1/16"), ("2/5", "1/15"), ("5/14", "1/16"),
    )
)


def fresh_python(*args, **env) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports the package from SRC."""
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True, text=True, timeout=60,
    )


def fresh_cli(*argv, loaded=()) -> subprocess.CompletedProcess:
    """`svmpath *argv` in a fresh interpreter, which then prints the names in `loaded` it imported."""
    code = (
        "import sys\n"
        "from svmpath.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print([name for name in {tuple(loaded)!r} if name in sys.modules])\n"
        "sys.exit(code)\n"
    )
    return fresh_python("-c", code, *argv)


def default_params(dim: int) -> GoldfarbParams:
    return GoldfarbParams(dim, Fraction(1, 3), Fraction(1, 16))


def candidate(params: GoldfarbParams, sigma: tuple, s: StretchFactor = DEFAULT_STRETCH) -> tuple:
    """(sigma, q_d, (A, den)): sigma's integer candidate, the arguments of `kkt.build_kkt_certificate`."""
    *_, g, Qd = construct._unstretched_pair(params, sigma)[0]
    return sigma, Fraction(Qd, g), construct._weights(params, sigma, s)


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
