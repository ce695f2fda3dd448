"""Worst-case SVM regularization-path instances in exact rational arithmetic.

Builds perturbed-cube SVM instances, stretched past a closed-form threshold,
whose solution path visits exponentially many distinct support-vector sets,
certifies every breakpoint with exact optimality conditions, and sweeps the
regularization parameter to count path bends experimentally.

The root re-exports only what is read from it outside the package; every
other name is imported from its module, so importing the root loads neither
the solver nor the sweep.
"""

from .goldfarb import GoldfarbParams
from .instance_io import parse_instance, serialize_instance

__version__ = "0.1.0"
