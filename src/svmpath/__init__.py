"""Worst-case SVM regularization-path instances in exact rational arithmetic.

Builds perturbed-cube SVM instances, stretched past a closed-form threshold,
whose solution path visits exponentially many distinct support-vector sets,
certifies every breakpoint with exact optimality conditions, and sweeps the
regularization parameter to count path bends experimentally.
"""

from .construct import (
    Calibration,
    ConstructedPair,
    StretchFactor,
    SupportDecomposition,
    SvmInstance,
    admissible_constructions,
    build_instance,
    choose_stretch,
    facet_strictness_check,
    generate_2d_arc_instance,
    mu_of_q,
    stretch,
    stretch_threshold,
    support_decomposition,
)
from .geometry import Vec, solve_linear_system
from .goldfarb import (
    DualVertex,
    GoldfarbParams,
    ShadowCertificate,
    admissible_sign_vectors,
    dual_vertices,
    shadow_certificate,
    shadow_polygon,
    sign_vectors,
)
from .instance_io import parse_instance, read_instance, serialize_instance, write_instance
from .qp import (
    KktCertificate,
    OptimalPair,
    ReducedHullQP,
    build_kkt_certificate,
    nu_from_mu,
    solve_reduced_distance,
    support_set,
)
from .sweep import (
    SweepRecord,
    SweepReport,
    sweep_constructed,
    sweep_grid,
    sweep_refined,
)

__version__ = "0.1.0"
