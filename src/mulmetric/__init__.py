"""Multiplicative metric spaces: log-domain metrics, diagnostics, and solvers."""

from .metric_core import (
    MulDistance,
    PosVec,
    RealVec,
    ComplexVec,
    SampledPosFunction,
    SegmentPoint,
    MulBall,
    mabs,
    ball_contains,
    reverse_triangle_gap,
)
from .spaces import SpaceInstance, SelfMap
from .fixed_point import (
    ContractionSpec,
    SolverReport,
    banach_solve,
    ball_solve,
    power_solve,
    kannan_solve,
    chatterjea_solve,
    estimate_lambda,
    uniqueness_probe,
    apriori_bound,
)
from .verifier import verify_axioms, verify_contraction, AxiomReport, ContractionReport

__all__ = [
    "MulDistance", "PosVec", "RealVec", "ComplexVec", "SampledPosFunction",
    "SegmentPoint", "MulBall", "mabs", "ball_contains",
    "reverse_triangle_gap", "SpaceInstance", "SelfMap", "ContractionSpec",
    "SolverReport", "banach_solve", "ball_solve",
    "power_solve", "kannan_solve", "chatterjea_solve", "estimate_lambda",
    "uniqueness_probe", "apriori_bound", "verify_axioms", "verify_contraction",
    "AxiomReport", "ContractionReport",
]

__version__ = "0.1.0"
