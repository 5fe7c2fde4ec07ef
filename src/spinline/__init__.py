"""Remote two-qubit state creation through boundary-tuned XY spin chains.

Pipeline: build a chain (:mod:`hamiltonian`), diagonalize and propagate
(:mod:`dynamics`), tune the boundary couplings (:mod:`chainopt`), compute
or probe the communication-line parameters (:mod:`receiver`,
:mod:`probing`), solve the inverse control problem (:mod:`inverse`) and
quantify robustness under random coupling errors (:mod:`disorder`).
"""

from .basis import SenderState, sender_pairs
from .chainopt import BoundaryOptimum, first_maximum, optimize_boundary
from .disorder import param_statistics, sample_line_params, werner_robustness
from .dynamics import SpectralData, diagonalize
from .hamiltonian import ChainSpec, apply_disorder, hopping_matrix
from .inverse import (
    InverseSolution,
    TargetState,
    discrepancy,
    feasibility_scan,
    solve_general,
    solve_werner,
    werner_target,
    zero_family_iii,
)
from .probing import ProbeState, extract_params, probe_set, simulate_probes
from .receiver import (
    LineParams,
    ReceiverState,
    assemble_rho,
    classify_families,
    line_params_at,
)

__version__ = "0.1.0"

__all__ = [
    "SenderState", "sender_pairs",
    "ChainSpec", "apply_disorder", "hopping_matrix",
    "SpectralData", "diagonalize",
    "BoundaryOptimum", "first_maximum", "optimize_boundary",
    "LineParams", "ReceiverState", "assemble_rho", "classify_families",
    "line_params_at",
    "ProbeState", "probe_set", "simulate_probes", "extract_params",
    "TargetState", "InverseSolution", "discrepancy", "werner_target",
    "solve_werner", "solve_general", "feasibility_scan", "zero_family_iii",
    "param_statistics", "sample_line_params", "werner_robustness",
    "__version__",
]
