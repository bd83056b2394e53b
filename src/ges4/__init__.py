"""Four-qubit genuine-entanglement toolkit.

Simulates a Mach-Zehnder interferometer whose arms traverse four atom-cavity
systems, post-selects on single-photon detections to produce genuinely
entangled four-qubit states, certifies them with Wootters concurrence and von
Neumann entropy, and provides the sixteen-state entangled basis with
decompositions of the standard GHZ/W/cluster/Dicke states.
"""

from .hilbert import (
    HilbertSpace,
    StateVector,
    Operator,
    DensityMatrix,
    InvariantError,
    basis_state,
    density_matrix,
    tensor,
    embed,
    inner,
    partial_trace,
    unitary_exp,
)
from .circuit import (
    SchemeParams,
    PhysicalParams,
    DetectionOutcome,
    phase_from_physical,
    beam_splitter,
    mz_circuit,
    initial_state,
    evolve,
    closed_form_pair,
    gamma_factors,
    detect,
    prepare_ges,
    ges_target_state,
)
from .measures import (
    Bipartition,
    MeasureReport,
    concurrence,
    concurrence_closed_form,
    von_neumann_entropy,
    bipartition_entropy,
    entropy_closed_form,
    measure_report,
    calibrate_closed_forms,
    DegenerateBranchError,
    ClosedFormInconsistencyError,
)
from .basis import (
    GesIndex,
    GesBasis,
    Decomposition,
    explicit_basis,
    generate_basis,
    decompose,
    canonical_state,
    verify_representation,
    compare_generated,
)

__version__ = "0.1.0"

__all__ = [
    "HilbertSpace", "StateVector", "Operator", "DensityMatrix", "InvariantError",
    "basis_state", "density_matrix", "tensor", "embed", "inner",
    "partial_trace", "unitary_exp",
    "SchemeParams", "PhysicalParams", "DetectionOutcome",
    "phase_from_physical", "beam_splitter",
    "mz_circuit", "initial_state", "evolve", "closed_form_pair",
    "gamma_factors", "detect", "prepare_ges", "ges_target_state",
    "Bipartition", "MeasureReport", "concurrence", "concurrence_closed_form",
    "von_neumann_entropy", "bipartition_entropy", "entropy_closed_form",
    "measure_report", "calibrate_closed_forms",
    "DegenerateBranchError", "ClosedFormInconsistencyError",
    "GesIndex", "GesBasis", "Decomposition", "explicit_basis",
    "generate_basis", "decompose", "canonical_state",
    "verify_representation", "compare_generated",
]
