"""The sixteen-state entangled basis and decompositions over it.

Sixteen mutually orthonormal four-qubit states, each genuinely entangled
(every pairwise concurrence zero, every bipartition maximally mixed), form a
complete basis of the four-qubit space. They are the images of one seed, the
prime branch target state, under the sixteen Pauli strings {I, sz on q1} x
{sigma^mu on q2} x {I, sz on q3}.

Two constructions are available: `explicit_basis` holds the canonical
amplitude tables of record, and `generate_basis` applies the Pauli strings to
the seed. The two agree state-by-state only up to per-state phase factors in
{+1, -1, +i, -i}; `compare_generated` records them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .hilbert import (
    STRUCT_TOL,
    PAULIS,
    InvariantError,
    StateVector,
)
from .circuit import (
    ATOMIC_SPACE,
    BRANCH_DOUBLE_PRIME,
    BRANCH_PRIME,
    _TARGET_SIGNS,
    _table_amplitudes,
    ges_target_state,
)
from .measures import _check_four_qubit, _measure_reports

# What `ges4` exports from this module.
__all__ = ["GesIndex", "GesBasis", "Decomposition", "explicit_basis", "generate_basis",
           "decompose", "canonical_state", "verify_representation", "compare_generated"]


@dataclass(frozen=True, order=True)
class GesIndex:
    """Basis label: family 1..4 (Pauli string on q1/q3) x component 0..3 (q2 Pauli)."""

    family: int
    component: int

    def __post_init__(self):
        if any(isinstance(x, bool) or not hasattr(x, "__index__")     # True, 2.0
               for x in (self.family, self.component)):
            raise ValueError("family and component must be integers")
        if self.family not in (1, 2, 3, 4):
            raise ValueError("family must be in 1..4")
        if self.component not in (0, 1, 2, 3):
            raise ValueError("component must be in 0..3")

    @property
    def label(self) -> str:
        return f"phi_{self.family}_{self.component}"


ALL_INDICES = tuple(GesIndex(f, c) for f in (1, 2, 3, 4) for c in (0, 1, 2, 3))

# Canonical amplitude tables: each state has eight amplitudes of magnitude
# 1/sqrt(8) with the signs below (keys are |q1 q2 q3 q4> strings). phi_1_0
# and phi_1_2 are the circuit's two target states.
_EXPLICIT_SIGNS = {
    (1, 0): _TARGET_SIGNS[BRANCH_PRIME],
    (1, 1): {"1110": -1, "0111": -1, "1101": -1, "1011": +1,
             "0010": -1, "0100": +1, "1000": -1, "0001": -1},
    (1, 2): _TARGET_SIGNS[BRANCH_DOUBLE_PRIME],
    (1, 3): {"0000": -1, "1111": +1, "0110": -1, "1100": -1,
             "1010": +1, "0011": +1, "0101": -1, "1001": +1},
    (2, 0): {"0000": -1, "1111": +1, "0110": +1, "1100": -1,
             "1010": -1, "0011": +1, "0101": +1, "1001": -1},
    (2, 1): {"1110": -1, "0111": +1, "1101": -1, "1011": +1,
             "0010": +1, "0100": -1, "1000": -1, "0001": +1},
    (2, 2): {"1110": +1, "0111": -1, "1101": +1, "1011": +1,
             "0010": +1, "0100": +1, "1000": -1, "0001": +1},
    (2, 3): {"0000": +1, "1111": +1, "0110": +1, "1100": -1,
             "1010": +1, "0011": -1, "0101": +1, "1001": +1},
    (3, 0): {"0000": -1, "1111": +1, "0110": -1, "1100": +1,
             "1010": -1, "0011": -1, "0101": +1, "1001": +1},
    (3, 1): {"1110": -1, "0111": -1, "1101": +1, "1011": +1,
             "0010": -1, "0100": -1, "1000": +1, "0001": +1},
    (3, 2): {"1110": +1, "0111": +1, "1101": -1, "1011": +1,
             "0010": -1, "0100": +1, "1000": +1, "0001": +1},
    (3, 3): {"0000": +1, "1111": +1, "0110": -1, "1100": +1,
             "1010": +1, "0011": +1, "0101": +1, "1001": -1},
    (4, 0): {"0000": +1, "1111": +1, "0110": +1, "1100": +1,
             "1010": -1, "0011": +1, "0101": -1, "1001": +1},
    (4, 1): {"1110": -1, "0111": +1, "1101": +1, "1011": +1,
             "0010": +1, "0100": +1, "1000": +1, "0001": -1},
    (4, 2): {"1110": +1, "0111": -1, "1101": -1, "1011": +1,
             "0010": +1, "0100": -1, "1000": +1, "0001": -1},
    (4, 3): {"0000": -1, "1111": +1, "0110": +1, "1100": +1,
             "1010": +1, "0011": -1, "0101": -1, "1001": -1},
}

_CANONICAL_AMPLITUDES = {
    "ghz4": {"0000": 1 / math.sqrt(2), "1111": 1 / math.sqrt(2)},
    "w4": {"0001": 0.5, "0010": 0.5, "0100": 0.5, "1000": 0.5},
    "cl4": {"0000": 0.5, "0110": 0.5, "1001": 0.5, "1111": -0.5},
    "d4": {b: 1 / math.sqrt(6) for b in ("0011", "0101", "0110", "1001", "1010", "1100")},
}

_SQ8 = 1 / math.sqrt(8)
_SQ12 = 1 / (2 * math.sqrt(3))

# Expansion coefficients of the canonical states over the explicit basis.
# All four are exact (denominators sqrt(8) resp. 2*sqrt(3)) and are
# re-derived numerically by the tests and the verification suite.
CANONICAL_EXPANSIONS = {
    "ghz4": {(1, 0): 0.5, (2, 3): 0.5, (3, 3): 0.5, (4, 0): 0.5},
    "w4": {(1, 1): -_SQ8, (1, 2): -2 * _SQ8, (2, 2): _SQ8, (3, 2): _SQ8, (4, 1): _SQ8},
    "cl4": {(1, 0): -_SQ8, (1, 3): -_SQ8, (2, 0): -_SQ8, (2, 3): _SQ8,
            (3, 0): -_SQ8, (3, 3): -_SQ8, (4, 0): _SQ8, (4, 3): -_SQ8},
    "d4": {(1, 0): -3 * _SQ12, (2, 3): _SQ12, (3, 3): _SQ12, (4, 0): _SQ12},
}

# A variant d4 expansion that circulates alongside the basis tables but is
# inconsistent with them: summing it reconstructs the Dicke state with the
# |1100> amplitude negated (overlap 2/3 with the real d4). The verification
# suite measures and records this; see the discrepancy log.
D4_EXPANSION_VARIANT = {(2, 3): 2 * _SQ12, (4, 3): -_SQ12, (2, 0): _SQ12,
                        (1, 3): _SQ12, (3, 0): -_SQ12, (1, 0): -2 * _SQ12}


@dataclass(frozen=True, eq=False)
class GesBasis:
    """Ordered collection of the sixteen basis states.

    Orthonormality is enforced on construction. The states are stacked into
    the read-only basis matrix once, on construction, and `states` becomes a
    read-only mapping.
    """

    states: dict

    def __post_init__(self):
        if set(self.states.keys()) != set(ALL_INDICES):
            raise ValueError("basis must contain exactly the 16 indices")
        object.__setattr__(self, "states", MappingProxyType(dict(self.states)))
        m = np.column_stack([self.states[idx].amp for idx in ALL_INDICES])
        m.setflags(write=False)
        object.__setattr__(self, "_matrix", m)
        dev = self.orthonormality_deviation()
        if dev > STRUCT_TOL:
            raise ValueError(f"basis is not orthonormal (max Gram deviation {dev:.3e})")

    def state(self, family: int, component: int) -> StateVector:
        return self.states[GesIndex(family, component)]

    def matrix(self) -> np.ndarray:
        """16x16 read-only matrix whose columns are the basis states in index order."""
        return self._matrix

    def orthonormality_deviation(self) -> float:
        m = self._matrix
        return float(np.max(np.abs(m.conj().T @ m - np.eye(16))))

    def completeness_deviation(self) -> float:
        m = self._matrix
        return float(np.max(np.abs(m @ m.conj().T - np.eye(16))))


# The one explicit basis, over the tables as read-only amplitude vectors.
_EXPLICIT_BASIS = GesBasis(
    {GesIndex(f, c): StateVector._wrap(ATOMIC_SPACE, _table_amplitudes(signs, _SQ8))
     for (f, c), signs in _EXPLICIT_SIGNS.items()})


def explicit_basis() -> GesBasis:
    """The sixteen states from their canonical amplitude tables.

    Built and checked for orthonormality once, at import; every call returns
    that one frozen basis, whose states mapping, amplitude arrays and matrix
    are read-only.
    """
    return _EXPLICIT_BASIS


# The Pauli strings sz^a (x) sigma^component (x) sz^b (x) I on (q1..q4) in index order,
# a = 1 for families 2 and 4, b = 1 for 3 and 4: exact entries. Built once, read-only.
_PAULI_STRINGS = np.stack([
    np.kron(np.kron(np.kron(PAULIS[3 if i.family in (2, 4) else 0], PAULIS[i.component]),
                    PAULIS[3 if i.family in (3, 4) else 0]), PAULIS[0])
    for i in ALL_INDICES])
_PAULI_STRINGS.setflags(write=False)


def generate_basis() -> GesBasis:
    """The sixteen Pauli strings applied to the prime branch target state, in one product."""
    amps = _PAULI_STRINGS @ ges_target_state(BRANCH_PRIME).amp
    return GesBasis({idx: StateVector._wrap(ATOMIC_SPACE, amp)
                     for idx, amp in zip(ALL_INDICES, amps)})


@dataclass(frozen=True)
class Decomposition:
    """Expansion of a state over a basis: coefficients c = <phi|state>."""

    coefficients: dict
    residual: float

    def coefficient(self, family: int, component: int) -> complex:
        return self.coefficients[GesIndex(family, component)]


def _expand(amps: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c = m^dag psi (N, 16) and residuals |psi - m c| (N,) of rows psi.

    One product each for all rows. Completeness makes every residual vanish;
    each row must meet it and sum(|c|^2) + residual^2 = 1 to structural
    tolerance (InvariantError otherwise).
    """
    c = amps @ m.conj()
    residual = np.linalg.norm(amps - c @ m.T, axis=-1)
    total = np.sum(np.abs(c) ** 2, axis=-1) + residual**2
    off = np.abs(total - 1.0) > STRUCT_TOL
    if off.any():
        raise InvariantError(f"sum |c|^2 + residual^2 = {total[off][0]}, not 1")
    if (residual > STRUCT_TOL).any():
        raise InvariantError(f"reconstruction residual {residual.max()} exceeds {STRUCT_TOL}")
    return c, residual


def decompose(state: StateVector, basis: GesBasis) -> Decomposition:
    """Expand a normalized four-qubit state over the sixteen-state basis.

    The one-row case of `_expand`, with the same bits: the same two products,
    by the basis matrix's conjugate and its transpose, and the same norm of
    the reconstruction's remainder. Its two checks, with `_expand`'s
    messages, run on Python floats: InvariantError if the reconstruction or
    norm identity fails.
    """
    _check_four_qubit(state)
    amps = state.amp[None]
    c = amps @ basis.matrix().conj()
    residual = float(np.linalg.norm(amps - c @ basis.matrix().T, axis=-1)[0])
    coefficients = c[0].tolist()
    total = sum([abs(z) ** 2 for z in coefficients]) + residual**2
    if abs(total - 1.0) > STRUCT_TOL:
        raise InvariantError(f"sum |c|^2 + residual^2 = {total}, not 1")
    if residual > STRUCT_TOL:
        raise InvariantError(f"reconstruction residual {residual} exceeds {STRUCT_TOL}")
    return Decomposition(dict(zip(ALL_INDICES, coefficients)), residual)


def canonical_state(name: str) -> StateVector:
    """One of the standard four-qubit entangled states: ghz4, w4, cl4, d4."""
    key = name.lower()
    if key not in _CANONICAL_AMPLITUDES:
        raise ValueError(f"unknown state {name!r}; expected one of "
                         f"{sorted(_CANONICAL_AMPLITUDES)}")
    return StateVector._wrap(ATOMIC_SPACE, _table_amplitudes(_CANONICAL_AMPLITUDES[key]))


# A healthy basis: Gram and completeness deviations within this, every element genuine.
HEALTH_TOL = 1e-12


@dataclass(frozen=True)
class RepresentationReport:
    """Numerical health report of a sixteen-state basis."""

    max_orthonormality_dev: float
    max_completeness_dev: float
    state_reports: dict
    all_genuine: bool

    @property
    def healthy(self) -> bool:
        return (max(self.max_orthonormality_dev, self.max_completeness_dev) <= HEALTH_TOL
                and self.all_genuine)


def verify_representation(basis: GesBasis) -> RepresentationReport:
    """Check orthonormality, completeness, and per-state genuineness.

    The sixteen states are measured in one stacked pass of the amplitude
    kernel.
    """
    states = [basis.states[idx] for idx in ALL_INDICES]
    reports = dict(zip(ALL_INDICES, _measure_reports(states)))
    return RepresentationReport(
        max_orthonormality_dev=basis.orthonormality_deviation(),
        max_completeness_dev=basis.completeness_deviation(),
        state_reports=reports,
        all_genuine=all(r.is_genuine for r in reports.values()),
    )


def compare_generated() -> list[dict]:
    """Per-index comparison of the generated states against the explicit tables.

    Each record holds the overlap magnitude, the fitted phase factor
    <e|g>/|<e|g>| (the unit z minimizing |g - z e|), and the worst amplitude
    deviation after rotating the generated state by that phase. A match "up
    to global phase" means overlap magnitude 1.
    """
    explicit, generated = explicit_basis(), generate_basis()
    records = []
    for idx in ALL_INDICES:
        e = explicit.states[idx].amp
        g = generated.states[idx].amp
        s = np.vdot(e, g)
        ov = complex(s)
        matches = abs(abs(ov) - 1.0) <= STRUCT_TOL
        phase = complex(s / abs(s)) if abs(ov) > 1e-12 else complex("nan")
        dev = float(np.max(np.abs(g - phase * e))) if matches else float("nan")
        records.append({
            "index": idx.label,
            "overlap_magnitude": abs(ov),
            "phase": phase,
            "matches_up_to_phase": matches,
            "max_dev_after_alignment": dev,
        })
    return records
