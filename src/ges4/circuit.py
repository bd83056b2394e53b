"""Mach-Zehnder + four-cavity circuit, detection, and closed-form branch states.

A single photon enters a 50/50 beam splitter, each arm (modes U and L)
traverses four cavities hosting one atomic qubit each, and the arms recombine
on a second splitter. A dispersive interaction imprints a phase phi on the
photon conditioned on each atomic state, so detecting the output photon
post-selects an entangled four-qubit state.

Photonic modes are truncated at one photon per mode (dimension-4 sector).
Truncation is exact here: every circuit generator conserves total photon
number, so the one-photon input never leaks into |00> or |11>.

The circuit is computed along two independent paths. The fast path used
everywhere, `_one_photon_output`, exploits the structure: on the one-photon
sector, rows |01> (arm L) and |10> (arm U) in BRANCHES order (`_ONE_PHOTON`),
the interferometer is the 2x2 splitter block (two constants, `beam_splitter`;
the tests derive them from the splitter's generator), then the diagonal phase
exp(-i phi n1) on arm L and exp(-i phi n0) on arm U (n0 and n1 count the
qubits in |0> and |1>), then the splitter block again. It takes a stack of
(phi, theta) points and returns both output branches, chi' then chi'':
`evolve` is its one-point case, and `sweep` and the oracle check pass all
their points in one call; other modules read those rows through
`_branch_rows`. The dense oracle builds the 64x64 unitary from the cavity
generators, which are diagonal: the four cavities are exp(-i phi G), G
their sum, with diagonal g taking the values 0..4, so with the splitter B
(extended by identity on the qubits) U(phi) = B diag(exp(-i phi g)) B, five
exponentials a phase and no eigensolver. `_dense_circuits` stacks these
circuits, one GEMM each; `_dense_apply` sends stacked input rows through
the same factors in two tall GEMMs, and the verification suite checks the
fast path against it and against `_closed_form_pairs`. At phi = pi/2 the
branch weights Gamma are closed forms of the angles; `_angle_terms` gives
them, with the double angles the closed-form measures read, in one pass.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .hilbert import (
    STRUCT_TOL,
    EIG_TOL,
    PAULIS,
    HilbertSpace,
    InvariantError,
    StateVector,
    Operator,
    canonical_phase,
)

# What `ges4` exports from this module.
__all__ = ["SchemeParams", "PhysicalParams", "DetectionOutcome", "phase_from_physical",
           "beam_splitter", "mz_circuit", "initial_state", "evolve", "closed_form_pair",
           "gamma_factors", "detect", "prepare_ges", "ges_target_state"]

QUBIT_LABELS = ("q1", "q2", "q3", "q4")

PHOTONIC_SPACE = HilbertSpace.of(("U", 2), ("L", 2))
ATOMIC_SPACE = HilbertSpace.of(*((q, 2) for q in QUBIT_LABELS))
FULL_SPACE = HilbertSpace.of(("U", 2), ("L", 2), *((q, 2) for q in QUBIT_LABELS))

BRANCH_PRIME = "prime"                  # photon exits in mode L (detector D2)
BRANCH_DOUBLE_PRIME = "double_prime"    # photon exits in mode U (detector D1)
BRANCHES = (BRANCH_PRIME, BRANCH_DOUBLE_PRIME)

# The two target entangled states produced at phi = pi/2, theta_i = pi/4,
# written as sign patterns over their eight supporting basis strings.
_TARGET_SIGNS = {
    BRANCH_PRIME: {
        "0000": 1, "1111": 1, "0110": -1, "1100": -1,
        "1010": -1, "0011": -1, "0101": -1, "1001": -1,
    },
    BRANCH_DOUBLE_PRIME: {
        "1110": 1, "0111": 1, "1101": 1, "1011": 1,
        "0010": -1, "0100": -1, "1000": -1, "0001": -1,
    },
}


def check_branch(branch: str) -> str:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return branch


class DetectionOutcome(Enum):
    """Joint readout of the two output detectors (D1 on mode U, D2 on mode L)."""

    D1_CLICK_D2_NULL = "d1"
    D2_CLICK_D1_NULL = "d2"
    NO_CLICK = "none"
    DOUBLE_CLICK = "double"


# Outcome -> (row n_U * 2 + n_L, mode U factor, mode L factor) of each branch
# |n_U n_L> it can come from, in row order. The POVM weight is the product of
# the factors, indices into (1, eta, 1 - eta): a detector of efficiency eta
# reports null on |n> with weight (1-eta)^n and a click with the complement.
_POVM_TERMS = {
    DetectionOutcome.D1_CLICK_D2_NULL: ((2, 1, 0), (3, 1, 2)),
    DetectionOutcome.D2_CLICK_D1_NULL: ((1, 0, 1), (3, 2, 1)),
    DetectionOutcome.NO_CLICK: ((0, 0, 0), (1, 0, 2), (2, 2, 0), (3, 2, 2)),
    DetectionOutcome.DOUBLE_CLICK: ((3, 1, 1),),
}


@dataclass(frozen=True)
class SchemeParams:
    """Protocol knobs: interaction phase, atomic angles, detector efficiency.

    `thetas` accepts a single angle (applied to all four qubits) or an
    explicit sequence of four. `phi` is reduced modulo 2*pi on construction;
    every generator is 2*pi-periodic in it. The thetas are kept as given, at
    any finite size: every path takes cos and sin of the given float, whose
    argument reduction is exact, so a reduced copy could only add rounding.
    """

    phi: float
    thetas: tuple[float, float, float, float] = (math.pi / 4,) * 4
    eta: float = 1.0

    def __post_init__(self):
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi % (2.0 * math.pi))

        raw = self.thetas
        if getattr(raw, "ndim", None) == 0 or not hasattr(raw, "__iter__"):   # 0-d arrays too
            th = (float(raw),) * 4
        else:
            th = tuple(float(t) for t in raw)
        if len(th) != 4 or not all(math.isfinite(t) for t in th):
            raise ValueError("thetas must be one finite angle or four finite angles")
        object.__setattr__(self, "thetas", th)

        eta = float(self.eta)
        if not (0.0 <= eta <= 1.0):
            raise ValueError("eta must lie in [0, 1]")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs determining the dispersive phase shift.

    If `field` (per-photon electric field) is omitted it is derived from
    omega, volume and epsilon0 as sqrt(hbar*omega / (2*epsilon0*volume)).
    """

    dipole: float
    tau: float
    detuning: float
    hbar: float = 1.0
    field: Optional[float] = None
    omega: Optional[float] = None
    volume: Optional[float] = None
    epsilon0: Optional[float] = None

    def __post_init__(self):
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        for name in ("dipole", "tau", "detuning", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def phase_from_physical(p: PhysicalParams) -> float:
    """Dispersive phase shift d^2 E^2 tau / (hbar^2 Delta)."""
    field = p.field
    if field is None:
        missing = [n for n in ("omega", "volume", "epsilon0") if getattr(p, n) is None]
        if missing:
            raise ValueError(f"field not given and cannot be derived; missing {missing}")
        field = math.sqrt(p.hbar * p.omega / (2.0 * p.epsilon0 * p.volume))
    return p.dipole**2 * field**2 * p.tau / (p.hbar**2 * p.detuning)


# Known fault injections into the splitter, used as negative controls: a
# build with a deliberately broken splitter must fail the verification
# suite's oracle-equivalence check (`verify.run_all_checks(fault=...)`).
FAULT_MODES = ("conjugate_bs",)


@functools.cache
def beam_splitter() -> Operator:
    """50/50 splitter exp[-i (pi/4)(a_U^+ a_L + a_L^+ a_U)] on the photonic sector.

    Maps |10> to (|10> - i|01>)/sqrt(2); conserves photon number, so |00> and
    |11> are fixed points of the truncated generator. The one-photon block
    [[d, o], [o, d]] is data, two exact constants that the tests derive from
    the exponential, so no eigensolver runs and the bits do not depend on the
    platform. Built once; every call returns the same immutable Operator.
    """
    d = complex(float.fromhex("0x1.6a09e667f3bccp-1"), float.fromhex("0x1.a827999fcef30p-56"))
    o = complex(0.0, -float.fromhex("0x1.6a09e667f3bcbp-1"))
    return Operator(PHOTONIC_SPACE, [[1, 0, 0, 0], [0, d, o, 0], [0, o, d, 0], [0, 0, 0, 1]])


def _cavity_generator(qubit_index: int) -> np.ndarray:
    """Diagonal of cavity i's generator n_U |0><0|_i + n_L |1><1|_i on the full
    space, 64 integer weights read off the bits of each basis index in factor
    order (U, L, q1..q4): the photon picks up phase phi in arm U with atom i
    in |0>, or in arm L with it in |1>."""
    if qubit_index not in (1, 2, 3, 4):
        raise ValueError("qubit_index must be in 1..4")
    k = np.arange(FULL_SPACE.dim)
    return np.where((k >> (4 - qubit_index)) & 1, (k >> 4) & 1, (k >> 5) & 1)


# Diagonal of the summed cavity generator G, one excitation number 0..4 per
# full-space index, and the five levels it takes.
_G = sum(_cavity_generator(i) for i in (1, 2, 3, 4))
_G.setflags(write=False)
_LEVELS = np.arange(5.0)


def _circuit_factors(phis: np.ndarray, splitter: Operator) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i phis[n] g) as (N, 64), 5 exponentials a phase gathered by g (same
    bits as 64), and B, the splitter extended by identity on the qubits."""
    phases = np.exp(-1j * np.multiply.outer(np.asarray(phis, dtype=float), _LEVELS))
    return phases[:, _G], np.kron(splitter.mat, np.eye(ATOMIC_SPACE.dim))


def _dense_circuits(phis: np.ndarray, splitter: Operator) -> np.ndarray:
    """Dense 64x64 interferometers with a given photonic splitter, as (N, 64, 64):
    circuit n is B diag(exp(-i phis[n] g)) B, one GEMM each, one call."""
    phases, bs = _circuit_factors(phis, splitter)
    scaled = np.multiply(bs, phases[:, None, :], order="C")
    return (scaled.reshape(-1, FULL_SPACE.dim) @ bs).reshape(scaled.shape)


def _dense_apply(phis: np.ndarray, splitter: Operator, states: np.ndarray) -> np.ndarray:
    """Rows of `states` (N, 64) through the dense interferometer, row n at phis[n].

    Two tall GEMMs over the stacked rows, both by B^T, with the phases of row
    n between them; no circuit is formed. Equals
    `_dense_circuits(phis, splitter)[n] @ states[n]` to roundoff.
    """
    phases, bs = _circuit_factors(phis, splitter)
    return ((np.asarray(states) @ bs.T) * phases) @ bs.T


def mz_circuit(phi: float) -> Operator:
    """Full interferometer as a dense unitary: splitter, four cavities, splitter.

    The slow oracle, built from the cavity generators; `evolve` does not use
    it. The one-phase case of `_dense_circuits`.
    """
    return Operator(FULL_SPACE, _dense_circuits([phi], beam_splitter())[0])


# Photon in arm U, as amplitudes over the photonic basis |00>, |01>, |10>, |11>.
_PHOTON_IN_U = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)


def _initial_states(thetas: np.ndarray) -> np.ndarray:
    """`initial_state` amplitudes, one (64,) row per row of four angles."""
    th = np.asarray(thetas, dtype=float)
    qubits = np.stack([np.cos(th), np.sin(th)], axis=-1).astype(complex)   # (N, 4, 2)
    amp = _PHOTON_IN_U[None, :]
    for i in range(4):
        amp = (amp[:, :, None] * qubits[:, i, None, :]).reshape(len(th), -1)
    return amp


def initial_state(thetas: Sequence[float]) -> StateVector:
    """|10>_photon tensor prod_i (cos(theta_i)|0> + sin(theta_i)|1>)."""
    th = tuple(float(t) for t in thetas)
    if len(th) != 4:
        raise ValueError("four angles required")
    return StateVector(FULL_SPACE, _initial_states([th])[0])


# Photonic rows of the one-photon sector: |01> (arm L, chi'), |10> (arm U, chi'').
_ONE_PHOTON = slice(1, 3)
# Per four-qubit basis string (first qubit most significant): its bits and
# the number of qubits in |1> and in |0>.
_BITS = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(bool)
_N1 = _BITS.sum(axis=1)
_N0 = 4 - _N1
# Excitation numbers 0..4, the exponents of the phase exp(-i phi).
_EXCITATIONS = np.arange(5).astype(complex)


def _one_photon_block(splitter: Operator) -> np.ndarray:
    """2x2 action of a photon-number-conserving splitter on (|01>, |10>)."""
    return splitter.mat[_ONE_PHOTON, _ONE_PHOTON]


_BS_BLOCK = _one_photon_block(beam_splitter())


def _branch_rows(amp: np.ndarray) -> np.ndarray:
    """The one-photon rows (|01>, |10>) of full-space amplitudes (..., 64), chi'
    then chi'', as a (..., 2, 16) view: a write through it reaches `amp`."""
    return amp.reshape(*amp.shape[:-1], 4, ATOMIC_SPACE.dim)[..., _ONE_PHOTON, :]


def _one_photon_output(phis: np.ndarray, thetas: np.ndarray, splitter: np.ndarray
                       ) -> np.ndarray:
    """Four-qubit output branches (chi', chi''), in BRANCHES order, as (N, 2, 16).

    chi' is the photon's output in arm L (|01>), chi'' in arm U (|10>). Row n
    is the output at phis[n] (already reduced mod 2 pi) with the input
    photon in arm U and the atoms in the product state
    (x)_i (cos theta_i, sin theta_i) of the four angles thetas[n].
    `splitter` is the 2x2 one-photon block on (|01>, |10>), applied before
    and after the cavity phases. Every row is computed by the same
    elementwise operations, so it is bit-identical to a one-row call.
    """
    th = np.asarray(thetas, dtype=float)
    product = np.multiply.reduce(
        np.where(_BITS, np.sin(th)[:, None, :], np.cos(th)[:, None, :]), axis=-1)
    phases = np.exp(np.multiply.outer(-1j * np.asarray(phis, dtype=float), _EXCITATIONS))
    arm_l = splitter[0, 1] * phases.take(_N1, axis=1) * product
    arm_u = splitter[1, 1] * phases.take(_N0, axis=1) * product
    out = np.empty((len(th), 2, ATOMIC_SPACE.dim), dtype=complex)
    out[:, 0] = splitter[0, 1] * arm_u + splitter[0, 0] * arm_l
    out[:, 1] = splitter[1, 1] * arm_u + splitter[1, 0] * arm_l
    return out


def evolve(params: SchemeParams) -> StateVector:
    """Run the circuit on the standard input state (the fast path).

    The output has support only on the one-photon sector and splits as
    |01> (x) chi' + |10> (x) chi'' up to a global phase: its `_branch_rows`
    (|01>, |10>) are the one-row case of `_one_photon_output`, computed from
    the circuit's structure without building the dense unitary, and its rows
    |00> and |11> are exactly 0; the result equals
    `mz_circuit(phi) @ initial_state(thetas)` to roundoff.
    """
    amp = np.zeros(FULL_SPACE.dim, dtype=complex)
    _branch_rows(amp)[:] = _one_photon_output([params.phi], [params.thetas], _BS_BLOCK)[0]
    return StateVector._wrap(FULL_SPACE, amp)


def photon_branch(psi: StateVector, n_u: int, n_l: int) -> StateVector:
    """Unnormalized four-qubit component of a full-space state at |n_U n_L>."""
    if psi.space != FULL_SPACE:
        raise ValueError("state must live on the full photonic+atomic space")
    if n_u not in (0, 1) or n_l not in (0, 1):
        raise ValueError("photon numbers must be 0 or 1")
    return StateVector._wrap(ATOMIC_SPACE, psi.amp.reshape(4, ATOMIC_SPACE.dim)[n_u * 2 + n_l])


def _closed_form_pairs(phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Closed-form branch pairs (chi', chi''), unnormalized, as (N, 2, 16).

    Row n is the pair at phis[n] and the four angles thetas[n]. Writing z for
    the excitation number of a basis string, the weights are cos(2phi),
    cos(phi), 1, cos(phi), cos(2phi) on chi' and sin(2phi), sin(phi), 0,
    -sin(phi), -sin(2phi) on chi'' for z = 0..4. The branch weights satisfy
    ||chi'||^2 + ||chi''||^2 = 1 (checked), which fixes the discarded global
    factor of the raw circuit output; a row off by more than STRUCT_TOL, or
    not finite, raises InvariantError. The result is read-only.
    """
    phis = np.asarray(phis, dtype=float)[:, None]
    th = np.asarray(thetas, dtype=float)
    cos1, sin1 = np.cos(phis), np.sin(phis)
    cos2, sin2 = np.cos(2 * phis), np.sin(2 * phis)
    one, zero = np.ones_like(phis), np.zeros_like(phis)
    # weights[n, branch, z]
    weights = np.concatenate([cos2, cos1, one, cos1, cos2,
                              sin2, sin1, zero, -sin1, -sin2], axis=1).reshape(-1, 2, 5)
    f = np.where(_BITS, np.sin(th)[:, None, :], np.cos(th)[:, None, :])
    a = f[..., 0] * f[..., 1] * f[..., 2] * f[..., 3]          # (N, 16), q1 first
    pairs = np.zeros((len(th), 2, ATOMIC_SPACE.dim), dtype=complex)
    pairs += weights[..., _N1] * a[:, None, :]

    total = np.sum(pairs.real**2 + pairs.imag**2, axis=(1, 2))
    bad = ~(np.abs(total - 1.0) <= STRUCT_TOL)
    if bad.any():
        raise InvariantError(f"branch weights sum to {total[bad][0]}, not 1")
    pairs.setflags(write=False)
    return pairs


def closed_form_pair(params: SchemeParams) -> tuple[StateVector, StateVector]:
    """Both closed-form branch states (chi', chi''), unnormalized: the |01>
    (detector D2) and the |10> (detector D1) photonic components.

    The one-draw case of `_closed_form_pairs`, which gives the weights and
    raises InvariantError when ||chi'||^2 + ||chi''||^2 is off 1.
    """
    prime, dprime = _closed_form_pairs([params.phi], [params.thetas])[0]
    return StateVector._wrap(ATOMIC_SPACE, prime), StateVector._wrap(ATOMIC_SPACE, dprime)


# The sign of prod_i cos 2theta_i in 1 +- prod, per branch: chi', chi''.
_BRANCH_SIGNS = np.array([1.0, -1.0])


def _angle_terms(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos 2theta_i and sin 2theta_i as (N, 4), and Gamma as (N, 2), one row per
    row of four finite angles (else ValueError).

    Gamma = (1 +- prod_i cos 2theta_i)/2, the product taken left to right, is
    the pair of branch weights at phi = pi/2 in BRANCHES order, and 2 Gamma is
    exactly the closed forms' denominator 1 +- prod. Where 2 theta overflows
    (|theta| above ~8.99e307) the double angles come from the identities on
    cos and sin theta.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 2 or th.shape[1] != 4:
        raise ValueError("four angles required")
    if not np.isfinite(th).all():
        raise ValueError("thetas must be finite")
    big = np.abs(th) > np.finfo(float).max / 2.0
    double = 2.0 * np.where(big, 0.0, th)
    cos2, sin2 = np.cos(double), np.sin(double)
    c, s = np.cos(th[big]), np.sin(th[big])
    cos2[big], sin2[big] = (c - s) * (c + s), 2.0 * s * c
    prod = cos2[:, 0] * cos2[:, 1] * cos2[:, 2] * cos2[:, 3]
    return cos2, sin2, (1.0 + _BRANCH_SIGNS * prod[:, None]) / 2.0


def gamma_factors(thetas: Sequence[float]) -> tuple[float, float]:
    """Branch probabilities (Gamma_1, Gamma_2) at phi = pi/2.

    Gamma_1 = (1 + prod cos 2theta_i)/2 is the D2-click weight and Gamma_2
    its complement. The one-row case of `_angle_terms`. Raises ValueError
    unless given four finite angles.
    """
    g1, g2 = _angle_terms([thetas])[2][0].tolist()
    return g1, g2


def _table_amplitudes(table: dict, scale: float = 1.0) -> np.ndarray:
    """Amplitudes: value * scale at the table's basis strings, 0 elsewhere."""
    amp = np.zeros(ATOMIC_SPACE.dim, dtype=complex)
    for bits, value in table.items():
        amp[int(bits, 2)] = value * scale
    return amp


def ges_target_state(branch: str) -> StateVector:
    """The entangled target state for a branch at phi=pi/2, theta_i=pi/4."""
    amp = _table_amplitudes(_TARGET_SIGNS[check_branch(branch)], 1 / math.sqrt(8.0))
    return StateVector._wrap(ATOMIC_SPACE, amp)


def _row_norms(rows: np.ndarray) -> list[float]:
    """Row norms sqrt(re.re + im.im) by `dot`: the bits of 1-D `np.linalg.norm`."""
    return [math.sqrt(re.dot(re) + im.dot(im)) for re, im in zip(rows.real, rows.imag)]


@functools.lru_cache(maxsize=1)
def _branch_norms(state: StateVector) -> tuple[np.ndarray, tuple[float, ...]]:
    """Branches (4, 16), row n_U * 2 + n_L at |n_U n_L>, and their four
    `_row_norms`. ValueError unless the state is normalized, on the full
    space and in the one-photon sector.

    The last state's split is cached, so asking `detect` for several
    outcomes of one state validates and splits it once. That is sound
    because a StateVector is frozen, hashes by identity and holds read-only
    amplitudes; the branches are a read-only view and the norms a tuple.
    """
    if state.space != FULL_SPACE:
        raise ValueError("state must live on the full photonic+atomic space")
    branches = state.amp.reshape(4, ATOMIC_SPACE.dim)
    norms = tuple(_row_norms(branches))
    if abs(sum(n * n for n in norms) - 1.0) > STRUCT_TOL:
        raise ValueError("state must be normalized")
    if norms[0]**2 + norms[3]**2 > STRUCT_TOL:
        raise ValueError("state lies outside the one-photon photonic sector")
    return branches, norms


def _povm(norms: Sequence[float], outcome: DetectionOutcome, eta: float
          ) -> tuple[list[tuple[int, float]], float]:
    """(branch row, POVM weight) of each branch with nonzero weight, and the
    outcome probability sum_k w_k |branch_k|^2, both in row order."""
    factors = (1.0, eta, 1.0 - eta)
    weights, probability = [], 0.0
    for k, u, l in _POVM_TERMS[outcome]:
        w = factors[u] * factors[l]
        if w != 0.0:
            weights.append((k, w))
            probability += w * norms[k]**2
    return weights, float(probability)


# Two weighted branches whose Gram matrix has det/trace above this are mixed
# without an SVD: det/trace bounds the smaller eigenvalue s[1]^2 from below,
# so s[1] > 1e-6, four orders above EIG_TOL, while the Gram entries' roundoff
# moves det/trace by a few eps at most.
_MIXED_MARGIN = 1e-12


def _detect(branches: np.ndarray, norms: Sequence[float], outcome: DetectionOutcome,
            eta: float) -> tuple[Optional[StateVector], float]:
    """`detect` on a state already split by `_branch_norms`.

    An outcome with no live weighted branch, or probability below 1e-14,
    returns None at once. Two live branches (a no-click at 0 < eta < 1) whose
    2x2 Gram matrix, from their norms and one `np.vdot`, clears
    `_MIXED_MARGIN` are mixed and return None with no SVD. Every other case
    (one branch, or two near-parallel or near-empty ones) runs one SVD and
    decides by s[1] > EIG_TOL.
    """
    weights, probability = _povm(norms, outcome, eta)
    live = [(k, w) for k, w in weights if norms[k] > 0.0]
    if probability < 1e-14 or not live:
        return None, probability
    if len(live) == 2:
        (j, w_j), (k, w_k) = live
        g_jj, g_kk = w_j * norms[j]**2, w_k * norms[k]**2
        g_jk2 = w_j * w_k * abs(np.vdot(branches[j], branches[k]))**2
        if (g_jj * g_kk - g_jk2) / (g_jj + g_kk) > _MIXED_MARGIN:
            return None, probability   # conditional state is mixed

    if len(live) == 1:      # one weighted branch: no list to copy into an array
        (k, w), = live
        weighted = (math.sqrt(w) * branches[k])[None]
    else:
        weighted = np.array([math.sqrt(w) * branches[k] for k, w in live])
    _, s, vh = np.linalg.svd(weighted, full_matrices=False)
    if len(s) > 1 and s[1] > EIG_TOL:
        return None, probability   # conditional state is mixed
    return StateVector._wrap(ATOMIC_SPACE, canonical_phase(vh[0])), probability


def detect(state: StateVector, outcome: DetectionOutcome, eta: float
           ) -> tuple[Optional[StateVector], float]:
    """Apply the two-detector POVM and condition on one outcome.

    Returns (post_state, probability). The post state is the normalized
    four-qubit conditional state with a canonical global phase; it is None
    when the outcome has probability below 1e-14 or when the conditional
    state is mixed (e.g. a no-click at 0 < eta < 1 leaves both photonic
    branches alive), which a state vector cannot represent. Click-conditioned
    states are independent of eta. One validation and norm pass
    (`_branch_norms`) per state, shared by consecutive calls on the same
    state. An SVD runs only for a state that may be pure: one live branch,
    or two near-parallel or near-empty ones; a no-click at 0 < eta < 1 with
    two clearly independent branches is found mixed from their 2x2 Gram
    matrix instead.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must lie in [0, 1]")
    return _detect(*_branch_norms(state), outcome, eta)


class PreparedGes(NamedTuple):
    state: StateVector
    outcome: DetectionOutcome
    probability: float


def prepare_ges(params: SchemeParams,
                outcome: Optional[DetectionOutcome] = None) -> PreparedGes:
    """Deterministic entangled-state preparation.

    Evolves, detects, and — when detector D1 fires — applies sigma^y on the
    fourth qubit, which maps the D1-conditioned state onto the D2-conditioned
    one. At theta_i = pi/4 the returned state therefore always equals the
    target entangled state regardless of which detector clicked, and the
    success probability is the sum of both click probabilities (eta).

    `outcome` forces a specific click branch; by default the more probable
    one is used. Probabilities within STRUCT_TOL of each other are a tie,
    which goes to D2, so roundoff cannot pick the branch. The reported
    probability is always the combined click probability. Both click
    probabilities come from `_povm`; only the chosen click's post-state is
    taken, with one SVD.
    """
    if abs(params.phi - math.pi / 2.0) > 1e-9:
        warnings.warn("prepare_ges expects phi = pi/2; the conditioned states "
                      "are entangled targets only there", stacklevel=2)
    branches, norms = _branch_norms(evolve(params))
    _, p_d1 = _povm(norms, DetectionOutcome.D1_CLICK_D2_NULL, params.eta)
    _, p_d2 = _povm(norms, DetectionOutcome.D2_CLICK_D1_NULL, params.eta)

    if outcome is None:
        outcome = (DetectionOutcome.D1_CLICK_D2_NULL if p_d1 - p_d2 > STRUCT_TOL
                   else DetectionOutcome.D2_CLICK_D1_NULL)
    if outcome not in (DetectionOutcome.D1_CLICK_D2_NULL,
                       DetectionOutcome.D2_CLICK_D1_NULL):
        raise ValueError("preparation conditions on a click outcome (d1 or d2)")

    post, _ = _detect(branches, norms, outcome, params.eta)
    if post is None:
        raise ValueError(f"outcome {outcome.value} has zero probability at these parameters")

    if outcome is DetectionOutcome.D1_CLICK_D2_NULL:
        # q4 is the least significant digit: act on the last axis.
        flipped = canonical_phase((post.amp.reshape(8, 2) @ PAULIS[2].T).reshape(-1))
        post = StateVector._wrap(ATOMIC_SPACE, flipped)
    return PreparedGes(post, outcome, float(p_d1 + p_d2))
