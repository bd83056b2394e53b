"""Entanglement measures and their closed-form comparators.

Numerical side, two paths. The fast path is one amplitude kernel,
`_svd_values`: for a pure four-qubit state every cut entropy is a Schmidt
spectrum and every pair's Wootters lambdas are singular values, both of
reshapes of the 16 amplitudes, so stacked states are measured over any
pairs and cuts, named by their qubit labels, with one stacked SVD and no
density matrix. All of `measure_report` (six concurrences, seven cut
entropies and its Schmidt-symmetry check) runs on it, and so does every
closed-form-versus-numerics comparison, through `_svd_measures` and
`_branch_measures`. One liveness rule serves both sides: a branch of weight
below `_EMPTY_WEIGHT` is empty, and its numeric and closed-form cells are NaN.
The numerics read the weight ||chi||^2; the closed forms read Gamma, which
`circuit._angle_terms` gives with their double angles in one pass.
The oracle path is the density matrix: Wootters `concurrence` for arbitrary
two-qubit density matrices, `von_neumann_entropy` of arbitrary reductions
and `bipartition_entropy`, reached through `density_matrix` and
`partial_trace`; the tests check the kernel against it. Closed-form side:
the protocol's analytic expressions for the concurrence of one qubit pair
and the entropy of one two-two cut of the post-selected branch states at
phi = pi/2.

Which pair and which cut the closed forms describe is not guessed: the
formulas are asymmetric in the theta indices, so `calibrate_closed_forms`
measures all candidates against the numerical oracle. The result (frozen in
FORMULA_PAIR and FORMULA_CUT below) is re-checked by the verification suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    EIG_TOL,
    PAULIS,
    DensityMatrix,
    InvariantError,
    StateVector,
    density_matrix,
    partial_trace,
)
from .circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    QUBIT_LABELS,
    _BITS,
    _BRANCH_SIGNS,
    _angle_terms,
    _closed_form_pairs,
    check_branch,
)

# What `ges4` exports from this module.
__all__ = ["Bipartition", "MeasureReport", "concurrence", "concurrence_closed_form",
           "von_neumann_entropy", "bipartition_entropy", "entropy_closed_form",
           "measure_report", "calibrate_closed_forms", "DegenerateBranchError",
           "ClosedFormInconsistencyError"]

# Genuine multipartite entanglement signature: every pairwise concurrence
# vanishes while every bipartition is maximally entangled.
GENUINE_CONCURRENCE_TOL = 1e-10
GENUINE_ENTROPY_TOL = 1e-10
# `calibrate_closed_forms` draws this many angle rows, and counts a candidate
# pair or cut whose worst deviation over them is within the tolerance as a match.
_CALIBRATION_SAMPLES = 40
CALIBRATION_MATCH_TOL = 1e-11
# A branch below this weight, ||chi||^2 or Gamma, has no state: all its cells are NaN.
_EMPTY_WEIGHT = 1e-12
# Entropies drop eigenvalues, or squared Schmidt coefficients, at or below this.
_SCHMIDT_CUTOFF = 1e-15

_YY = np.kron(PAULIS[2], PAULIS[2])

PAIRS = (("q1", "q2"), ("q1", "q3"), ("q1", "q4"),
         ("q2", "q3"), ("q2", "q4"), ("q3", "q4"))


class DegenerateBranchError(ValueError):
    """A closed form was requested for an empty branch, Gamma below `_EMPTY_WEIGHT`."""


class ClosedFormInconsistencyError(ValueError):
    """A closed-form expression produced a value outside its valid range."""


@dataclass(frozen=True)
class Bipartition:
    """A split of the four qubits into two nonempty complementary groups."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self):
        # Both sides cover the four qubits in four labels: none twice, none shared.
        a, b = set(self.side_a), set(self.side_b)
        if (not a or not b or (a | b) != set(QUBIT_LABELS)
                or len(self.side_a) + len(self.side_b) != 4):
            raise ValueError(f"sides must partition {QUBIT_LABELS}: got {self.side_a} | {self.side_b}")

    @classmethod
    def of(cls, *side_a: str) -> "Bipartition":
        for q in side_a:
            if side_a.count(q) > 1:
                raise ValueError(f"qubit label {q!r} is named twice in {side_a}")
        a = tuple(q for q in QUBIT_LABELS if q in side_a)
        if len(a) != len(side_a):
            raise ValueError(f"unknown qubit label in {side_a}")
        b = tuple(q for q in QUBIT_LABELS if q not in side_a)
        return cls(a, b)

    def __str__(self) -> str:
        return "".join(self.side_a) + "|" + "".join(self.side_b)


PAIR_CUTS = (Bipartition.of("q1", "q2"),
             Bipartition.of("q1", "q3"),
             Bipartition.of("q1", "q4"))
SINGLE_CUTS = tuple(Bipartition.of(q) for q in QUBIT_LABELS)

# Empirical calibration result (see calibrate_closed_forms): the closed-form
# concurrence describes the (q3, q4) pair and the closed-form entropy the
# q1q2|q3q4 cut, for both branches.
FORMULA_PAIR = ("q3", "q4")
FORMULA_CUT = Bipartition.of("q1", "q2")


@dataclass(frozen=True)
class MeasureReport:
    """All pairwise concurrences and bipartition entropies of a four-qubit state."""

    pairwise_concurrence: dict
    pair_entropy: dict
    single_entropy: dict
    is_genuine: bool

    def as_dict(self) -> dict:
        return {
            "pairwise_concurrence": {"".join(k): v for k, v in self.pairwise_concurrence.items()},
            "pair_entropy": {str(k): v for k, v in self.pair_entropy.items()},
            "single_entropy": dict(self.single_entropy),
            "is_genuine": self.is_genuine,
        }


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Equals max(0, sqrt(mu_1) - sqrt(mu_2) - sqrt(mu_3) - sqrt(mu_4)) with
    mu_k the descending eigenvalues of rho (sy x sy) rho* (sy x sy),
    conjugation in the computational basis. Computed as the singular values
    of sqrt(rho) (sy x sy) sqrt(rho)*, which have the same spectrum. Roundoff
    leaves a rank-deficient reduction's zero eigenvalues near +-1e-17, whose
    square roots would cost about sqrt(eps) ~ 1e-8 of accuracy, so every
    eigenvalue at or below 4 eps times the largest counts as 0.

    Accuracy: up to ~2e-10 off on nearly empty D1 branches, and up to ~2e-8
    where the cutoff zeroes a small true eigenvalue. No route that reads rho
    does better, as rho holds small eigenvalues only to ~eps times the largest;
    the amplitude kernel (`measure_report`) is the accurate route. The tests
    bound the error by `_dense_allowance` in tests/test_measures.py.
    """
    if rho.space.dim != 4:
        raise ValueError("concurrence is defined for two-qubit (4x4) density matrices")
    w, v = np.linalg.eigh(rho.mat)
    w = np.where(w > 4.0 * np.finfo(float).eps * w.max(), w, 0.0)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    lam = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _lambda_delta(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma and the closed-form lambda and delta of both branches: three (N, 2)
    arrays from one `_angle_terms` pass, one row per row of four finite angles,
    columns in BRANCHES order (sign + for chi', - for chi''). The denominator
    1 +- prod_i cos2theta_i is exactly 2 Gamma: a branch with Gamma below
    `_EMPTY_WEIGHT` is empty, and its lambda and delta are NaN.
    """
    cos2, sin2, gammas = _angle_terms(thetas)
    den = 2.0 * gammas
    den[gammas < _EMPTY_WEIGHT] = np.nan
    c12, c34 = cos2[:, 0] * cos2[:, 1], cos2[:, 2] * cos2[:, 3]
    lam = np.maximum(0.0, np.abs(c12 * sin2[:, 2] * sin2[:, 3])[:, None] / den)
    delta = (c34[:, None] + _BRANCH_SIGNS * c12[:, None]) / den
    return gammas, lam, delta


def _closed_form_measures(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma, closed-form concurrence lambda and entropy S(delta) of both branches.

    Three (N, 2) arrays, one row per row of four angles, columns in BRANCHES
    order, lambda and S NaN where the branch is degenerate. A delta outside
    [-1, 1] by more than 1e-12 raises ClosedFormInconsistencyError, as in
    `entropy_closed_form`; `concurrence_closed_form` and
    `entropy_closed_form` are the one-branch cases.
    """
    gammas, lam, delta = _lambda_delta(thetas)
    # math.log2, not np.log2: the two differ in the last bit on some inputs
    s = [_delta_entropy(d) if d == d else math.nan for d in delta.ravel().tolist()]
    return gammas, lam, np.array(s).reshape(delta.shape)


def _one_branch(values: np.ndarray, branch: str) -> float:
    """Row 0's entry for `branch`; DegenerateBranchError where it is NaN."""
    value = float(values[0, BRANCHES.index(branch)])
    if value != value:
        raise DegenerateBranchError(
            f"branch {branch!r} has zero post-selection probability at these angles")
    return value


def concurrence_closed_form(thetas: Sequence[float], branch: str) -> float:
    """Closed-form concurrence of the calibrated qubit pair at phi = pi/2.

    lambda = |cos2theta_1 cos2theta_2 sin2theta_3 sin2theta_4| /
    (1 +- prod_i cos2theta_i), the sign following the branch. Raises
    DegenerateBranchError where the branch is empty (its Gamma is below
    `_EMPTY_WEIGHT`), and ValueError unless given four finite angles.
    """
    check_branch(branch)
    _, lam, _ = _lambda_delta([thetas])
    return _one_branch(lam, branch)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr rho log2 rho with the 0 log 0 := 0 convention."""
    p = np.linalg.eigvalsh(rho.mat)
    p = p[p > _SCHMIDT_CUTOFF]
    return float(max(0.0, -np.sum(p * np.log2(p))))


def bipartition_entropy(state: StateVector, cut: Bipartition) -> float:
    """Entanglement entropy of a pure four-qubit state across a cut.

    The density-matrix oracle: computed from the side_a reduction, with the
    side_b value recomputed and required to agree (Schmidt symmetry) as a
    self-check that raises InvariantError. `measure_report` does not call
    it; it runs the amplitude kernel and makes the same check there.
    """
    rho = density_matrix(state)
    s_a = von_neumann_entropy(partial_trace(rho, list(cut.side_a)))
    s_b = von_neumann_entropy(partial_trace(rho, list(cut.side_b)))
    if abs(s_a - s_b) > EIG_TOL:
        raise InvariantError(f"Schmidt symmetry violated: {s_a} vs {s_b}")
    return s_a


# Amplitude kernel. Amplitudes are stacked as (..., 16); a side is a tuple of
# qubit labels, and one call takes a tuple of sides whose matrices share a
# shape, giving results of shape (..., number of sides), in one SVD.


@functools.cache
def _gather(sides: tuple) -> np.ndarray:
    """Flat amplitude index behind each side's matrix, read-only (n, r, c).

    Row digits are the side's qubits, column digits the other qubits, each in
    the given order, so a matrix m has m m^dag as the side's reduced density
    matrix. A three-qubit side is gathered transposed (rest by side, 2x8),
    so every cut of the four qubits is 4x4 or 2x8; sides that do not all share
    one of these shapes raise ValueError. Built and checked once per side set.
    """
    sizes = (2,) if sides and len(sides[0]) == 2 else (1, 3)
    index = []
    for side in sides:
        if len(side) not in sizes or len(set(side) & set(QUBIT_LABELS)) != len(side):
            raise ValueError(f"side {side!r} does not fit: one call's sides must all be "
                             "two-qubit (4x4), or all one- or three-qubit (2x8), over q1..q4")
        qubits = [QUBIT_LABELS.index(q) for q in side]
        order = np.array(qubits + [q for q in range(4) if q not in qubits])
        k = len(side)
        m = (_BITS << (3 - order)).sum(axis=-1).reshape(1 << k, 1 << (4 - k))
        index.append(m.T if k == 3 else m)
    index = np.array(index)
    index.setflags(write=False)
    return index


def _schmidt_entropy(s: np.ndarray) -> np.ndarray:
    """Entropy (bits) of the Schmidt coefficients s along the last axis.

    The probabilities p = s^2 drop p <= `_SCHMIDT_CUTOFF` and the entropy is
    clamped at 0, as in `von_neumann_entropy`.
    """
    p = s * s
    keep = p > _SCHMIDT_CUTOFF
    h = -np.add.reduce(np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0), axis=-1)
    return np.maximum(0.0, h)


def _svd_values(amps: np.ndarray, pairs: tuple, cuts: tuple) -> np.ndarray:
    """Singular values (..., len(pairs) + len(cuts), k) of normalized pure states
    (..., 16) in one SVD call, the one gather-and-factor step of every measure.

    With m a pair's pair-by-rest matrix, the values of m^T (sy x sy) m are the
    Wootters lambdas of its reduction m m^dag; a cut's are its Schmidt
    coefficients. Pairs need two-qubit cuts beside them (all 4x4). LAPACK
    factors each matrix of a stack on its own, so an entry equals the
    one-row, one-side call bit for bit.
    """
    n = len(pairs)
    mats = amps[..., _gather(pairs + cuts)]
    if n:   # a fresh gather: each pair's m^T (sy x sy) m takes the place of its m
        m = mats[..., :n, :, :]
        mats[..., :n, :, :] = np.swapaxes(m, -1, -2) @ _YY @ m
    return np.linalg.svd(mats, compute_uv=False)


def _svd_measures(amps: np.ndarray, pairs: tuple, cuts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Concurrences max(0, l_0 - l_1 - l_2 - l_3), as in `concurrence`, and
    `_schmidt_entropy` cut entropies of `_svd_values`' stack, as (..., len(pairs))
    and (..., len(cuts))."""
    n = len(pairs)
    lam = _svd_values(amps, pairs, cuts)
    w = lam[..., :n, :]
    conc = np.maximum(0.0, w[..., 0] - w[..., 1] - w[..., 2] - w[..., 3]) if n else w[..., 0]
    return conc, _schmidt_entropy(lam[..., n:, :])


# The sides of `_measure_reports`' two calls: both sides of each two-two cut,
# side_a first, and side_a of each single-qubit cut, whose side_b is gathered
# transposed into the same 2x8 matrix.
_PAIR_CUT_SIDES = (*(cut.side_a for cut in PAIR_CUTS), *(cut.side_b for cut in PAIR_CUTS))
_SINGLE_CUT_SIDES = tuple(cut.side_a for cut in SINGLE_CUTS)


def _branch_measures(amps: np.ndarray, pairs: tuple, cuts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """`_svd_measures` of unnormalized branches (..., 16), each scaled to unit norm.

    The numeric side of the one liveness rule: a branch of weight ||chi||^2
    below `_EMPTY_WEIGHT` has no state, and its cells read NaN, as its closed
    forms do in `_lambda_delta`. Only live branches are factored: LAPACK
    factors each matrix on its own, so their bits do not change.
    """
    norms = np.linalg.norm(amps, axis=-1)
    live = norms ** 2 >= _EMPTY_WEIGHT
    conc = np.full((*norms.shape, len(pairs)), np.nan)
    ent = np.full((*norms.shape, len(cuts)), np.nan)
    conc[live], ent[live] = _svd_measures(amps[live] / norms[live, None], pairs, cuts)
    return conc, ent


def _delta_entropy(delta: float) -> float:
    """S = 1 - (1/2)[(1+d)log2(1+d) + (1-d)log2(1-d)] at d = |delta|.

    Extended continuously to |d| = 1, where it reaches 0; a delta beyond
    1 + 1e-12 raises ClosedFormInconsistencyError.
    """
    if abs(delta) > 1.0 + 1e-12:
        raise ClosedFormInconsistencyError(
            f"delta = {delta} lies outside [-1, 1]; the closed form does not "
            f"describe a valid spectrum at these angles")
    d = min(abs(delta), 1.0)
    a, b = 1.0 + d, 1.0 - d     # a >= 1; b log2 b is 0 at b = 0
    return 1.0 - 0.5 * (a * math.log2(a) + (b * math.log2(b) if b > 0.0 else 0.0))


def entropy_closed_form(thetas: Sequence[float], branch: str) -> float:
    """Closed-form entropy of the calibrated two-two cut at phi = pi/2.

    Uses delta = (cos2theta_3 cos2theta_4 +- cos2theta_1 cos2theta_2) /
    (1 +- prod_i cos2theta_i). A delta outside [-1, 1] by more than 1e-12
    raises ClosedFormInconsistencyError (it would not describe a density
    matrix spectrum); overshoot within 1e-12 is roundoff and treated as
    |delta| = 1 via the continuous extension. Raises DegenerateBranchError
    and ValueError as `concurrence_closed_form` does.
    """
    check_branch(branch)
    *_, delta = _lambda_delta([thetas])
    return _delta_entropy(_one_branch(delta, branch))


def _check_four_qubit(state: StateVector) -> None:
    """ValueError unless the state is a normalized four-qubit state."""
    if state.space != ATOMIC_SPACE:
        raise ValueError("state must live on the four-qubit space")
    if not state.is_normalized:
        raise ValueError("state must be normalized")


def _measure_reports(states: Sequence[StateVector]) -> list[MeasureReport]:
    """`measure_report` of each state, from the same two `_svd_values` calls.

    The single cuts' two Schmidt coefficients are padded with zeros to four, so
    one `_schmidt_entropy` pass takes all ten sides (a pad's p = 0 is masked to
    0.0 and summed last: the same bits). Wootters, the symmetry check and the
    reports run on Python floats."""
    for state in states:
        _check_four_qubit(state)
    amps = np.array([state.amp for state in states])
    lam = _svd_values(amps, PAIRS, _PAIR_CUT_SIDES)
    sides = np.zeros((len(states), 10, 4))
    sides[:, :6] = lam[:, 6:]
    sides[:, 6:, :2] = _svd_values(amps, (), _SINGLE_CUT_SIDES)
    # per state: the pairs' lambdas, and the entropies of side_a and side_b
    # of each two-two cut, then of the four single cuts
    lams, ents = lam[:, :6].tolist(), _schmidt_entropy(sides).tolist()
    dev = [abs(ent[k] - ent[3 + k]) for ent in ents for k in range(3)]
    if max(dev) > EIG_TOL:
        row, k = divmod(dev.index(max(dev)), 3)
        raise InvariantError(f"Schmidt symmetry violated across {PAIR_CUTS[k]}: "
                             f"{ents[row][k]} vs {ents[row][3 + k]}")
    reports = []
    for pair_lams, ent in zip(lams, ents):
        conc = [l0 - l1 - l2 - l3 for l0, l1, l2, l3 in pair_lams]
        conc = [0.0 if c <= 0.0 else c for c in conc]    # np.maximum(0.0, c), NaN kept
        pair_ent, single_ent = ent[:3], ent[6:]
        genuine = (all(c <= GENUINE_CONCURRENCE_TOL for c in conc)
                   and all(s >= 1.0 - GENUINE_ENTROPY_TOL for s in pair_ent + single_ent))
        reports.append(MeasureReport(dict(zip(PAIRS, conc)), dict(zip(PAIR_CUTS, pair_ent)),
                                     dict(zip(QUBIT_LABELS, single_ent)), genuine))
    return reports


def measure_report(state: StateVector) -> MeasureReport:
    """Full entanglement signature of a normalized four-qubit state.

    The one-row case of `_measure_reports`: two SVD calls, one over the 4x4
    matrices of the pairs and two-two cuts, one over the 2x8 matrices of the
    single-qubit cuts, one entropy pass, and no density matrix. Each two-two
    cut's entropy is taken from side_a and again from side_b; the two must
    agree to EIG_TOL (Schmidt symmetry, a check on the kernel's index
    gather), else InvariantError. The density-matrix route
    (`bipartition_entropy`) is the oracle.
    """
    return _measure_reports([state])[0]


def calibrate_closed_forms(seed: int = 20260823) -> dict:
    """Identify which pair/cut the closed forms describe, by measurement.

    Draws _CALIBRATION_SAMPLES rows of four theta in [0.1, 1.4] from
    `default_rng(seed)`, away from degeneracies, builds both branch states at
    phi = pi/2, and records the worst deviation of every pair's concurrence
    from the closed-form lambda and of every two-two cut's entropy from the
    closed-form S(delta). A candidate "matches" when its worst deviation
    stays below CALIBRATION_MATCH_TOL.
    """
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.1, 1.4, size=(_CALIBRATION_SAMPLES, 4))
    amps = _closed_form_pairs(np.full(_CALIBRATION_SAMPLES, math.pi / 2.0), thetas)
    _, lam, s_closed = _closed_form_measures(thetas)
    conc, ent = _branch_measures(amps, PAIRS, _PAIR_CUT_SIDES[:3])
    c_dev = np.abs(conc - lam[..., None]).max(axis=0)
    s_dev = np.abs(ent - s_closed[..., None]).max(axis=0)
    pair_dev = {branch: dict(zip(map("".join, PAIRS), c_dev[j].tolist()))
                for j, branch in enumerate(BRANCHES)}
    cut_dev = {branch: dict(zip(map(str, PAIR_CUTS), s_dev[j].tolist()))
               for j, branch in enumerate(BRANCHES)}

    def matching(devs: dict) -> dict:
        return {branch: [name for name, dev in by_name.items() if dev <= CALIBRATION_MATCH_TOL]
                for branch, by_name in devs.items()}
    return {
        "pair_max_dev": pair_dev,
        "cut_max_dev": cut_dev,
        "matching_pairs": matching(pair_dev),
        "matching_cuts": matching(cut_dev),
    }
