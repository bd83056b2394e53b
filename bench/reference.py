"""Independent numpy reference for the four-cavity interferometer.

Shares no code with ``ges4``: the circuit is rebuilt from its phase
structure and the measures from singular values of amplitude reshapes, so
the workload checks do not trust the code they measure.

Conventions: a four-qubit amplitude vector has 16 entries indexed by the
string ``q1 q2 q3 q4`` with q1 most significant. The photon enters mode U;
on the one-photon sector (basis U, L) each cavity adds phase phi to mode U
when its atom is in |0> and to mode L when it is in |1>, so the string s
acquires exp(-i phi n0(s)) on U and exp(-i phi n1(s)) on L, between two
50/50 splitters. Mode U feeds detector D1, mode L detector D2.
"""

from __future__ import annotations

import numpy as np

BITS = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1    # (16, 4)
N1 = BITS.sum(axis=1)
N0 = 4 - N1

# exp(-i pi/4 (a_U^+ a_L + a_L^+ a_U)) restricted to one photon, basis (U, L)
SPLITTER = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_CUTS = ((0, 1), (0, 2), (0, 3))            # side A of the 2|2 cuts
SINGLE_CUTS = ((0,), (1,), (2,), (3,))


def qubit_amplitudes(thetas) -> np.ndarray:
    """Product state prod_i (cos t_i |0> + sin t_i |1>), shape (..., 16)."""
    th = np.asarray(thetas, dtype=float)
    c, s = np.cos(th)[..., None, :], np.sin(th)[..., None, :]
    return np.where(BITS == 0, c, s).prod(axis=-1)


def interferometer(phi, thetas, splitter: np.ndarray = SPLITTER) -> np.ndarray:
    """Unnormalised four-qubit branches (U, L) of the output, shape (..., 2, 16)."""
    phi = np.asarray(phi, dtype=float)[..., None]
    arms = np.stack([np.exp(-1j * phi * N0), np.exp(-1j * phi * N1)], axis=-2)
    mixed = splitter[:, 0][:, None] * arms
    out = np.einsum("ij,...jk->...ik", splitter, mixed)
    return out * qubit_amplitudes(thetas)[..., None, :]


def _split(psi: np.ndarray, side_a) -> np.ndarray:
    """Reshape amplitudes (..., 16) into matrices (..., 2^|A|, 2^|B|)."""
    lead = psi.shape[:-1]
    side_b = [q for q in range(4) if q not in side_a]
    t = psi.reshape(lead + (2, 2, 2, 2))
    k = len(lead)
    t = np.moveaxis(t, [k + q for q in (*side_a, *side_b)], range(k, k + 4))
    return t.reshape(lead + (2 ** len(side_a), 2 ** len(side_b)))


def cut_entropy(psi: np.ndarray, side_a) -> np.ndarray:
    """Entanglement entropy (bits) of normalised states across side_a | rest."""
    p = np.linalg.svd(_split(psi, side_a), compute_uv=False) ** 2
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log2(safe)).sum(axis=-1)


def concurrence(psi: np.ndarray, pair) -> np.ndarray:
    """Wootters concurrence of the reduced pair of normalised states.

    With m the pair-by-rest reshape (rho = m m^dag), the singular values of
    m^T (sy x sy) m are the square roots of the eigenvalues of rho rho~.
    """
    m = _split(psi, pair)
    lam = np.linalg.svd(np.swapaxes(m, -1, -2) @ _YY @ m, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - z b| for the unit phase z that best aligns b onto a."""
    s = np.vdot(b, a)
    z = s / abs(s) if abs(s) > 0.0 else 1.0
    return float(np.max(np.abs(a - z * b)))
