"""Properties over the whole parameter domain: Schmidt symmetry of the cut
entropies, 2 pi-periodicity of the one-photon kernel in phi, and angles
theta of any finite size.

A pure state's Schmidt spectrum is the same from either side of a cut, so
the kernel `_svd_measures` must give a side the entropy of its complement,
for generic and for rank-deficient states. The kernel gathers a three-qubit
side transposed, so a one-three cut reaches LAPACK as the same 2x8 matrix
from either side; each cut is also checked against the SVD of a plain
rest-by-side reshape, which for a one-qubit side is the 8x2 transpose. The
kernel `_one_photon_output` takes phi as given, before `SchemeParams`
reduces it mod 2 pi: every phase it applies is exp(-i n phi) with integer
n, so phi + 2 pi k gives the same amplitudes up to the rounding of
phi + 2 pi k, which grows as |2 pi k| eps.

theta is never reduced: every path takes cos and sin of the given float,
whose argument reduction is exact, so at |theta| up to 1e300 the fast
kernel, the dense oracle and the closed forms still agree.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ges4 import cli
from ges4.circuit import (
    _BS_BLOCK,
    QUBIT_LABELS,
    SchemeParams,
    _one_photon_output,
    closed_form_pair,
    evolve,
    gamma_factors,
    initial_state,
    mz_circuit,
    photon_branch,
)
from ges4.hilbert import EIG_TOL
from ges4.measures import _schmidt_entropy, _svd_measures

# Every side of a four-qubit cut with its complement (q1 = 0).
_CUTS = [(side, tuple(q for q in range(4) if q not in side))
         for k in (1, 2, 3) for side in itertools.combinations(range(4), k)]


def _entropies(amp, *sides):
    """The kernel's entropies across the given sides (qubit indices), one call."""
    return _svd_measures(amp, (), tuple(tuple(QUBIT_LABELS[q] for q in side)
                                        for side in sides))[1].tolist()


_UNIT = st.floats(-1.0, 1.0)


def _normalized(amp):
    amp = np.asarray(amp, dtype=complex)
    return amp / np.linalg.norm(amp)


def _schmidt_state(side, vectors_a, vectors_b):
    """sum_j a_j (x) b_j with a_j on the side's qubits and b_j on the others,
    as 16 amplitudes in qubit order: Schmidt rank at most the number of terms."""
    rest = [q for q in range(4) if q not in side]
    m = sum(np.outer(a, b) for a, b in zip(vectors_a, vectors_b))
    tensor = m.reshape([2] * 4).transpose(np.argsort([*side, *rest]))
    return _normalized(tensor.reshape(16))


def _assert_schmidt_symmetric(amp):
    for side, rest in _CUTS:
        s_side, s_rest = _entropies(amp, side, rest)
        assert abs(s_side - s_rest) <= EIG_TOL, (side, s_side, s_rest)
        m = amp.reshape([2] * 4).transpose([*rest, *side]).reshape(2**len(rest), -1)
        s_plain = float(_schmidt_entropy(np.linalg.svd(m, compute_uv=False)))
        assert abs(s_side - s_plain) <= EIG_TOL, (side, s_side, s_plain)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(_UNIT, min_size=32, max_size=32))
def test_cut_entropy_is_schmidt_symmetric_on_generic_states(parts):
    amp = np.array(parts[:16]) + 1j * np.array(parts[16:])
    if np.linalg.norm(amp) < 1e-3:
        return
    _assert_schmidt_symmetric(_normalized(amp))


@settings(max_examples=200, deadline=None)
@given(cut=st.sampled_from(_CUTS), rank=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       zeros=st.lists(st.integers(0, 15), max_size=6))
def test_cut_entropy_is_schmidt_symmetric_on_rank_deficient_states(cut, rank, seed, zeros):
    side, rest = cut
    rng = np.random.default_rng(seed)

    def vectors(n_qubits):
        return rng.normal(size=(rank, 2**n_qubits)) + 1j * rng.normal(size=(rank, 2**n_qubits))

    amp = _schmidt_state(side, vectors(len(side)), vectors(len(rest)))
    _assert_schmidt_symmetric(amp)
    # a product state across this cut has zero entropy from both sides
    if rank == 1:
        assert _entropies(amp, side)[0] <= EIG_TOL
    # zeroing amplitudes lowers ranks on other cuts too
    sparse = amp.copy()
    sparse[zeros] = 0.0
    if np.linalg.norm(sparse) > 1e-3:
        _assert_schmidt_symmetric(_normalized(sparse))


def test_cut_entropy_is_schmidt_symmetric_on_basis_and_ghz_states():
    for n in range(16):
        _assert_schmidt_symmetric(np.eye(16, dtype=complex)[n])
    ghz = np.zeros(16, dtype=complex)
    ghz[[0, 15]] = 1 / math.sqrt(2)
    _assert_schmidt_symmetric(ghz)


_ANGLE = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(phi=st.one_of(_ANGLE, st.sampled_from([0.0, math.pi / 2, math.pi, 2 * math.pi])),
       k=st.integers(-1000, 1000), thetas=st.lists(_ANGLE, min_size=4, max_size=4))
def test_kernel_is_2pi_periodic_in_phi_before_any_reduction(phi, k, thetas):
    shift = 2.0 * math.pi * k
    base = _one_photon_output([phi], [thetas], _BS_BLOCK)
    shifted = _one_photon_output([phi + shift], [thetas], _BS_BLOCK)
    # the rounding of phi + 2 pi k, times excitation numbers up to 4
    tol = 16.0 * np.finfo(float).eps * (abs(shift) + abs(phi) + 1.0)
    for got, want in zip(shifted, base):
        assert np.max(np.abs(got - want)) <= tol, (k, np.max(np.abs(got - want)), tol)


_HUGE = st.one_of(st.floats(-1e300, 1e300),
                  st.sampled_from([1e300, -1e300, 7.5e299, 2.0**200, 1e17, -3e16]))


@settings(max_examples=150, deadline=None)
@given(phi=st.floats(0.0, 2 * math.pi),
       thetas=st.one_of(_HUGE, st.lists(_HUGE, min_size=4, max_size=4).map(tuple)))
def test_huge_thetas_keep_fast_path_closed_forms_and_dense_oracle_together(phi, thetas):
    # one shared angle or four per-qubit angles, kept as given
    params = SchemeParams(phi=phi, thetas=thetas)
    assert params.thetas == (thetas if isinstance(thetas, tuple) else (thetas,) * 4)
    fast = evolve(params)
    dense = mz_circuit(params.phi) @ initial_state(params.thetas)
    np.testing.assert_allclose(fast.amp, dense.amp, rtol=0, atol=1e-12)
    # the circuit output carries the closed-form pair under -i exp(-2 i phi)
    prime, dprime = closed_form_pair(params)
    phase = -1j * np.exp(-2j * params.phi)
    np.testing.assert_allclose(photon_branch(fast, 0, 1).amp, phase * prime.amp,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(photon_branch(fast, 1, 0).amp, phase * dprime.amp,
                               rtol=0, atol=1e-12)
    g1, g2 = gamma_factors(params.thetas)
    assert 0.0 <= g1 <= 1.0 and 0.0 <= g2 <= 1.0
    assert abs(g1 + g2 - 1.0) <= np.finfo(float).eps


def test_simulate_takes_huge_thetas(capsys):
    for theta in ("1e300", "-1e300", "1e300,-1e300,3e17,0.5"):
        assert cli.main(["simulate", f"--theta={theta}", "--deterministic"]) == 0
        captured = capsys.readouterr()
        assert "probability" in captured.out and captured.err == ""
