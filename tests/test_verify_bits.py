"""The verify report's rewritten pieces against in-test copies of their earlier forms.

Each seeded check now takes its random inputs in one `rng.uniform` call, the
dense circuits exponentiate the five levels 0..4 of the summed cavity
generator's diagonal instead of all 64, the photon-number commutator is
taken elementwise, the Pauli strings are built once at import, and the detector
check shares one norm pass and one kernel call. Each must give the bits of
the form it replaced, copied here, and leave the rng where it was. Floats
are compared as uint64 views, so a difference in the last bit fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges4 import basis, circuit, verify
from ges4.basis import ALL_INDICES, generate_basis
from ges4.circuit import (
    ATOMIC_SPACE,
    BRANCH_PRIME,
    PHOTONIC_SPACE,
    DetectionOutcome,
    SchemeParams,
    beam_splitter,
    detect,
    evolve,
    ges_target_state,
)
from ges4.hilbert import PAULIS, Operator, StateVector, inner


def _bits(x):
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float).view(np.uint64)


def _same_bits(a, b):
    return np.array_equal(_bits(a), _bits(b))


def _conjugated_splitter():
    return Operator(PHOTONIC_SPACE, beam_splitter().mat.conj())


# ---------------------------------------------------------------------------
# the dense circuits: five exponentials per phase vs all 64

_PHIS = st.lists(st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, math.pi, 2 * math.pi])),
                 min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(phis=_PHIS, conjugate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dense_forms_equal_the_64_exponential_forms_bit_for_bit(phis, conjugate, seed):
    # B diag(exp(-i phi g)) B with all 64 exponentials taken
    splitter = _conjugated_splitter() if conjugate else beam_splitter()
    bs = np.kron(splitter.mat, np.eye(16))
    phases = np.exp(-1j * np.multiply.outer(np.asarray(phis, dtype=float), circuit._G))
    scaled = bs * phases[:, None, :]
    want = (scaled.reshape(-1, 64) @ bs).reshape(scaled.shape)
    assert _same_bits(circuit._dense_circuits(phis, splitter), want)

    thetas = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(len(phis), 4))
    states = circuit._initial_states(thetas)
    want_rows = ((states @ bs.T) * phases) @ bs.T
    assert _same_bits(circuit._dense_apply(phis, splitter, states), want_rows)


# ---------------------------------------------------------------------------
# the photon-number commutator


@pytest.mark.parametrize("source", ["circuits", "random"])
def test_elementwise_photon_commutator_equals_the_two_products(source):
    rng = np.random.default_rng(3)
    if source == "circuits":
        u = circuit._dense_circuits(rng.uniform(0.0, 2 * math.pi, size=10), beam_splitter())
    else:
        u = rng.normal(size=(4, 64, 64)) + 1j * rng.normal(size=(4, 64, 64))
    n_photon = verify._N_PHOTON
    n = np.diag(n_photon)
    assert _same_bits(u * n - n[:, None] * u, u @ n_photon - n_photon @ u)


def _old_photon_check(rng):
    u = verify._dense_circuits(rng.uniform(0.0, 2.0 * np.pi, size=10), beam_splitter())
    return float(np.max(np.abs(u @ verify._N_PHOTON - verify._N_PHOTON @ u)))


@pytest.mark.parametrize("seed", range(8))
def test_photon_check_measures_what_the_products_measured(run_check, seed):
    got = run_check("photon_number_conservation", np.random.default_rng(seed))
    assert _same_bits(got.measured, _old_photon_check(np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# the Pauli strings


def _old_pauli_string(index):
    q1 = PAULIS[3] if index.family in (2, 4) else PAULIS[0]
    q3 = PAULIS[3] if index.family in (3, 4) else PAULIS[0]
    return np.kron(np.kron(np.kron(q1, PAULIS[index.component]), q3), PAULIS[0])


def test_pauli_strings_are_built_once_and_read_only():
    table = basis._PAULI_STRINGS
    assert table.shape == (16, 16, 16) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0
    for k, idx in enumerate(ALL_INDICES):
        assert _same_bits(table[k], _old_pauli_string(idx))


def _random_seed_state(rng):
    """The target state under a random unitary on q4, random phases on the |1>
    levels of q1 and q3 and a random global phase: each commutes with every
    Pauli string up to the string's own sign, so the generated basis stays
    orthonormal."""
    q4, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    d1, d3 = (np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * math.pi))]) for _ in range(2))
    op = np.kron(np.kron(np.kron(d1, np.eye(2)), d3), q4)
    amp = np.exp(1j * rng.uniform(0, 2 * math.pi)) * (op @ ges_target_state(BRANCH_PRIME).amp)
    return StateVector(ATOMIC_SPACE, amp)


@pytest.mark.parametrize("seed", [None, *range(12)])
def test_generate_basis_equals_each_pauli_string_applied_bit_for_bit(seed):
    state = None if seed is None else _random_seed_state(np.random.default_rng(seed))
    generated = generate_basis(state)
    applied_to = state if state is not None else ges_target_state(BRANCH_PRIME)
    for k, idx in enumerate(ALL_INDICES):
        want = Operator(ATOMIC_SPACE, basis._PAULI_STRINGS[k]) @ applied_to
        assert _same_bits(generated.states[idx].amp, want.amp)
        assert _same_bits(generated.states[idx].amp,
                          (Operator(ATOMIC_SPACE, _old_pauli_string(idx)) @ applied_to).amp)
        assert not generated.states[idx].amp.flags.writeable


# ---------------------------------------------------------------------------
# the seeded checks: one draw call each, and the detector check's shared pass


def _old_branch_norms_check(rng):
    thetas = np.array([rng.uniform(0.0, np.pi / 2.0, size=4) for _ in range(50)])
    pairs = circuit._closed_form_pairs(np.full(50, np.pi / 2.0), thetas)
    worst = 0.0
    for (g1, g2), (chi_p, chi_dp) in zip(circuit._gammas(thetas).tolist(), pairs):
        n_p = float(np.linalg.norm(chi_p)) ** 2
        n_dp = float(np.linalg.norm(chi_dp)) ** 2
        worst = max(worst, float(max(abs(n_p - g1), abs(n_dp - g2), abs(n_p + n_dp - 1.0))))
    return worst


_D1 = DetectionOutcome.D1_CLICK_D2_NULL
_D2 = DetectionOutcome.D2_CLICK_D1_NULL


def _old_detection_check(rng):
    """The detector check as it was: 22 `detect` calls on one state, then ten
    points each through `evolve`, `_branch_norms` and two scalar draws."""
    etas = (0.0, 0.25, 0.5, 0.8, 1.0)
    worst = 0.0
    final = evolve(SchemeParams(phi=np.pi / 2.0))
    reference = {o: detect(final, o, eta=1.0)[0] for o in (_D1, _D2)}
    success = {}
    for eta in etas:
        probs = {}
        for outcome in DetectionOutcome:
            state, prob = detect(final, outcome, eta=eta)
            probs[outcome] = prob
            if eta > 0.0 and outcome in reference and state is not None:
                worst = max(worst, float(1.0 - abs(inner(reference[outcome], state))))
        worst = max(worst, float(abs(sum(probs.values()) - 1.0)))
        worst = max(worst, float(probs[DetectionOutcome.DOUBLE_CLICK]))
        success[eta] = probs[_D1] + probs[_D2]
    for _ in range(10):
        thetas = tuple(float(t) for t in rng.uniform(0.0, np.pi / 2.0, size=4))
        _, norms = circuit._branch_norms(evolve(SchemeParams(phi=np.pi / 2.0, thetas=thetas)))
        eta = float(rng.uniform(0.0, 1.0))
        total = sum(circuit._povm(norms, o, eta)[1] for o in DetectionOutcome)
        worst = max(worst, float(abs(total - 1.0)))
    return worst, {f"{eta:g}": float(p) for eta, p in success.items()}


@pytest.mark.parametrize("seed", range(40))
def test_seeded_checks_equal_their_scalar_forms_and_leave_the_same_stream(run_check, seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_check("branch_normalization", new).measured
    assert _same_bits(got, _old_branch_norms_check(old))
    assert new.bit_generator.state == old.bit_generator.state

    log = {}
    check = run_check("detector_model", new, log=log)
    worst, success = _old_detection_check(old)
    assert _same_bits(check.measured, worst)
    assert log["success_probability_scaling"]["computed_success_probability"] == success
    assert new.bit_generator.state == old.bit_generator.state


def test_stacked_row_norms_equal_each_evolved_states_branch_norms():
    # the detector check's random points: one kernel call against `evolve`
    # and `_branch_norms` one point at a time, on angles that empty a branch too
    rng = np.random.default_rng(8)
    thetas = np.concatenate([rng.uniform(-3.0, 3.0, size=(200, 4)),
                             np.zeros((1, 4)), np.full((1, 4), np.pi / 4)])
    out = circuit._one_photon_output(np.full(len(thetas), np.pi / 2.0), thetas,
                                     circuit._BS_BLOCK)
    norms = circuit._row_norms(out.reshape(-1, 16))     # chi', chi'' of each point
    for n, row in enumerate(thetas):
        _, want = circuit._branch_norms(evolve(SchemeParams(phi=np.pi / 2.0,
                                                            thetas=tuple(row.tolist()))))
        assert _same_bits([0.0, *norms[2 * n:2 * n + 2], 0.0], want)
