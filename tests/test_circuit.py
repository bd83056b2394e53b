"""Unit tests for the interferometer circuit, detection and closed forms."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ges4 import circuit, cli
from ges4.hilbert import (
    PAULIS, HilbertSpace, Operator, StateVector, embed, inner, tensor,
    unitary_exp,
)
from ges4.circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_DOUBLE_PRIME,
    BRANCH_PRIME,
    FULL_SPACE,
    PHOTONIC_SPACE,
    DetectionOutcome,
    PhysicalParams,
    SchemeParams,
    _one_photon_block,
    _one_photon_output,
    beam_splitter,
    check_branch,
    closed_form_pair,
    detect,
    evolve,
    gamma_factors,
    ges_target_state,
    initial_state,
    mz_circuit,
    phase_from_physical,
    photon_branch,
    prepare_ges,
)
from test_hilbert import _is_unitary, _ket

PI = math.pi


def test_scheme_params_broadcast_and_validation():
    p = SchemeParams(phi=PI / 2, thetas=0.3)
    assert p.thetas == (0.3,) * 4
    p = SchemeParams(phi=5 * PI / 2)  # reduced mod 2*pi
    assert abs(p.phi - PI / 2) < 1e-12
    with pytest.raises(ValueError):
        SchemeParams(phi=float("inf"))
    with pytest.raises(ValueError):
        SchemeParams(phi=0.0, thetas=(0.1, 0.2))
    with pytest.raises(ValueError):
        SchemeParams(phi=0.0, eta=1.5)


@pytest.mark.parametrize("angle", [np.float32(0.3), np.int64(1), np.array(0.3), np.bool_(True)])
def test_scheme_params_take_one_numpy_scalar_as_one_angle(angle):
    p = SchemeParams(phi=0.7, thetas=angle)
    assert p.thetas == (float(angle),) * 4
    assert all(type(t) is float for t in p.thetas)
    want = evolve(SchemeParams(phi=0.7, thetas=float(angle))).amp
    assert np.array_equal(evolve(p).amp, want)


def test_check_branch():
    assert check_branch("prime") == "prime"
    with pytest.raises(ValueError):
        check_branch("third")


def test_beam_splitter_action():
    bs = beam_splitter()
    assert _is_unitary(bs.mat)
    out = bs @ _ket(PHOTONIC_SPACE, "10")
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0 / math.sqrt(2)        # |10>
    expected[1] = -1.0j / math.sqrt(2)      # |01>
    np.testing.assert_allclose(out.amp, expected, atol=1e-15)
    # photon-number conservation fixes the empty and doubly occupied states
    for label in ("00", "11"):
        fixed = bs @ _ket(PHOTONIC_SPACE, label)
        np.testing.assert_allclose(fixed.amp, _ket(PHOTONIC_SPACE, label).amp,
                                   atol=1e-15)


def test_cavity_generator_phase_table():
    phi = 0.71
    g = circuit._cavity_generator(2)
    assert g.shape == (64,)
    u = Operator(FULL_SPACE, np.diag(np.exp(-1j * phi * g)))
    assert _is_unitary(u.mat)
    # upper mode occupied, q2 in |0>: phase exp(-i phi)
    psi = _ket(FULL_SPACE, "100000")
    out = u @ psi
    assert abs(inner(psi, out) - np.exp(-1j * phi)) < 1e-12
    # upper mode occupied, q2 in |1>: no phase
    psi = _ket(FULL_SPACE, "100100")
    assert abs(inner(psi, u @ psi) - 1.0) < 1e-12
    # lower mode occupied, q2 in |1>: phase exp(-i phi)
    psi = _ket(FULL_SPACE, "010100")
    assert abs(inner(psi, u @ psi) - np.exp(-1j * phi)) < 1e-12
    # other qubits do not matter
    psi = _ket(FULL_SPACE, "101011")
    assert abs(inner(psi, u @ psi) - np.exp(-1j * phi)) < 1e-12
    with pytest.raises(ValueError):
        circuit._cavity_generator(5)


def test_mz_circuit_unitary(rng):
    for _ in range(10):
        phi = float(rng.uniform(0, 2 * PI))
        assert _is_unitary(mz_circuit(phi).mat)


def test_initial_state_product_form():
    thetas = (0.3, 0.7, 0.1, 1.2)
    psi = initial_state(thetas)
    assert abs(psi.norm - 1.0) < 1e-12
    # photon in the upper mode only
    assert photon_branch(psi, 1, 0).norm > 0.99999999
    amp = psi.amp[int("100000", 2)]
    expected = math.prod(math.cos(t) for t in thetas)
    assert abs(amp - expected) < 1e-12
    with pytest.raises(ValueError):
        initial_state((0.1, 0.2))


def test_evolve_stays_in_one_photon_sector(rng):
    for _ in range(5):
        params = SchemeParams(phi=float(rng.uniform(0, 2 * PI)),
                              thetas=tuple(rng.uniform(0, PI / 2, size=4)))
        psi = evolve(params)
        leak = photon_branch(psi, 0, 0).norm ** 2 + photon_branch(psi, 1, 1).norm ** 2
        assert leak < 1e-24


def test_evolve_matches_closed_form(rng):
    # the closed-form branch pair reproduces the circuit output up to the
    # common prefactor -i exp(-2 i phi)
    for _ in range(25):
        params = SchemeParams(phi=float(rng.uniform(0, 2 * PI)),
                              thetas=tuple(rng.uniform(0, PI / 2, size=4)))
        psi = evolve(params)
        phase = -1j * np.exp(-2j * params.phi)
        for want, (n_u, n_l) in zip(closed_form_pair(params), ((0, 1), (1, 0))):
            got = photon_branch(psi, n_u, n_l)
            np.testing.assert_allclose(got.amp, phase * want.amp, atol=1e-12)


def test_closed_form_pair_norm_identity(rng):
    for _ in range(20):
        params = SchemeParams(phi=float(rng.uniform(0, 2 * PI)),
                              thetas=tuple(rng.uniform(0, PI / 2, size=4)))
        prime, dprime = closed_form_pair(params)
        assert abs(prime.norm ** 2 + dprime.norm ** 2 - 1.0) < 1e-12


def test_photon_branch_reconstructs_full_state(rng):
    params = SchemeParams(phi=1.1, thetas=tuple(rng.uniform(0, PI / 2, size=4)))
    psi = evolve(params)
    rebuilt = np.zeros(FULL_SPACE.dim, dtype=complex)
    for n_u in (0, 1):
        for n_l in (0, 1):
            base = (n_u * 2 + n_l) * ATOMIC_SPACE.dim
            rebuilt[base:base + ATOMIC_SPACE.dim] = photon_branch(psi, n_u, n_l).amp
    np.testing.assert_allclose(rebuilt, psi.amp, atol=1e-15)


def test_gamma_factors():
    g1, g2 = gamma_factors((PI / 8,) * 4)
    assert abs(g1 - 0.625) < 1e-12
    assert abs(g2 - 0.375) < 1e-12
    g1, g2 = gamma_factors((PI / 4,) * 4)
    assert abs(g1 - 0.5) < 1e-12 and abs(g2 - 0.5) < 1e-12
    # complementary for any angles
    rng = np.random.default_rng(7)
    for _ in range(20):
        g1, g2 = gamma_factors(tuple(rng.uniform(0, PI / 2, size=4)))
        assert abs(g1 + g2 - 1.0) < 1e-12


def test_branch_norms_equal_gammas(rng):
    for _ in range(20):
        thetas = tuple(rng.uniform(0, PI / 2, size=4))
        params = SchemeParams(phi=PI / 2, thetas=thetas)
        g1, g2 = gamma_factors(thetas)
        prime, dprime = closed_form_pair(params)
        assert abs(prime.norm ** 2 - g1) < 1e-12
        assert abs(dprime.norm ** 2 - g2) < 1e-12


def test_ges_target_state_sign_tables():
    sq8 = 1.0 / math.sqrt(8.0)
    prime = ges_target_state(BRANCH_PRIME)
    for bits, sign in (("0000", 1), ("1111", 1), ("0110", -1), ("1100", -1),
                       ("1010", -1), ("0011", -1), ("0101", -1), ("1001", -1)):
        assert abs(prime.amp[int(bits, 2)] - sign * sq8) < 1e-15
    dprime = ges_target_state(BRANCH_DOUBLE_PRIME)
    for bits, sign in (("1110", 1), ("0111", 1), ("1101", 1), ("1011", 1),
                       ("0010", -1), ("0100", -1), ("1000", -1), ("0001", -1)):
        assert abs(dprime.amp[int(bits, 2)] - sign * sq8) < 1e-15
    assert abs(prime.norm - 1.0) < 1e-12


def test_detection_outcome_parsing():
    assert DetectionOutcome("d2") is DetectionOutcome.D2_CLICK_D1_NULL
    assert DetectionOutcome("none") is DetectionOutcome.NO_CLICK
    with pytest.raises(ValueError):
        DetectionOutcome("d3")


def test_detect_probability_table():
    psi = evolve(SchemeParams(phi=PI / 2))
    for eta in (0.0, 0.25, 0.5, 0.8, 1.0):
        probs = {o: detect(psi, o, eta)[1] for o in DetectionOutcome}
        assert abs(probs[DetectionOutcome.D1_CLICK_D2_NULL] - eta / 2) < 1e-12
        assert abs(probs[DetectionOutcome.D2_CLICK_D1_NULL] - eta / 2) < 1e-12
        assert abs(probs[DetectionOutcome.NO_CLICK] - (1.0 - eta)) < 1e-12
        assert probs[DetectionOutcome.DOUBLE_CLICK] < 1e-15
        assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_detect_click_states_are_eta_independent():
    psi = evolve(SchemeParams(phi=PI / 2))
    ref, _ = detect(psi, DetectionOutcome.D2_CLICK_D1_NULL, 1.0)
    for eta in (0.25, 0.5, 0.8):
        state, _ = detect(psi, DetectionOutcome.D2_CLICK_D1_NULL, eta)
        np.testing.assert_allclose(state.amp, ref.amp, atol=1e-12)


def test_detect_no_click_is_mixed_at_partial_efficiency():
    psi = evolve(SchemeParams(phi=PI / 2))
    state, prob = detect(psi, DetectionOutcome.NO_CLICK, 0.5)
    assert state is None          # both branches survive; not a pure state
    assert abs(prob - 0.5) < 1e-12
    # at full efficiency a no-click never happens
    state, prob = detect(psi, DetectionOutcome.NO_CLICK, 1.0)
    assert state is None and prob < 1e-15


def test_detect_post_state_matches_target():
    psi = evolve(SchemeParams(phi=PI / 2))
    state, prob = detect(psi, DetectionOutcome.D2_CLICK_D1_NULL, 1.0)
    assert abs(prob - 0.5) < 1e-12
    np.testing.assert_allclose(state.amp, ges_target_state(BRANCH_PRIME).amp,
                               atol=1e-12)
    state, _ = detect(psi, DetectionOutcome.D1_CLICK_D2_NULL, 1.0)
    assert abs(abs(inner(state, ges_target_state(BRANCH_DOUBLE_PRIME))) - 1.0) < 1e-12


def test_detect_input_validation():
    psi = evolve(SchemeParams(phi=PI / 2))
    with pytest.raises(ValueError):
        detect(psi, DetectionOutcome.D2_CLICK_D1_NULL, 1.5)
    with pytest.raises(ValueError):
        detect(StateVector(FULL_SPACE, 2.0 * psi.amp),
               DetectionOutcome.D2_CLICK_D1_NULL, 1.0)
    # a state outside the one-photon sector is rejected
    atoms = tensor(_ket(PHOTONIC_SPACE, "00"),
                   _ket(ATOMIC_SPACE, "0000"))
    with pytest.raises(ValueError):
        detect(atoms, DetectionOutcome.D2_CLICK_D1_NULL, 1.0)


def test_prepare_ges_both_outcomes_agree(target_prime):
    params = SchemeParams(phi=PI / 2)
    for outcome in (DetectionOutcome.D1_CLICK_D2_NULL,
                    DetectionOutcome.D2_CLICK_D1_NULL):
        prepared = prepare_ges(params, outcome=outcome)
        np.testing.assert_allclose(prepared.state.amp, target_prime.amp, atol=1e-12)
        assert abs(prepared.probability - 1.0) < 1e-12
    # default outcome at the symmetric point ties to d2
    assert prepare_ges(params).outcome is DetectionOutcome.D2_CLICK_D1_NULL


def test_prepare_ges_success_probability_scales_linearly(target_prime):
    for eta in (0.25, 0.5, 0.8):
        prepared = prepare_ges(SchemeParams(phi=PI / 2, eta=eta))
        assert abs(prepared.probability - eta) < 1e-12
        np.testing.assert_allclose(prepared.state.amp, target_prime.amp, atol=1e-12)


def test_prepare_ges_sigma_y_map(target_prime, target_dprime):
    # sigma^y on q4 carries the d1-conditioned state onto the d2 one
    sy4 = embed(Operator(HilbertSpace.of(("q4", 2)), PAULIS[2]), ["q4"],
                ATOMIC_SPACE)
    mapped = sy4 @ target_dprime
    assert abs(abs(inner(mapped, target_prime)) - 1.0) < 1e-12


def test_internal_states_are_read_only():
    # evolve, detect and prepare_ges wrap their own arrays without a copy,
    # and `StateVector._wrap` makes each of them read-only
    psi = evolve(SchemeParams(phi=1.1, thetas=(0.3, 0.5, 0.7, 0.9), eta=0.6))
    states = [psi]
    for outcome in DetectionOutcome:
        state, _ = detect(psi, outcome, 1.0)
        states += [state] if state is not None else []
    for outcome in (DetectionOutcome.D1_CLICK_D2_NULL, DetectionOutcome.D2_CLICK_D1_NULL):
        states.append(prepare_ges(SchemeParams(phi=PI / 2), outcome=outcome).state)
    assert len(states) == 5
    for state in states:
        assert not state.amp.flags.writeable
        with pytest.raises(ValueError):
            state.amp[0] = 1.0


def test_prepare_ges_rejects_non_click_outcomes():
    with pytest.raises(ValueError):
        prepare_ges(SchemeParams(phi=PI / 2), outcome=DetectionOutcome.NO_CLICK)


def test_prepare_ges_warns_off_operating_point():
    with pytest.warns(UserWarning):
        prepare_ges(SchemeParams(phi=1.0))


def test_phase_from_physical():
    p = PhysicalParams(dipole=2.0, tau=3.0, detuning=4.0, hbar=1.0, field=5.0)
    assert abs(phase_from_physical(p) - 2.0**2 * 5.0**2 * 3.0 / 4.0) < 1e-12
    # field derived from omega, volume, epsilon0
    p = PhysicalParams(dipole=1.0, tau=1.0, detuning=1.0, hbar=1.0,
                       omega=2.0, volume=1.0, epsilon0=1.0)
    assert abs(phase_from_physical(p) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        phase_from_physical(PhysicalParams(dipole=1.0, tau=1.0, detuning=1.0))
    with pytest.raises(ValueError):
        PhysicalParams(dipole=1.0, tau=1.0, detuning=0.0)


@pytest.mark.parametrize("fields, message", [
    ({"tau": -1.0}, "tau must be nonnegative"),
    ({"dipole": math.inf}, "dipole must be finite"),
    ({"tau": math.nan}, "tau must be finite"),
    ({"detuning": -math.inf}, "detuning must be finite"),
    ({"hbar": math.nan}, "hbar must be finite"),
])
def test_physical_params_reject_a_negative_or_non_finite_field(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PhysicalParams(**{"dipole": 1.0, "tau": 1.0, "detuning": 1.0, **fields})


def test_photon_branch_and_detect_reject_a_state_on_the_wrong_space():
    atomic = ges_target_state(BRANCH_PRIME)
    with pytest.raises(ValueError, match="^state must live on the full photonic.atomic space$"):
        photon_branch(atomic, 0, 1)
    with pytest.raises(ValueError, match="^state must live on the full photonic.atomic space$"):
        detect(atomic, DetectionOutcome.D2_CLICK_D1_NULL, 1.0)


def test_prepare_ges_rejects_a_forced_click_of_zero_probability():
    # at theta = 0 the chi'' branch, which D1 heralds, is empty
    params = SchemeParams(phi=PI / 2, thetas=0.0)
    with pytest.raises(ValueError, match="^outcome d1 has zero probability at these parameters$"):
        prepare_ges(params, outcome=DetectionOutcome.D1_CLICK_D2_NULL)
    prepared = prepare_ges(params, outcome=DetectionOutcome.D2_CLICK_D1_NULL)
    assert abs(prepared.probability - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# fast kernel vs dense oracle vs closed form

_PHIS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, PI / 2, PI]))
_THETAS = st.lists(st.one_of(st.floats(-10.0, 10.0),
                             st.sampled_from([0.0, PI / 4, PI / 2])),
                   min_size=4, max_size=4)


def _conjugated_splitter():
    return Operator(PHOTONIC_SPACE, beam_splitter().mat.conj())


def _closed_form_output(params):
    # the circuit output carries the closed-form pair under -i exp(-2 i phi)
    prime, dprime = closed_form_pair(params)
    phase = -1j * np.exp(-2j * params.phi)
    return phase * prime.amp, phase * dprime.amp


def _deviation(got_p, got_dp, params):
    want_p, want_dp = _closed_form_output(params)
    return max(np.max(np.abs(got_p - want_p)), np.max(np.abs(got_dp - want_dp)))


@settings(max_examples=100, deadline=None)
@given(phi=_PHIS, thetas=_THETAS)
def test_fast_evolve_matches_dense_circuit_and_closed_form(phi, thetas):
    params = SchemeParams(phi=phi, thetas=thetas)
    fast = evolve(params)
    dense = mz_circuit(params.phi) @ initial_state(params.thetas)
    np.testing.assert_allclose(fast.amp, dense.amp, rtol=0, atol=1e-12)
    want_p, want_dp = _closed_form_output(params)
    np.testing.assert_allclose(photon_branch(fast, 0, 1).amp, want_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(photon_branch(fast, 1, 0).amp, want_dp, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(phi=_PHIS, thetas=_THETAS)
def test_conjugated_splitter_moves_dense_and_fast_alike(phi, thetas):
    params = SchemeParams(phi=phi, thetas=thetas)
    bad = _conjugated_splitter()
    dense = StateVector(FULL_SPACE, circuit._dense_circuits([params.phi], bad)[0]
                        @ initial_state(params.thetas).amp)
    fast = _one_photon_output([params.phi], [params.thetas], _one_photon_block(bad))
    dev_dense = _deviation(photon_branch(dense, 0, 1).amp,
                           photon_branch(dense, 1, 0).amp, params)
    dev_fast = _deviation(fast[0, 0], fast[0, 1], params)
    assert abs(dev_dense - dev_fast) <= 1e-12


def test_hot_paths_never_build_the_dense_circuit(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense circuit built on a hot path")

    for name in ("mz_circuit", "_dense_circuits"):
        monkeypatch.setattr(circuit, name, forbidden)
    evolve(SchemeParams(phi=0.4, thetas=(0.1, 0.5, 0.9, 1.3)))
    prepare_ges(SchemeParams(phi=PI / 2))
    rc = cli.main(["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:3",
                   "--eta", "0.5,1", "--csv"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 3 * 2


def test_prepare_ges_tie_ignores_roundoff(monkeypatch):
    # a one-ulp excess on d1 at the symmetric point is still a tie
    real_povm = circuit._povm
    skewed = []

    def skewed_povm(norms, outcome, eta):
        weights, prob = real_povm(norms, outcome, eta)
        if outcome is DetectionOutcome.D1_CLICK_D2_NULL:
            prob = math.nextafter(prob, 1.0)
            skewed.append(prob)
        return weights, prob

    monkeypatch.setattr(circuit, "_povm", skewed_povm)
    assert prepare_ges(SchemeParams(phi=PI / 2)).outcome is DetectionOutcome.D2_CLICK_D1_NULL
    assert skewed, "the skew must reach prepare_ges"


def test_prepare_ges_default_picks_the_more_probable_click():
    # prod cos(2 theta) < 0 makes the d1 branch (Gamma_2) the likelier one
    prepared = prepare_ges(SchemeParams(phi=PI / 2, thetas=(0.3, 0.3, 0.3, 1.2)))
    assert prepared.outcome is DetectionOutcome.D1_CLICK_D2_NULL


# ---------------------------------------------------------------------------
# dense oracle: the diagonal generator vs freshly built factors

_ORACLE_PHIS = st.one_of(st.floats(-10.0, 10.0),
                         st.sampled_from([0.0, -PI, PI / 2, 2 * PI]))


def _fresh_generator(qubit_index):
    # n_U |0><0|_i + n_L |1><1|_i, built here without the circuit module
    qubit = f"q{qubit_index}"
    qubit_space = HilbertSpace.of((qubit, 2))
    number = np.diag([0.0, 1.0]).astype(complex)
    terms = []
    for mode, projector in (("U", np.diag([1.0, 0.0])), ("L", np.diag([0.0, 1.0]))):
        local = tensor(Operator(HilbertSpace.of((mode, 2)), number),
                       Operator(qubit_space, projector.astype(complex)))
        terms.append(embed(local, [mode, qubit], FULL_SPACE).mat)
    return terms[0] + terms[1]


def test_the_summed_generator_diagonal_takes_exactly_the_levels_0_to_4():
    total = sum(_fresh_generator(i) for i in (1, 2, 3, 4))
    assert np.array_equal(total, np.diag(np.diag(total)))
    assert np.array_equal(circuit._G, np.diag(total).real)
    assert sorted(set(circuit._G.tolist())) == [0, 1, 2, 3, 4]


def test_cold_dense_builds_run_no_eigensolver():
    # a fresh interpreter, so no cache can hide a first build's eigensolve;
    # counted from before the import, which builds the splitter from constants
    code = (
        "import numpy as np\n"
        "calls = []\n"
        "real = np.linalg.eigh\n"
        "np.linalg.eigh = lambda *a, **k: calls.append(a) or real(*a, **k)\n"
        "from ges4 import circuit\n"
        "from ges4.hilbert import Operator\n"
        "bad = Operator(circuit.PHOTONIC_SPACE, circuit.beam_splitter().mat.conj())\n"
        "circuit.mz_circuit(0.7)\n"
        "circuit._dense_circuits([0.3, 1.9], bad)\n"
        "circuit._dense_apply([0.3], bad, circuit._initial_states([[0.1, 0.2, 0.3, 0.4]]))\n"
        "print('eigh calls', len(calls))\n"
    )
    src = str(Path(circuit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "eigh calls 0", out.stderr


def _fresh_factor(qubit_index, phi):
    return unitary_exp(Operator(FULL_SPACE, phi * _fresh_generator(qubit_index))).mat


@settings(max_examples=50, deadline=None)
@given(phis=st.lists(_ORACLE_PHIS, min_size=1, max_size=5), conjugate=st.booleans())
def test_dense_circuit_equals_a_product_of_fresh_factors(phis, conjugate):
    # every slice of a stacked build, and the one-phase build, against four
    # fresh per-cavity exponentials, with the splitter given or conjugated
    splitter = _conjugated_splitter() if conjugate else beam_splitter()
    bs = embed(splitter, ["U", "L"], FULL_SPACE).mat
    stacked = circuit._dense_circuits(phis, splitter)
    assert stacked.shape == (len(phis), 64, 64)
    for phi, got in zip(phis, stacked):
        want = bs
        for i in (1, 2, 3, 4):
            want = _fresh_factor(i, phi) @ want
        want = bs @ want
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(circuit._dense_circuits(phis[:1], splitter)[0], stacked[0],
                               rtol=0, atol=1e-13)


def test_beam_splitter_constants_are_the_exponential_of_its_generator():
    # the splitter is stored as constants; derive it from its generator
    # (pi/4)(a_U^+ a_L + a_L^+ a_U) on the truncated modes, here only
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = (PI / 4) * (np.kron(lower.T, lower) + np.kron(lower, lower.T))
    derived = unitary_exp(Operator(PHOTONIC_SPACE, gen)).mat
    assert np.max(np.abs(derived - beam_splitter().mat)) <= 2.0**-52


def test_beam_splitter_is_built_once_and_immutable():
    bs = beam_splitter()
    assert beam_splitter() is bs
    with pytest.raises(ValueError):
        bs.mat[0, 0] = 0.0


# ---------------------------------------------------------------------------
# stacked oracle: many draws per call vs the one-draw functions

_EDGES = st.sampled_from([0.0, PI / 2, PI, 2 * PI])
_ANGLE = st.one_of(st.floats(-10.0, 10.0), _EDGES)
_DRAWS = st.lists(st.tuples(_ANGLE, st.lists(_ANGLE, min_size=4, max_size=4)),
                  min_size=1, max_size=6)


def _stack(draws):
    params = [SchemeParams(phi=phi, thetas=thetas) for phi, thetas in draws]
    return (np.array([p.phi for p in params]), np.array([p.thetas for p in params]),
            params)


@settings(max_examples=100, deadline=None)
@given(draws=_DRAWS, conjugate=st.booleans())
def test_dense_apply_rows_equal_per_draw_dense_circuits(draws, conjugate):
    splitter = _conjugated_splitter() if conjugate else beam_splitter()
    phis, thetas, params = _stack(draws)
    got = circuit._dense_apply(phis, splitter, circuit._initial_states(thetas))
    for row, p in zip(got, params):
        want = circuit._dense_circuits([p.phi], splitter)[0] @ initial_state(p.thetas).amp
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-13)


@settings(max_examples=100, deadline=None)
@given(draws=_DRAWS)
def test_batched_closed_forms_and_inputs_equal_the_scalar_ones_bit_for_bit(draws):
    phis, thetas, params = _stack(draws)
    pairs = circuit._closed_form_pairs(phis, thetas)
    states = circuit._initial_states(thetas)
    for n, p in enumerate(params):
        prime, dprime = closed_form_pair(p)
        assert np.array_equal(pairs[n, 0], prime.amp)
        assert np.array_equal(pairs[n, 1], dprime.amp)
        assert np.array_equal(states[n], initial_state(p.thetas).amp)


@settings(max_examples=100, deadline=None)
@given(draws=_DRAWS, conjugate=st.booleans())
def test_kernel_rows_equal_one_row_calls_bit_for_bit(draws, conjugate):
    splitter = _conjugated_splitter() if conjugate else beam_splitter()
    block = _one_photon_block(splitter)
    phis, thetas, params = _stack(draws)
    out = _one_photon_output(phis, thetas, block)
    assert out.shape == (len(params), 2, 16)
    for n, p in enumerate(params):
        assert np.array_equal(out[n], _one_photon_output([p.phi], [p.thetas], block)[0])
        if not conjugate:
            # BRANCHES order: chi' (|01>, arm L), then chi'' (|10>, arm U)
            psi = evolve(p)
            assert np.array_equal(photon_branch(psi, 0, 1).amp, out[n, 0])
            assert np.array_equal(photon_branch(psi, 1, 0).amp, out[n, 1])


# The last is a splitter with a phase on arm U: its block is asymmetric, so
# reading it in (U, L) order differs from (L, U).
@pytest.mark.parametrize("splitter", [
    beam_splitter(), _conjugated_splitter(),
    Operator(PHOTONIC_SPACE, np.diag([1, 1, 1j, 1j]) @ beam_splitter().mat),
], ids=["plain", "conjugated", "phase_on_u"])
def test_one_photon_block_is_the_splitter_on_rows_01_then_10(splitter):
    assert np.array_equal(_one_photon_block(splitter), splitter.mat[1:3, 1:3])


@settings(max_examples=50, deadline=None)
@given(draws=_DRAWS)
def test_branch_rows_are_a_view_of_rows_01_and_10_in_branches_order(draws):
    phis, thetas, params = _stack(draws)
    amps = circuit._dense_apply(phis, beam_splitter(), circuit._initial_states(thetas))
    rows = circuit._branch_rows(amps)
    assert rows.shape == (len(params), 2, 16)
    for n in range(len(params)):
        psi = StateVector(FULL_SPACE, amps[n])
        assert np.array_equal(rows[n, 0], photon_branch(psi, 0, 1).amp)
        assert np.array_equal(rows[n, 1], photon_branch(psi, 1, 0).amp)
    before = amps.reshape(len(params), 4, 16).copy()
    rows[...] = 0.0     # the write reaches the input rows, and only them
    after = amps.reshape(len(params), 4, 16)
    assert not after[:, 1:3].any()
    assert np.array_equal(after[:, [0, 3]], before[:, [0, 3]])
    for p in params:
        out = evolve(p).amp.reshape(4, 16)
        assert np.all(out[0] == 0.0) and np.all(out[3] == 0.0)


def test_branch_sum_invariant_survives_optimized_mode():
    # `python -O` strips asserts; a non-finite branch sum must still raise
    code = (
        "import sys\n"
        "from ges4 import circuit\n"
        "for phis, thetas in (([float('nan')], [[0.1] * 4]), ([0.3], [[float('inf')] * 4])):\n"
        "    try:\n"
        "        circuit._closed_form_pairs(phis, thetas)\n"
        "    except circuit.InvariantError as exc:\n"
        "        print('raised', sys.flags.optimize, str(exc).startswith('branch weights'))\n"
    )
    src = str(Path(circuit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == ["raised 1 True"] * 2, out.stderr


def test_package_built_states_are_wrapped_read_only(monkeypatch):
    # closed_form_pair, ges_target_state and photon_branch wrap arrays the
    # package built; none of them goes through the validating constructor
    built = []
    post_init = StateVector.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    params = SchemeParams(1.1, (0.2, 0.5, 0.9, 1.3))
    psi = evolve(params)
    states = [*closed_form_pair(params), photon_branch(psi, 0, 1), photon_branch(psi, 1, 0),
              *(ges_target_state(branch) for branch in BRANCHES)]
    assert built == []
    for state in states:
        assert state.amp.shape == (ATOMIC_SPACE.dim,)
        with pytest.raises(ValueError):
            state.amp[0] = 1.0
    for n_u, n_l in ((2, 0), (0, 2), (-1, 1), (1, -1)):
        with pytest.raises(ValueError):
            photon_branch(psi, n_u, n_l)
