"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each check prints a single pass/fail line (visible with `pytest -s` or in
captured output) and then asserts, so the suite both documents and enforces
the contract.
"""

import json
import math

import numpy as np
import pytest

from ges4 import cli
from ges4.basis import (
    ALL_INDICES,
    CANONICAL_EXPANSIONS,
    canonical_state,
    decompose,
)
from ges4.circuit import (
    ATOMIC_SPACE,
    BRANCH_DOUBLE_PRIME,
    BRANCH_PRIME,
    DetectionOutcome,
    SchemeParams,
    closed_form_pair,
    detect,
    evolve,
    gamma_factors,
    ges_target_state,
    photon_branch,
    prepare_ges,
)
from ges4.hilbert import (
    PAULIS,
    HilbertSpace,
    Operator,
    StateVector,
    density_matrix,
    embed,
    inner,
    partial_trace,
)
from ges4.measures import (
    FORMULA_CUT,
    FORMULA_PAIR,
    PAIR_CUTS,
    PAIRS,
    SINGLE_CUTS,
    bipartition_entropy,
    concurrence,
    concurrence_closed_form,
    entropy_closed_form,
    measure_report,
)
from ges4.verify import ENTROPY_SPOT_PI_8, run_all_checks

PI = math.pi
_D1 = DetectionOutcome.D1_CLICK_D2_NULL
_D2 = DetectionOutcome.D2_CLICK_D1_NULL


def _report(num: int, label: str, ok: bool, measured: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} (measured {measured:.3e})")
    assert ok, f"criterion {num} failed: {label} (measured {measured:.3e})"


@pytest.fixture(scope="module")
def verify_report():
    return run_all_checks(seed=0)


def test_criterion_1_circuit_matches_closed_form():
    # 200 seeded parameter draws; both photonic branches must agree with the
    # closed-form pair after fitting a single common phase
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(200):
        params = SchemeParams(phi=float(rng.uniform(0, 2 * PI)),
                              thetas=tuple(rng.uniform(0, PI / 2, size=4)))
        psi = evolve(params)
        got = np.concatenate([photon_branch(psi, 0, 1).amp,
                              photon_branch(psi, 1, 0).amp])
        prime, dprime = closed_form_pair(params)
        want = np.concatenate([prime.amp, dprime.amp])
        s = np.vdot(want, got)
        phase = s / abs(s)
        worst = max(worst, float(np.max(np.abs(got - phase * want))))
    _report(1, "photonic branches match the closed forms up to one phase",
            worst <= 1e-12, worst)


def test_criterion_2_branch_norms_equal_gamma_factors():
    # same theta stream as criterion 1, evaluated at the operating point
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(200):
        rng.uniform(0, 2 * PI)  # discard the phi draw to keep streams aligned
        thetas = tuple(rng.uniform(0, PI / 2, size=4))
        psi = evolve(SchemeParams(phi=PI / 2, thetas=thetas))
        g1, g2 = gamma_factors(thetas)
        worst = max(worst,
                    abs(photon_branch(psi, 0, 1).norm ** 2 - g1),
                    abs(photon_branch(psi, 1, 0).norm ** 2 - g2))
    _report(2, "branch weights reproduce the Gamma factors at phi=pi/2",
            worst <= 1e-12, worst)


def test_criterion_3_conditioning_prepares_the_targets():
    params = SchemeParams(phi=PI / 2)  # thetas default to pi/4
    psi = evolve(params)
    t_prime = ges_target_state(BRANCH_PRIME)
    t_dprime = ges_target_state(BRANCH_DOUBLE_PRIME)

    state_d2, p_d2 = detect(psi, _D2, 1.0)
    state_d1, p_d1 = detect(psi, _D1, 1.0)
    fid_d2 = abs(inner(t_prime, state_d2)) ** 2
    fid_d1 = abs(inner(t_dprime, state_d1)) ** 2

    sy4 = embed(Operator(HilbertSpace(("q4",)), PAULIS[2]), ["q4"],
                ATOMIC_SPACE)
    fid_map = abs(inner(sy4 @ t_dprime, t_prime)) ** 2
    total = prepare_ges(params).probability

    worst = max(abs(p_d2 - 0.5), abs(p_d1 - 0.5), 1.0 - fid_d2,
                1.0 - fid_d1, 1.0 - fid_map, abs(total - 1.0))
    _report(3, "each click heralds its target; sigma_y4 swaps them; "
               "combined success is 1 at eta=1", worst <= 1e-12, worst)


def test_criterion_4_targets_carry_genuine_entanglement():
    worst = 0.0
    ok = True
    for branch in (BRANCH_PRIME, BRANCH_DOUBLE_PRIME):
        state = ges_target_state(branch)
        rho = density_matrix(state)
        for pair in PAIRS:
            c = concurrence(partial_trace(rho, list(pair)))
            ok = ok and c <= 1e-10
            worst = max(worst, c)
        for cut in SINGLE_CUTS + PAIR_CUTS:
            dev = abs(bipartition_entropy(state, cut) - 1.0)
            ok = ok and dev <= 1e-10
            worst = max(worst, dev)
    _report(4, "all pairwise concurrences vanish and every bipartition "
               "entropy is 1", ok, worst)


def test_criterion_5_closed_form_measures_track_the_numerics():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(100):
        thetas = tuple(rng.uniform(0.05, PI / 2 - 0.05, size=4))
        psi = evolve(SchemeParams(phi=PI / 2, thetas=thetas))
        for branch, (n_u, n_l) in ((BRANCH_PRIME, (0, 1)),
                                   (BRANCH_DOUBLE_PRIME, (1, 0))):
            raw = photon_branch(psi, n_u, n_l)
            if raw.norm ** 2 < 1e-12:
                continue
            state = raw.normalized()
            rho = density_matrix(state)
            c_num = concurrence(partial_trace(rho, list(FORMULA_PAIR)))
            s_num = bipartition_entropy(state, FORMULA_CUT)
            worst = max(worst,
                        abs(c_num - concurrence_closed_form(thetas, branch)),
                        abs(s_num - entropy_closed_form(thetas, branch)))

    spot = (PI / 8,) * 4
    spot_dev = max(
        abs(concurrence_closed_form(spot, BRANCH_PRIME) - 0.2),
        abs(concurrence_closed_form(spot, BRANCH_DOUBLE_PRIME) - 1.0 / 3.0),
        abs(entropy_closed_form(spot, BRANCH_PRIME) - ENTROPY_SPOT_PI_8))
    ok = worst <= 1e-9 and spot_dev <= 1e-12
    _report(5, "closed-form concurrence/entropy match the numerics; spot "
               "values 0.2, 1/3 and 0.4690 at theta=pi/8 (the circulated "
               "0.8813 figure is recorded in the discrepancy log)",
            ok, max(worst, spot_dev))


def test_criterion_6_basis_is_orthonormal_complete_and_genuine(basis16):
    gram = basis16.orthonormality_deviation()
    comp = basis16.completeness_deviation()
    genuine = all(measure_report(basis16.state(idx.family, idx.component)).
                  is_genuine for idx in ALL_INDICES)
    ok = gram <= 1e-12 and comp <= 1e-12 and genuine
    _report(6, "the 16 basis states are orthonormal, complete, and all "
               "genuinely entangled", ok, max(gram, comp))


def test_criterion_7_canonical_decompositions_and_parseval(basis16):
    worst = 0.0
    for name, expected in CANONICAL_EXPANSIONS.items():
        dec = decompose(canonical_state(name), basis16)
        key = max(expected, key=lambda k: abs(expected[k]))
        pivot = dec.coefficient(*key)
        phase = pivot / abs(pivot) * (-1.0 if expected[key] < 0 else 1.0)
        for idx in ALL_INDICES:
            got = dec.coefficient(idx.family, idx.component) / phase
            want = expected.get((idx.family, idx.component), 0.0)
            worst = max(worst, abs(got - want))

    rng = np.random.default_rng(161803)
    parseval = 0.0
    for _ in range(100):
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(ATOMIC_SPACE, raw / np.linalg.norm(raw))
        dec = decompose(state, basis16)
        weight = sum(abs(c) ** 2 for c in dec.coefficients.values())
        parseval = max(parseval, abs(weight - 1.0), dec.residual)

    ok = worst <= 1e-12 and parseval <= 1e-12
    _report(7, "named-state coefficient tables reproduced up to one phase "
               "each (the six-term variant expansion is recorded in the "
               "discrepancy log); Parseval holds", ok, max(worst, parseval))


def test_criterion_8_detector_model_rescales_probability_only(verify_report):
    psi = evolve(SchemeParams(phi=PI / 2))
    worst_sum = 0.0
    for eta in (0.0, 0.25, 0.5, 0.8, 1.0):
        total = sum(detect(psi, outcome, eta)[1]
                    for outcome in DetectionOutcome)
        worst_sum = max(worst_sum, abs(total - 1.0))

    reference = {o: detect(psi, o, 1.0)[0] for o in (_D1, _D2)}
    worst_fid = 0.0
    for eta in (0.25, 0.5, 0.8):
        for outcome in (_D1, _D2):
            state, _ = detect(psi, outcome, eta)
            fid = abs(inner(reference[outcome], state)) ** 2
            worst_fid = max(worst_fid, 1.0 - fid)

    log = verify_report.discrepancy_log["success_probability_scaling"]
    sides_reported = ("computed_success_probability" in log
                      and "linear_reference" in log
                      and "quadratic_reference" in log)
    ok = worst_sum <= 1e-12 and worst_fid <= 1e-12 and sides_reported
    _report(8, "POVM outcomes sum to 1 and click-conditioned states are "
               "eta-independent; success-probability scaling logged with "
               "linear and quadratic references side by side",
            ok, max(worst_sum, worst_fid))


def test_criterion_9_fixed_seed_reports_are_byte_identical(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["verify", "--seed", "123", "--json",
                     "--out", str(first)]) == 0
    assert cli.main(["verify", "--seed", "123", "--json",
                     "--out", str(second)]) == 0
    same = first.read_bytes() == second.read_bytes()
    # sanity: the written report is well formed and green
    doc = json.loads(first.read_text())
    ok = same and doc["all_passed"] is True
    _report(9, "fixed-seed verification reports are byte-identical",
            ok, 0.0 if same else 1.0)
