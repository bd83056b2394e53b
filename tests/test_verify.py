"""Tests for the self-check suite, its determinism, and fault injection."""

import json

import numpy as np
import pytest

from ges4 import verify
from ges4.circuit import mz_circuit
from ges4.verify import (
    ENTROPY_SPOT_PI_8,
    FAULT_MODES,
    CheckResult,
    report_to_json,
    run_all_checks,
)

EXPECTED_CHECKS = {
    "circuit_unitarity",
    "photon_number_conservation",
    "oracle_equivalence",
    "branch_normalization",
    "ges_preparation",
    "target_state_genuineness",
    "closed_form_measures",
    "basis_orthonormal_complete_genuine",
    "generated_basis_matches_explicit",
    "canonical_decompositions",
    "parseval_completeness",
    "detector_model",
}

EXPECTED_LOG_KEYS = {
    "success_probability_scaling",
    "chi_double_prime_normalization",
    "closed_form_calibration",
    "generated_basis_phases",
    "one_vs_three_entropy",
    "dicke_expansion",
    "entropy_spot_theta_pi_8",
}


@pytest.fixture(scope="module")
def report():
    return run_all_checks(seed=0)


def test_all_checks_pass(report):
    assert report.all_passed
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    for check in report.checks:
        assert check.passed, check.line()


def test_report_lines_format(report):
    lines = report.lines()
    assert lines[-1] == f"{len(report.checks)}/{len(report.checks)} checks passed"
    for line in lines[:-1]:
        assert line.startswith("[PASS] ")
    failed = CheckResult("x", False, 1.0, "broken")
    assert failed.line().startswith("[FAIL] x:")


def test_json_report_is_deterministic(report):
    again = run_all_checks(seed=0)
    assert report_to_json(report) == report_to_json(again)
    doc = json.loads(report_to_json(report))
    assert doc["all_passed"] is True
    assert doc["seed"] == 0
    assert set(doc["discrepancy_log"]) == EXPECTED_LOG_KEYS


def test_other_seed_also_passes():
    assert run_all_checks(seed=7).all_passed


def test_fault_injection_is_caught():
    faulty = run_all_checks(seed=0, fault="conjugate_bs")
    assert not faulty.all_passed
    failed = [c.name for c in faulty.checks if not c.passed]
    assert failed == ["oracle_equivalence"]


def test_fault_is_caught_on_the_fast_path_alone(monkeypatch):
    # a healthy dense circuit leaves only the fast kernel to see the fault
    monkeypatch.setattr(verify, "_dense_circuit",
                        lambda phi, splitter: mz_circuit(phi))
    rng = np.random.default_rng(0)
    assert verify._check_oracle_equivalence(rng, None).passed
    check = verify._check_oracle_equivalence(rng, "conjugate_bs")
    assert not check.passed and check.measured > 0.1


def test_unknown_fault_rejected():
    with pytest.raises(ValueError):
        run_all_checks(seed=0, fault="swap_detectors")
    assert FAULT_MODES == ("conjugate_bs",)


def test_discrepancy_log_contents(report):
    log = report.discrepancy_log

    success = log["success_probability_scaling"]
    assert not success["agrees"]
    # the heralding probability is linear in the efficiency, not quadratic
    assert abs(success["computed_success_probability"]["0.8"] - 0.8) < 1e-12
    assert abs(success["quadratic_reference"]["0.8"] - 0.64) < 1e-12

    spot = log["entropy_spot_theta_pi_8"]
    assert abs(spot["computed"] - ENTROPY_SPOT_PI_8) < 1e-12
    assert abs(spot["numerical_check"] - spot["computed"]) < 1e-12
    assert spot["circulated_value"] == 0.8813

    dicke = log["dicke_expansion"]
    assert not dicke["agrees"]
    assert abs(dicke["variant_overlap_with_dicke"] - 2.0 / 3.0) < 1e-12
    assert dicke["variant_deviation_from_flipped_1100"] < 1e-12

    phases = log["generated_basis_phases"]["phases"]
    assert len(phases) == 16
    assert phases["phi_1_0"] == "1"
    assert phases["phi_1_2"] == "-1j"

    cal = log["closed_form_calibration"]
    assert cal["matching_pairs"] == {"prime": ["q3q4"], "double_prime": ["q3q4"]}
    assert cal["matching_cuts"] == {"prime": ["q1q2|q3q4"],
                                    "double_prime": ["q1q2|q3q4"]}

    one_v_three = log["one_vs_three_entropy"]
    assert one_v_three["max_deviation_single_cut_vs_two_two_formula"] > 0.1
    assert abs(one_v_three["value_at_theta_pi_4"] - 1.0) < 1e-12
