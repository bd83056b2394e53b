"""Tests for the self-check suite, its determinism, and fault injection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ges4
from ges4 import circuit, hilbert, verify
from ges4.circuit import beam_splitter
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
    # a healthy dense oracle leaves only the fast kernel to see the fault
    real = circuit._dense_apply
    monkeypatch.setattr(verify, "_dense_apply",
                        lambda phis, splitter, states: real(phis, beam_splitter(), states))
    rng = np.random.default_rng(0)
    assert verify._check_oracle_equivalence(rng, None).passed
    check = verify._check_oracle_equivalence(rng, "conjugate_bs")
    assert not check.passed and check.measured > 0.1


def test_fault_is_caught_on_the_dense_path_alone(monkeypatch):
    # a healthy fast kernel leaves only the dense oracle to see the fault
    real = circuit._one_photon_output
    monkeypatch.setattr(verify, "_one_photon_output",
                        lambda phi, thetas, splitter: real(phi, thetas, circuit._BS_BLOCK))
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


_FRESH_PROCESS = """
import json, sys
from ges4.verify import report_to_json, run_all_checks
seed = int(sys.argv[1])
first = report_to_json(run_all_checks(seed))
faulty = run_all_checks(seed, fault="conjugate_bs")
again = report_to_json(run_all_checks(seed))
print(json.dumps({
    "plain_passed": json.loads(first)["all_passed"],
    "same_bytes": first == again,
    "fault_failed": [c.name for c in faulty.checks if not c.passed],
}))
"""


def test_fault_between_plain_reports_in_a_fresh_process():
    # the oracle's caches start empty and see the plain and the conjugated
    # splitter in turn; neither report may leak into the next
    src = str(Path(ges4.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, "3"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    result = json.loads(out.stdout)
    assert result == {"plain_passed": True, "same_bytes": True,
                      "fault_failed": ["oracle_equivalence"]}


def _count_calls(monkeypatch, owners, name, counts):
    """Count calls to `name` at every owner that binds the same function."""
    original = getattr(owners[0], name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for owner in owners:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counting)


def test_warm_report_runs_no_eigensolver_and_stacks_every_oracle_draw(monkeypatch):
    run_all_checks(seed=0)     # fills the oracle's caches
    counts = dict.fromkeys(("tensor", "eigh", "mz_circuit"), 0)
    package = [m for name, m in sys.modules.items()
               if name == "ges4" or name.startswith("ges4.")]
    _count_calls(monkeypatch, [hilbert, *package], "tensor", counts)
    _count_calls(monkeypatch, [np.linalg], "eigh", counts)
    _count_calls(monkeypatch, [verify], "mz_circuit", counts)
    stacked = []
    real = verify._dense_apply

    def recording(phis, splitter, states):
        stacked.append((np.array(phis), np.shape(states)))
        return real(phis, splitter, states)

    monkeypatch.setattr(verify, "_dense_apply", recording)
    assert run_all_checks(seed=0).all_passed
    assert counts == {"tensor": 0, "eigh": 0, "mz_circuit": 35}
    # one stacked pass over all 200 draws, each at its own phase, so no
    # draw can be served from a cache
    [(phis, shape)] = stacked
    assert shape == (200, 64)
    assert phis.shape == (200,) and len(np.unique(phis)) == 200


def test_oracle_check_consumes_the_rng_like_scalar_draws():
    # later checks read the same stream: 200 draws of one phase and four angles
    rng = np.random.default_rng(11)
    verify._check_oracle_equivalence(rng, None)
    scalar = np.random.default_rng(11)
    for _ in range(200 * (1 + 4)):
        scalar.uniform()
    assert rng.bit_generator.state == scalar.bit_generator.state
