"""Tests for the self-check suite, its determinism, and fault injection."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ges4
from ges4 import basis as basis_module
from ges4 import circuit, cli, hilbert, verify
from ges4.basis import ALL_INDICES, decompose, explicit_basis
from ges4.circuit import ATOMIC_SPACE, FULL_SPACE, PHOTONIC_SPACE, beam_splitter
from ges4.hilbert import Operator, StateVector, embed
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
        assert check.passed, check


def test_report_lines_format(report):
    # the text `ges4 verify` renders from the report's data
    n = len(report.checks)
    lines = "".join(cli._verify_text(report.as_dict())).splitlines()
    assert lines[n] == f"{n}/{n} checks passed"
    for line in lines[:n]:
        assert line.startswith("[PASS] ")
    failed = dataclasses.asdict(CheckResult("x", False, 1.0, "broken"))
    assert next(cli._verify_text({"checks": [failed]})).startswith("[FAIL] x:")


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


def test_fault_is_caught_on_the_fast_path_alone(monkeypatch, run_check):
    # a healthy dense oracle leaves only the fast kernel to see the fault
    real = circuit._dense_apply
    monkeypatch.setattr(verify, "_dense_apply",
                        lambda phis, splitter, states: real(phis, beam_splitter(), states))
    rng = np.random.default_rng(0)
    assert run_check("oracle_equivalence", rng).passed
    check = run_check("oracle_equivalence", rng, "conjugate_bs")
    assert not check.passed and check.measured > 0.1


def test_fault_is_caught_on_the_dense_path_alone(monkeypatch, run_check):
    # a healthy fast kernel leaves only the dense oracle to see the fault
    real = circuit._one_photon_output
    monkeypatch.setattr(verify, "_one_photon_output",
                        lambda phi, thetas, splitter: real(phi, thetas, circuit._BS_BLOCK))
    rng = np.random.default_rng(0)
    assert run_check("oracle_equivalence", rng).passed
    check = run_check("oracle_equivalence", rng, "conjugate_bs")
    assert not check.passed and check.measured > 0.1


def _failed_checks(report):
    return [c for c in report.checks if not c.passed]


def test_a_click_without_a_pure_state_fails_ges_preparation(monkeypatch):
    real = verify.detect
    monkeypatch.setattr(verify, "detect", lambda *args, **kw: (None, real(*args, **kw)[1]))
    assert _failed_checks(run_all_checks(seed=0)) == [
        CheckResult("ges_preparation", False, 1.0, "outcome d2 produced no pure state")]


def test_a_non_genuine_target_fails_the_genuineness_check(monkeypatch):
    real = verify._measure_reports
    monkeypatch.setattr(verify, "_measure_reports", lambda states: [
        dataclasses.replace(r, is_genuine=False) if n == 1 else r
        for n, r in enumerate(real(states))])
    assert _failed_checks(run_all_checks(seed=0)) == [
        CheckResult("target_state_genuineness", False, 1.0,
                    "double_prime branch failed the criterion")]


def test_a_non_genuine_basis_element_fails_the_basis_check(monkeypatch):
    real = verify.verify_representation(explicit_basis())
    worst = max(real.max_orthonormality_dev, real.max_completeness_dev)
    reports = {idx: dataclasses.replace(r, is_genuine=False) if idx.family == 2 else r
               for idx, r in real.state_reports.items()}
    monkeypatch.setattr(verify, "verify_representation", lambda basis: dataclasses.replace(
        real, state_reports=reports, all_genuine=False))
    # measured stays the Gram/completeness deviation, not the 1.0 of the other early failures
    assert worst < 1e-12
    assert _failed_checks(run_all_checks(seed=0)) == [
        CheckResult("basis_orthonormal_complete_genuine", False, worst,
                    "Gram and completeness deviations; 12/16 elements genuine")]


GOLDEN_ORDER = [c["name"] for c in json.loads(
    (Path(__file__).parent / "golden" / "verify_seed0.json").read_text())["checks"]]


@pytest.mark.parametrize("fault", [None, "conjugate_bs"])
def test_every_check_passes_exactly_within_its_bound_and_condition(monkeypatch, fault):
    bounds = {name: bound for name, bound, _, _ in verify.CHECKS}
    assert list(bounds) == GOLDEN_ORDER
    assert bounds == {**dict.fromkeys(GOLDEN_ORDER, 1e-12),
                      "target_state_genuineness": 1e-10, "closed_form_measures": 1e-9}
    conditions = {}

    def recording(name, measure):
        def run(r):
            got = measure(r)
            conditions[name] = got[1] if isinstance(got, tuple) else True
            return got
        return run

    monkeypatch.setattr(verify, "CHECKS", tuple((name, bound, detail, recording(name, measure))
                                                for name, bound, detail, measure in verify.CHECKS))
    for seed in range(10):
        conditions.clear()
        report = run_all_checks(seed, fault)
        assert [c.name for c in report.checks] == GOLDEN_ORDER
        for c in report.checks:
            assert c.passed == (c.measured <= bounds[c.name] and conditions[c.name]), c
        want = ["oracle_equivalence"] if fault else []
        assert [c.name for c in report.checks if not c.passed] == want


@pytest.mark.parametrize("got, passed", [(1e-13, True), (1e-11, False), (float("nan"), False),
                                         ((1e-13, True), True), ((1e-13, False), False),
                                         ((1e-11, True), False)])
def test_a_row_passes_when_its_measure_is_within_bound_and_its_condition_holds(got, passed):
    row = ("x", 1e-12, "detail", lambda run: got)
    check = verify._run_check(row, verify._Run(0, None, None, {}))
    assert (check.name, check.passed, check.detail) == ("x", passed, "detail")
    want = got[0] if isinstance(got, tuple) else got
    assert np.array_equal(check.measured, want, equal_nan=True)


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
    counts = dict.fromkeys(("tensor", "embed", "eigh", "mz_circuit"), 0)
    package = [m for name, m in sys.modules.items()
               if name == "ges4" or name.startswith("ges4.")]
    _count_calls(monkeypatch, [hilbert, *package], "tensor", counts)
    _count_calls(monkeypatch, [hilbert, *package], "embed", counts)
    _count_calls(monkeypatch, [np.linalg], "eigh", counts)
    _count_calls(monkeypatch, [circuit, verify], "mz_circuit", counts)
    stacked, built = [], []
    real_apply, real_build = verify._dense_apply, verify._dense_circuits

    def recording(phis, splitter, states):
        stacked.append((np.array(phis), np.shape(states)))
        return real_apply(phis, splitter, states)

    def building(phis, splitter):
        built.append(np.array(phis))
        return real_build(phis, splitter)

    monkeypatch.setattr(verify, "_dense_apply", recording)
    monkeypatch.setattr(verify, "_dense_circuits", building)
    assert run_all_checks(seed=0).all_passed
    assert counts == {"tensor": 0, "embed": 0, "eigh": 0, "mz_circuit": 0}
    # one stacked pass over all 200 draws, each at its own phase, so no
    # draw can be served from a cache
    [(phis, shape)] = stacked
    assert shape == (200, 64)
    assert phis.shape == (200,) and len(np.unique(phis)) == 200
    # one stacked build each for the unitarity and photon-number checks
    assert [len(phis) for phis in built] == [25, 10]
    assert [len(np.unique(phis)) for phis in built] == [25, 10]


def test_oracle_check_consumes_the_rng_like_scalar_draws(run_check):
    # later checks read the same stream: 200 draws of one phase and four angles
    rng = np.random.default_rng(11)
    run_check("oracle_equivalence", rng)
    scalar = np.random.default_rng(11)
    for _ in range(200 * (1 + 4)):
        scalar.uniform()
    assert rng.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("check, n", [("circuit_unitarity", 25),
                                      ("photon_number_conservation", 10)],
                         ids=("unitarity", "photon"))
def test_circuit_checks_draw_their_phases_like_scalar_draws(monkeypatch, run_check, check, n):
    # one stacked draw of n phases: the same values, and the same stream
    # position for the checks after it, as n scalar draws
    seen = []
    real = verify._dense_circuits

    def building(phis, splitter):
        seen.extend(np.asarray(phis).tolist())
        return real(phis, splitter)

    monkeypatch.setattr(verify, "_dense_circuits", building)
    rng = np.random.default_rng(11)
    run_check(check, rng)
    scalar = np.random.default_rng(11)
    assert seen == [float(scalar.uniform(0.0, 2.0 * np.pi)) for _ in range(n)]
    assert rng.bit_generator.state == scalar.bit_generator.state


def _record(monkeypatch, name, seen):
    real = getattr(verify, name)

    def recording(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, recording)


def test_oracle_and_branch_norm_checks_draw_their_angles_like_scalar_draws(monkeypatch,
                                                                         run_check):
    # one draw call each: the values of the per-draw loops they replaced
    seen = []
    _record(monkeypatch, "_closed_form_pairs", seen)
    rng = np.random.default_rng(11)
    run_check("oracle_equivalence", rng)
    run_check("branch_normalization", rng)
    scalar = np.random.default_rng(11)
    oracle = [(scalar.uniform(0.0, 2.0 * np.pi), scalar.uniform(0.0, np.pi / 2.0, size=4))
              for _ in range(200)]
    norms = [scalar.uniform(0.0, np.pi / 2.0, size=4) for _ in range(50)]
    (phis, thetas), (_, norm_thetas) = seen
    assert phis.tolist() == [float(phi) for phi, _ in oracle]
    assert thetas.tolist() == [t.tolist() for _, t in oracle]
    assert norm_thetas.tolist() == [t.tolist() for t in norms]
    assert rng.bit_generator.state == scalar.bit_generator.state


def test_detection_check_draws_its_points_like_scalar_draws(monkeypatch, run_check):
    # point n: four angles, then eta, as the per-point loop drew them
    kernel, povm = [], []
    _record(monkeypatch, "_one_photon_output", kernel)
    _record(monkeypatch, "_povm", povm)
    rng = np.random.default_rng(11)
    run_check("detector_model", rng)
    scalar = np.random.default_rng(11)
    points = [(scalar.uniform(0.0, np.pi / 2.0, size=4).tolist(), float(scalar.uniform(0.0, 1.0)))
              for _ in range(10)]
    [(phis, thetas, _)] = kernel
    assert phis.tolist() == [np.pi / 2.0] * 10
    assert thetas.tolist() == [t for t, _ in points]
    # four outcomes per point, each at the point's eta
    assert [args[2] for args in povm] == [eta for _, eta in points for _ in range(4)]
    assert rng.bit_generator.state == scalar.bit_generator.state


def _scalar_parseval_states(rng):
    # the per-state loop the check replaced: 16 real parts, then 16 imaginary
    raws = [rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(100)]
    return [StateVector(ATOMIC_SPACE, raw / np.linalg.norm(raw)) for raw in raws]


def test_parseval_check_consumes_the_rng_like_scalar_draws(run_check):
    rng = np.random.default_rng(11)
    run_check("parseval_completeness", rng)
    scalar = np.random.default_rng(11)
    _scalar_parseval_states(scalar)
    assert rng.bit_generator.state == scalar.bit_generator.state


def test_stacked_parseval_equals_per_state_decompose(run_check):
    # the check's own draws, expanded in one stack and one state at a time
    basis = explicit_basis()
    states = _scalar_parseval_states(np.random.default_rng(5))
    c, residual = basis_module._expand(np.array([s.amp for s in states]), basis.matrix())
    worst = 0.0
    for n, state in enumerate(states):
        dec = decompose(state, basis)
        want = np.array([dec.coefficients[idx] for idx in ALL_INDICES])
        np.testing.assert_allclose(c[n], want, rtol=0, atol=1e-15)
        assert abs(residual[n] - dec.residual) <= 1e-15
        worst = max(worst, abs(np.sum(np.abs(want) ** 2) - 1.0), dec.residual)
    got = run_check("parseval_completeness", np.random.default_rng(5)).measured
    assert abs(got - worst) <= 1e-15


def test_stacked_expansion_raises_on_any_bad_row():
    m = explicit_basis().matrix()
    rows = np.eye(16, dtype=complex)[:3].copy()
    rows[1] *= 0.3          # one unnormalized row among normalized ones
    with pytest.raises(hilbert.InvariantError, match="not 1"):
        basis_module._expand(rows, m)
    # an incomplete basis keeps the norm identity but not the reconstruction
    incomplete = m.copy()
    incomplete[:, 5] = 0.0
    with pytest.raises(hilbert.InvariantError, match="reconstruction residual"):
        basis_module._expand(np.stack([m[:, 0], m[:, 5]]), incomplete)


def test_photon_number_operator_equals_the_embedded_one():
    n = np.diag([0.0, 1.0]).astype(complex)
    n_tot = np.kron(n, np.eye(2)) + np.kron(np.eye(2), n)
    embedded = embed(Operator(PHOTONIC_SPACE, n_tot), ["U", "L"], FULL_SPACE).mat
    assert np.array_equal(verify._N_PHOTON, embedded)
