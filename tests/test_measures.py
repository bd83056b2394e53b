"""Unit tests for concurrence, entropy, and the calibrated closed forms."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ges4 import measures

from ges4.hilbert import (HilbertSpace, InvariantError, StateVector, density_matrix,
                          partial_trace, DensityMatrix)
from ges4.circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_DOUBLE_PRIME,
    BRANCH_PRIME,
    SchemeParams,
    closed_form_chi,
)
from ges4.measures import (
    FORMULA_CUT,
    FORMULA_PAIR,
    PAIR_CUTS,
    PAIRS,
    SINGLE_CUTS,
    Bipartition,
    DegenerateBranchError,
    bipartition_entropy,
    calibrate_closed_forms,
    concurrence,
    concurrence_closed_form,
    entropy_closed_form,
    measure_report,
    von_neumann_entropy,
)
from ges4.basis import canonical_state

PI = math.pi
TWO_QUBITS = HilbertSpace.of(("q3", 2), ("q4", 2))


def _bell_rho():
    bell = StateVector(TWO_QUBITS, np.array([1, 0, 0, 1]) / math.sqrt(2))
    return density_matrix(bell)


def test_concurrence_extremes():
    assert abs(concurrence(_bell_rho()) - 1.0) < 1e-12
    product = density_matrix(StateVector(TWO_QUBITS, np.array([1, 0, 0, 0.0])))
    assert concurrence(product) < 1e-12


def test_concurrence_werner_states():
    # C(p) = max(0, (3p - 1)/2) for p |Bell><Bell| + (1-p) I/4
    bell = _bell_rho().mat
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = DensityMatrix(TWO_QUBITS, p * bell + (1.0 - p) * np.eye(4) / 4.0)
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence(rho) - expected) < 1e-10


def test_concurrence_requires_two_qubits():
    rho = density_matrix(StateVector(HilbertSpace.of(("q", 2)), np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        concurrence(rho)


def test_bipartition_construction():
    cut = Bipartition.of("q3", "q1")
    assert cut.side_a == ("q1", "q3")       # canonical qubit order
    assert cut.side_b == ("q2", "q4")
    assert str(Bipartition.of("q1", "q2")) == "q1q2|q3q4"
    with pytest.raises(ValueError):
        Bipartition.of("q5")
    with pytest.raises(ValueError):
        Bipartition(("q1",), ("q2", "q3"))  # not a partition of all four


def test_cut_catalogs():
    assert len(PAIRS) == 6 and len(PAIR_CUTS) == 3 and len(SINGLE_CUTS) == 4


def test_von_neumann_entropy_extremes():
    pure = density_matrix(StateVector(TWO_QUBITS, np.array([1, 0, 0, 0.0])))
    assert von_neumann_entropy(pure) < 1e-12
    mixed = DensityMatrix(HilbertSpace.of(("q", 2)), np.eye(2) / 2.0)
    assert abs(von_neumann_entropy(mixed) - 1.0) < 1e-12
    rank2 = DensityMatrix(TWO_QUBITS, np.diag([0.5, 0.5, 0.0, 0.0]))
    assert abs(von_neumann_entropy(rank2) - 1.0) < 1e-12


def test_bipartition_entropy_known_states():
    ghz = canonical_state("ghz4")
    for cut in (*PAIR_CUTS, *SINGLE_CUTS):
        assert abs(bipartition_entropy(ghz, cut) - 1.0) < 1e-12
    product = StateVector(ATOMIC_SPACE,
                          np.eye(16)[0].astype(complex))
    assert bipartition_entropy(product, PAIR_CUTS[0]) < 1e-12
    # W state: single-qubit entropy is the binary entropy of 1/4
    w4 = canonical_state("w4")
    h_quarter = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    for cut in SINGLE_CUTS:
        assert abs(bipartition_entropy(w4, cut) - h_quarter) < 1e-12


def test_closed_form_spot_values():
    thetas = (PI / 8,) * 4
    assert abs(concurrence_closed_form(thetas, BRANCH_PRIME) - 0.2) < 1e-12
    assert abs(concurrence_closed_form(thetas, BRANCH_DOUBLE_PRIME) - 1.0 / 3.0) < 1e-12
    # the chi' entropy across q1q2|q3q4 equals S(delta = 0.8); a value of
    # 0.8813 (= S at delta 0.4) circulates but matches no cut of the state
    assert abs(entropy_closed_form(thetas, BRANCH_PRIME) - 0.4689955935892811) < 1e-12
    assert abs(entropy_closed_form(thetas, BRANCH_DOUBLE_PRIME) - 1.0) < 1e-12


def test_closed_forms_match_numerics(rng):
    # the formulas describe the (q3, q4) pair and the q1q2|q3q4 cut
    for _ in range(25):
        thetas = tuple(rng.uniform(0.1, 1.4, size=4))
        params = SchemeParams(phi=PI / 2, thetas=thetas)
        for branch in BRANCHES:
            state = closed_form_chi(params, branch).normalized()
            rho_pair = partial_trace(density_matrix(state), list(FORMULA_PAIR))
            assert abs(concurrence(rho_pair)
                       - concurrence_closed_form(thetas, branch)) < 1e-11
            assert abs(bipartition_entropy(state, FORMULA_CUT)
                       - entropy_closed_form(thetas, branch)) < 1e-11


def test_closed_forms_do_not_describe_other_pairs(rng):
    # negative control: the same formula fails decisively on the (q1, q2) pair
    worst = 0.0
    for _ in range(10):
        thetas = tuple(rng.uniform(0.3, 1.2, size=4))
        params = SchemeParams(phi=PI / 2, thetas=thetas)
        state = closed_form_chi(params, BRANCH_PRIME).normalized()
        rho = partial_trace(density_matrix(state), ["q1", "q2"])
        worst = max(worst, abs(concurrence(rho)
                               - concurrence_closed_form(thetas, BRANCH_PRIME)))
    assert worst > 1e-3


def test_degenerate_branch_raises():
    # at theta = 0 the chi'' branch has zero weight
    with pytest.raises(DegenerateBranchError):
        concurrence_closed_form((0.0,) * 4, BRANCH_DOUBLE_PRIME)
    with pytest.raises(DegenerateBranchError):
        entropy_closed_form((0.0,) * 4, BRANCH_DOUBLE_PRIME)
    # the chi' branch stays regular there (delta = 1, entropy 0)
    assert abs(entropy_closed_form((0.0,) * 4, BRANCH_PRIME)) < 1e-12
    assert abs(concurrence_closed_form((0.0,) * 4, BRANCH_PRIME)) < 1e-12


def test_measure_report_target_state(target_prime):
    rep = measure_report(target_prime)
    assert rep.is_genuine
    assert max(rep.pairwise_concurrence.values()) < 1e-10
    for value in (*rep.pair_entropy.values(), *rep.single_entropy.values()):
        assert abs(value - 1.0) < 1e-10
    d = rep.as_dict()
    assert set(d) == {"pairwise_concurrence", "pair_entropy", "single_entropy",
                      "is_genuine"}
    assert "q3q4" in d["pairwise_concurrence"]
    assert "q1q2|q3q4" in d["pair_entropy"]


def test_measure_report_w_state_not_genuine():
    rep = measure_report(canonical_state("w4"))
    assert not rep.is_genuine
    # every pair of a W state carries concurrence 1/2
    for c in rep.pairwise_concurrence.values():
        assert abs(c - 0.5) < 1e-9


def test_measure_report_input_validation():
    with pytest.raises(ValueError):
        measure_report(StateVector(HilbertSpace.of(("q", 2)), np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        measure_report(StateVector(ATOMIC_SPACE, 0.5 * np.eye(16)[0]))


def test_calibration_is_decisive():
    cal = calibrate_closed_forms(n_samples=20, seed=99)
    for branch in BRANCHES:
        assert cal["matching_pairs"][branch] == ["q3q4"]
        assert cal["matching_cuts"][branch] == ["q1q2|q3q4"]
    assert cal["formula_pair"] == "q3q4"
    assert cal["formula_cut"] == "q1q2|q3q4"


def test_schmidt_symmetry_violation_raises(monkeypatch):
    sides = iter([0.0, 1.0])
    monkeypatch.setattr(measures, "von_neumann_entropy", lambda rho: next(sides))
    with pytest.raises(InvariantError, match="Schmidt symmetry"):
        bipartition_entropy(canonical_state("ghz4"), SINGLE_CUTS[0])


def test_invariant_check_survives_optimized_mode():
    # `python -O` strips asserts; the invariant must still raise there
    code = (
        "import sys\n"
        "from ges4 import measures\n"
        "from ges4.basis import canonical_state\n"
        "sides = iter([0.0, 1.0])\n"
        "measures.von_neumann_entropy = lambda rho: next(sides)\n"
        "try:\n"
        "    measures.bipartition_entropy(canonical_state('ghz4'), measures.SINGLE_CUTS[0])\n"
        "except measures.InvariantError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = str(Path(measures.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "raised 1", out.stderr
