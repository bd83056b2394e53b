"""Unit tests for concurrence, entropy, and the calibrated closed forms."""

import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ges4 import circuit, measures

from ges4.hilbert import (EIG_TOL, HilbertSpace, InvariantError, StateVector,
                          density_matrix, partial_trace, DensityMatrix)
from ges4.circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_DOUBLE_PRIME,
    BRANCH_PRIME,
    QUBIT_LABELS,
    DetectionOutcome,
    SchemeParams,
    closed_form_pair,
    detect,
    evolve,
    photon_branch,
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
    _svd_measures,
    measure_report,
    von_neumann_entropy,
)
from ges4.basis import canonical_state, explicit_basis, generate_basis

PI = math.pi
TWO_QUBITS = HilbertSpace(("q3", "q4"))


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
    rho = density_matrix(StateVector(HilbertSpace(("q",)), np.array([1.0, 0.0])))
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
    # a side that names a qubit twice, covering all four labels or not
    for side_a, side_b in ((("q1", "q1"), ("q2", "q3", "q4")),
                           (("q1", "q2"), ("q3", "q4", "q4")),
                           (("q1", "q1", "q2"), ("q3", "q4"))):
        with pytest.raises(ValueError, match="must partition"):
            Bipartition(side_a, side_b)
    with pytest.raises(ValueError, match="'q1' is named twice"):
        Bipartition.of("q1", "q1")
    with pytest.raises(ValueError, match="'q3' is named twice"):
        Bipartition.of("q3", "q2", "q3")


def test_cut_catalogs():
    assert len(PAIRS) == 6 and len(PAIR_CUTS) == 3 and len(SINGLE_CUTS) == 4


def test_von_neumann_entropy_extremes():
    pure = density_matrix(StateVector(TWO_QUBITS, np.array([1, 0, 0, 0.0])))
    assert von_neumann_entropy(pure) < 1e-12
    mixed = DensityMatrix(HilbertSpace(("q",)), np.eye(2) / 2.0)
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
        for branch, chi in zip(BRANCHES, closed_form_pair(params)):
            state = chi.normalized()
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
        state = closed_form_pair(params)[0].normalized()
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
        measure_report(StateVector(HilbertSpace(("q",)), np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        measure_report(StateVector(ATOMIC_SPACE, 0.5 * np.eye(16)[0]))


def test_calibration_is_decisive():
    cal = calibrate_closed_forms(seed=99)
    assert set(cal) == {"pair_max_dev", "cut_max_dev", "matching_pairs", "matching_cuts"}
    for branch in BRANCHES:
        # the matches verify checks: exactly the frozen pair and cut
        assert cal["matching_pairs"][branch] == ["".join(FORMULA_PAIR)] == ["q3q4"]
        assert cal["matching_cuts"][branch] == [str(FORMULA_CUT)] == ["q1q2|q3q4"]


def test_calibration_draws_a_fixed_number_of_rows(monkeypatch):
    # no sample count can be asked for, so no empty draw can match every candidate
    assert list(inspect.signature(calibrate_closed_forms).parameters) == ["seed"]
    for kwargs in ({"n_samples": 0}, {"n_samples": 40, "seed": 1}):
        with pytest.raises(TypeError):
            calibrate_closed_forms(**kwargs)
    with pytest.raises(TypeError):
        calibrate_closed_forms(0, 1)
    shapes = []
    real = measures._closed_form_measures

    def recording(thetas):
        shapes.append(thetas.shape)
        return real(thetas)

    monkeypatch.setattr(measures, "_closed_form_measures", recording)
    calibrate_closed_forms()
    assert shapes == [(measures._CALIBRATION_SAMPLES, 4)] == [(40, 4)]


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


def test_measure_report_symmetry_check_survives_optimized_mode():
    # measure_report's own Schmidt-symmetry check runs on the kernel; corrupt
    # the side_b gather of the two-two cuts (a repeated row changes those
    # matrices' spectra) and it must raise, also under `python -O`
    code = (
        "import sys\n"
        "from ges4 import measures\n"
        "from ges4.basis import canonical_state\n"
        "real = measures._gather\n"
        "def corrupted(sides):\n"
        "    index = real(sides).copy()\n"
        "    if sides == measures.PAIRS + measures._PAIR_CUT_SIDES:\n"
        "        index[9:, 1] = index[9:, 0]\n"
        "    return index\n"
        "measures._gather = corrupted\n"
        "try:\n"
        "    measures.measure_report(canonical_state('ghz4'))\n"
        "except measures.InvariantError as exc:\n"
        "    print('raised', sys.flags.optimize, str(exc).startswith('Schmidt symmetry'))\n"
    )
    src = str(Path(measures.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "raised 1 True", out.stderr


# ---------------------------------------------------------------------------
# amplitude kernel vs the density-matrix oracle

ALL_CUTS = (*PAIR_CUTS, *SINGLE_CUTS)


def _state(amp) -> StateVector:
    amp = np.asarray(amp, dtype=complex)
    return StateVector(ATOMIC_SPACE, amp / np.linalg.norm(amp))


def _qubit(theta, phase=0.0):
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phase)])


def _kron(*factors):
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def _near_empty_branch(weight: float) -> StateVector:
    # At phi = pi/2, theta_i = e gives the chi'' branch the weight 4 e^2.
    e = math.sqrt(weight) / 2.0
    return photon_branch(evolve(SchemeParams(PI / 2, (e, e, e, e))), 1, 0).normalized()


SPECIAL_STATES = {
    "product": _state(_kron(_qubit(0.3, 0.5), _qubit(1.1, -0.2),
                            _qubit(0.7, 2.0), _qubit(0.2, 0.1))),
    **{name: canonical_state(name) for name in ("ghz4", "w4", "cl4", "d4")},
    "bell12_product": _state(_kron(_BELL, _qubit(0.3, 0.5), _qubit(1.1, -0.2))),
    "bell34_product": _state(_kron(_qubit(0.3, 0.5), _qubit(1.1, -0.2), _BELL)),
    # Bell pair on the non-adjacent qubits q1, q3
    "bell13_product": _state(_kron(_BELL, _qubit(0.9), _qubit(0.4, 1.0))
                             .reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)),
    **{f"basis_{i:04b}": _state(np.eye(16)[i]) for i in range(16)},
    "branch_weight_1e-12": _near_empty_branch(1e-12),
}


def _conc(amps, pairs) -> np.ndarray:
    """The kernel's concurrences of `pairs` alone, (..., len(pairs))."""
    return _svd_measures(amps, tuple(pairs), ())[0]


def _ent(amps, sides) -> np.ndarray:
    """The kernel's cut entropies of `sides` alone, (..., len(sides))."""
    return _svd_measures(amps, (), tuple(sides))[1]


_EPS = float(np.finfo(float).eps)


def _dense_allowance(state: StateVector, pair) -> float:
    """Bound on the dense route's concurrence error at a pair, from its
    eigenvalue roundoff, and never below EIG_TOL.

    `concurrence(rho)` square-roots the eigenvalues w_k that `eigh` gives
    for the pair's reduction, each off by about eps * w_max. An eigenvalue
    it keeps passes that on to sqrt(rho) as eps * w_max / (2 sqrt(w_k)); one
    at or below its cutoff, 4 eps * w_max, plus that roundoff, is dropped
    whole, an error of sqrt(w_k). Each of the four singular values of
    sqrt(rho) (sy x sy) sqrt(rho)* then moves by at most 2 sqrt(w_max) times
    the error in sqrt(rho), so the concurrence by 8 sqrt(w_max) times the
    sum. The w_k are the squared singular values of the pair-by-rest matrix,
    which keep small eigenvalues to eps relative to the largest.
    """
    i, j = (QUBIT_LABELS.index(q) for q in pair)
    m = np.moveaxis(state.amp.reshape(2, 2, 2, 2), (i, j), (0, 1)).reshape(4, 4)
    w = np.linalg.svd(m, compute_uv=False) ** 2
    dropped = w <= 5.0 * _EPS * w[0]
    err = np.where(dropped, np.sqrt(w), _EPS * w[0] / (2.0 * np.sqrt(np.where(dropped, 1.0, w))))
    return max(EIG_TOL, 8.0 * math.sqrt(w[0]) * float(err.sum()))


def _oracle_concurrence(state: StateVector, pair) -> tuple[float, float]:
    """Dense concurrence of a pair and `_dense_allowance` for its error."""
    rho = partial_trace(density_matrix(state), list(pair))
    return concurrence(rho), _dense_allowance(state, pair)


def _assert_kernel_matches_oracle(state: StateVector) -> None:
    for pair in PAIRS:
        # The dense route takes square roots of the reduction's eigenvalues,
        # so an eigenvalue of ~1e-15 turns eigh's eps-size roundoff into an
        # error of ~1e-9 (1.31e-9 on `_SMALL_EIGENVALUE_PARTS`, against an
        # allowance of 1.2e-8 there); the kernel stays within 1e-15 of the
        # 40-digit value.
        dense, tol = _oracle_concurrence(state, pair)
        assert abs(float(_conc(state.amp, [pair])[0]) - dense) <= tol, pair
    for cut in ALL_CUTS:
        got = float(_ent(state.amp, [cut.side_a])[0])
        assert abs(got - bipartition_entropy(state, cut)) <= EIG_TOL, str(cut)
        assert abs(float(_ent(state.amp, [cut.side_b])[0]) - got) <= EIG_TOL


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
def test_kernel_matches_dense_oracle_on_random_states(parts):
    amp = np.array(parts[:16]) + 1j * np.array(parts[16:])
    assume(np.linalg.norm(amp) > 1e-3)
    _assert_kernel_matches_oracle(_state(amp))


@pytest.mark.parametrize("name", sorted(SPECIAL_STATES))
def test_kernel_matches_dense_oracle_on_special_states(name):
    _assert_kernel_matches_oracle(SPECIAL_STATES[name])


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(3e-7, 3e-6),
       thetas=st.lists(st.floats(0.1, 1.4), min_size=4, max_size=4))
def test_kernel_matches_dense_oracle_on_near_empty_branches(phi, thetas):
    # Close to phi = 0 the photon almost always leaves towards D2, so the
    # D1 branch keeps a weight of about 1e-13 to 1e-11.
    chi = photon_branch(evolve(SchemeParams(phi, tuple(thetas))), 1, 0)
    assert chi.norm ** 2 < 1e-10
    _assert_kernel_matches_oracle(chi.normalized())


def _assert_report_matches_oracle(state: StateVector) -> None:
    """measure_report, which runs the kernel, against the density-matrix route."""
    report = measure_report(state)
    for pair in PAIRS:
        dense, tol = _oracle_concurrence(state, pair)
        assert abs(report.pairwise_concurrence[pair] - dense) <= tol, pair
    for cut in PAIR_CUTS:
        assert abs(report.pair_entropy[cut] - bipartition_entropy(state, cut)) <= EIG_TOL, str(cut)
    for cut in SINGLE_CUTS:
        got = report.single_entropy[cut.side_a[0]]
        assert abs(got - bipartition_entropy(state, cut)) <= EIG_TOL, str(cut)
    assert report.is_genuine == (
        all(c <= measures.GENUINE_CONCURRENCE_TOL for c in report.pairwise_concurrence.values())
        and all(s >= 1.0 - measures.GENUINE_ENTROPY_TOL
                for s in (*report.pair_entropy.values(), *report.single_entropy.values())))


# Real then imaginary parts of (|0010>(1+i) + |1011> + 1.19e-7 i|1101> +
# i|1110>)/2: a Hypothesis draw on which the dense route is 1.31e-9 off on
# q1q2 and q1q4, whose reductions keep an eigenvalue of 2.4e-15.
_SMALL_EIGENVALUE_PARTS = [1.0 if k in (2, 11, 18, 30) else 1.192092896e-07 if k == 29
                           else 0.0 for k in range(32)]


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
       zeros=st.lists(st.booleans(), min_size=16, max_size=16))
@example(parts=_SMALL_EIGENVALUE_PARTS, zeros=[False] * 16)
def test_measure_report_matches_dense_oracle_on_random_states(parts, zeros):
    # `zeros` blanks a random subset of amplitudes, so sparse states with
    # rank-deficient reductions are drawn as well as dense ones
    amp = np.array(parts[:16]) + 1j * np.array(parts[16:])
    sparse = np.where(zeros, 0.0, amp)
    for candidate in (amp, sparse):
        if np.linalg.norm(candidate) > 1e-3:
            _assert_report_matches_oracle(_state(candidate))


@pytest.mark.parametrize("name", sorted(SPECIAL_STATES))
def test_measure_report_matches_dense_oracle_on_special_states(name):
    _assert_report_matches_oracle(SPECIAL_STATES[name])


@pytest.mark.parametrize("basis_name", ["explicit", "generated"])
def test_measure_report_matches_dense_oracle_on_the_basis(basis_name):
    basis = explicit_basis() if basis_name == "explicit" else generate_basis()
    for state in basis.states.values():
        _assert_report_matches_oracle(state)
        assert measure_report(state).is_genuine


@settings(max_examples=25, deadline=None)
@given(weight=st.floats(4e-14, 1e-11),
       thetas=st.lists(st.floats(0.1, 1.4), min_size=4, max_size=4))
def test_measure_report_matches_dense_oracle_on_near_empty_branches(weight, thetas):
    # Two near-empty D1 branches: phi = pi/2 with equal small thetas (weight
    # exactly `weight`), and phi = sqrt(weight) with random thetas (weight
    # within a factor of 4 of it, as it grows like phi^2 near phi = 0).
    chi = photon_branch(evolve(SchemeParams(math.sqrt(weight), tuple(thetas))), 1, 0)
    assert chi.norm ** 2 < 1e-10
    _assert_report_matches_oracle(chi.normalized())
    _assert_report_matches_oracle(_near_empty_branch(weight))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _kernel_batch(kind: str) -> np.ndarray:
    """A normalized (5, 2, 16) batch: random, sparse, product or Bell x product."""
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(5, 2, 16)) + 1j * rng.normal(size=(5, 2, 16))
    if kind == "sparse":
        zeros = rng.random((5, 2, 16)) < 0.7
        zeros[..., 0] = False
        amps[zeros] = 0.0
    elif kind in ("product", "bell_product"):
        q = rng.normal(size=(5, 2, 4, 2)) + 1j * rng.normal(size=(5, 2, 4, 2))
        if kind == "product":
            amps = np.einsum("...a,...b,...c,...d->...abcd", *np.moveaxis(q, -2, 0))
        else:
            amps = np.einsum("ab,...c,...d->...abcd", _BELL.reshape(2, 2),
                             q[..., 0, :], q[..., 1, :])
        amps = amps.reshape(5, 2, 16)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def test_kernel_stacked_equals_one_at_a_time():
    # Pairs and cuts in one call equal each group alone, each side alone and
    # each row alone, as uint64; the 4x4 and the 2x8 matrices are stacked
    # the way `_measure_reports` stacks them.
    two_two = measures._PAIR_CUT_SIDES
    single = measures._SINGLE_CUT_SIDES
    for kind in ("random", "sparse", "product", "bell_product"):
        amps = _kernel_batch(kind)
        conc, ent = _svd_measures(amps, PAIRS, two_two)
        assert conc.shape == (5, 2, 6) and ent.shape == (5, 2, 6)
        assert np.array_equal(_bits(_conc(amps, PAIRS)), _bits(conc)), kind
        assert np.array_equal(_bits(_ent(amps, two_two)), _bits(ent)), kind
        single_ent = _ent(amps, single)
        assert single_ent.shape == (5, 2, 4)
        for values, sides, one in ((conc, PAIRS, _conc), (ent, two_two, _ent),
                                   (single_ent, single, _ent)):
            for k, side in enumerate(sides):
                assert np.array_equal(_bits(one(amps, [side])[..., 0]),
                                      _bits(values[..., k])), (kind, side)
                for i, j in np.ndindex(5, 2):
                    assert _bits(one(amps[i, j], [side])[0]) == _bits(values[i, j, k])


@pytest.mark.parametrize("pairs, cuts, bad", [
    (PAIRS, (("q1",),), ("q1",)),
    ((), (("q1", "q2"), ("q1", "q2", "q3")), ("q1", "q2", "q3")),
    ((), (("q5",),), ("q5",)),
    ((), (("q1", "q1"),), ("q1", "q1")),
    ((), (("q1", "q2", "q3", "q4"),), ("q1", "q2", "q3", "q4")),
], ids=["single_beside_pairs", "three_beside_two", "unknown", "repeated", "all_four"])
def test_kernel_names_a_side_that_does_not_fit(pairs, cuts, bad):
    amps = _kernel_batch("random")
    for call in (_svd_measures, measures._branch_measures):
        with pytest.raises(ValueError) as err:
            call(amps, pairs, cuts)
        assert str(err.value) == (
            f"side {bad!r} does not fit: one call's sides must all be two-qubit (4x4), "
            "or all one- or three-qubit (2x8), over q1..q4")


def test_svd_calls_per_sweep_block_calibration_and_report(monkeypatch, capsys):
    # One SVD call per sweep block (a 4200-point grid is two blocks), one per
    # closed-form calibration and two per measure_report. A sweep block
    # factors its nonempty branches alone: an empty one's cells read nan.
    import csv
    import io

    from ges4 import cli

    calls = []
    real_svd = np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert cli.main(["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:1400", "--csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    live = [sum(row[f"conc_numeric_{b}"] != "nan" for b in BRANCHES) for row in rows]
    assert calls == [(sum(live[:4096]), 2, 4, 4), (sum(live[4096:]), 2, 4, 4)]
    assert sum(live) < 2 * len(rows) == 2 * 4200      # phi = 0 empties a branch
    calls.clear()
    calibrate_closed_forms()
    assert calls == [(80, 9, 4, 4)]
    calls.clear()
    measure_report(canonical_state("w4"))
    assert calls == [(1, 12, 4, 4), (1, 4, 2, 8)]


def _report_rows(report) -> tuple[np.ndarray, np.ndarray]:
    """A report's concurrences in PAIRS order and entropies in ALL_CUTS order."""
    conc = np.array([report.pairwise_concurrence[pair] for pair in PAIRS])
    ent = np.array([report.pair_entropy[cut] for cut in PAIR_CUTS]
                   + [report.single_entropy[cut.side_a[0]] for cut in SINGLE_CUTS])
    return conc, ent


def _assert_stacked_rows_equal_one_row_reports(states) -> None:
    # Bit for bit: the stacked reports' rows, the one-row measure_report, and
    # the kernel's one-group calls on the pairs and on each kind of cut.
    stacked = measures._measure_reports(states)
    assert len(stacked) == len(states)
    for k, state in enumerate(states):
        report = measure_report(state)
        c, e = _report_rows(report)
        conc, ent = _report_rows(stacked[k])
        assert np.array_equal(_bits(c), _bits(conc)) and np.array_equal(_bits(e), _bits(ent)), k
        assert stacked[k] == report
        assert np.array_equal(c, _conc(state.amp, PAIRS))
        assert np.array_equal(e, np.concatenate([
            _ent(state.amp, [cut.side_a for cut in PAIR_CUTS]),
            _ent(state.amp, [cut.side_a for cut in SINGLE_CUTS])]))


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
       zeros=st.lists(st.booleans(), min_size=16, max_size=16),
       angles=st.lists(st.floats(0.0, PI), min_size=8, max_size=8))
def test_stacked_measures_equal_one_row_reports_bit_for_bit(parts, zeros, angles):
    # dense, sparse, a product state (every reduction of rank 1) and a Bell
    # pair times a product (rank-deficient pair reductions)
    amp = np.array(parts[:16]) + 1j * np.array(parts[16:])
    qubits = [_qubit(theta, phase) for theta, phase in zip(angles[:4], angles[4:])]
    candidates = (amp, np.where(zeros, 0.0, amp), _kron(*qubits),
                  _kron(_BELL, qubits[0], qubits[1]))
    states = [_state(a) for a in candidates if np.linalg.norm(a) > 1e-3]
    _assert_stacked_rows_equal_one_row_reports(states)


@pytest.mark.parametrize("group", ["explicit", "generated", "special"])
def test_stacked_measures_equal_one_row_reports_on_the_basis_and_special_states(group):
    if group == "special":
        states = [SPECIAL_STATES[name] for name in sorted(SPECIAL_STATES)]
    else:
        basis = explicit_basis() if group == "explicit" else generate_basis()
        states = list(basis.states.values())
    _assert_stacked_rows_equal_one_row_reports(states)


def _mp_concurrence(amp, pair, dps: int = 40):
    """Wootters concurrence from its definition, in dps-digit arithmetic:
    descending square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy),
    with rho the pair's reduction of the (exactly converted) amplitudes."""
    mp = mpmath.mp
    pair = [QUBIT_LABELS.index(q) for q in pair]
    with mp.workdps(dps):
        rest = [q for q in range(4) if q not in pair]
        m = mp.matrix(4, 4)
        for idx in range(16):
            bits = [(idx >> (3 - q)) & 1 for q in range(4)]
            m[2 * bits[pair[0]] + bits[pair[1]], 2 * bits[rest[0]] + bits[rest[1]]] = (
                mp.mpc(float(amp[idx].real), float(amp[idx].imag)))
        rho = m * m.H
        yy = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        mu = mp.eig(rho * yy * rho.conjugate() * yy, left=False, right=False)
        lam = sorted((mp.sqrt(max(mp.re(x), 0)) for x in mu), reverse=True)
        return max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


# The dense route's bound at rank-deficient pairs: its worst case here is
# 1.02e-15 (the D1 branch's q1q2). Before it zeroed the eigenvalues at
# roundoff level it was off by 4.1e-12, 8.0e-10 and 1.4e-8 on these states.
_DENSE_EXACT_TOL = 2e-15


def test_measure_report_concurrence_is_exact_at_a_nearly_rank_deficient_pair():
    # D1 branch of weight 0.0063, whose q1q2 reduction has rank 2
    params = SchemeParams(phi=3.19769, thetas=(1.468, 1.509, 0.747, 1.128))
    state, _ = detect(evolve(params), DetectionOutcome.D1_CLICK_D2_NULL, eta=1.0)
    exact = _mp_concurrence(state.amp, ("q1", "q2"))
    reported = measure_report(state).pairwise_concurrence[("q1", "q2")]
    assert abs(reported - exact) <= 1e-15
    assert abs(float(_conc(state.amp, [("q1", "q2")])[0]) - exact) <= 1e-15
    assert abs(_oracle_concurrence(state, ("q1", "q2"))[0] - exact) <= _DENSE_EXACT_TOL


def test_kernel_is_exact_where_the_dense_route_loses_digits():
    parts = np.array(_SMALL_EIGENVALUE_PARTS)
    state = _state(parts[:16] + 1j * parts[16:])
    report = measure_report(state)
    for value, pair in zip(_conc(state.amp, PAIRS), PAIRS):
        exact = _mp_concurrence(state.amp, pair)
        assert abs(value - exact) <= 1e-15, pair
        assert abs(report.pairwise_concurrence[pair] - exact) <= 1e-15, pair
        dense, tol = _oracle_concurrence(state, pair)
        assert abs(dense - exact) <= tol, pair


def test_kernel_and_dense_concurrence_are_exact_at_rank_deficient_pairs():
    # Rank-deficient pair reductions: the near-empty branch at phi = pi/2 and
    # a sparse real state. Both routes stay within roundoff of the 40-digit
    # value on every pair.
    sparse = np.zeros(16, dtype=complex)
    sparse[[0b0000, 0b0010, 0b0011, 0b1010, 0b1110]] = [-1.4, 0.4, 0.2, 2.4, -0.2]
    for state in (_near_empty_branch(1e-11), _state(sparse)):
        got = _conc(state.amp, PAIRS)
        for value, pair in zip(got, PAIRS):
            exact = _mp_concurrence(state.amp, pair)
            assert abs(value - exact) <= 1e-15, pair
            assert abs(_oracle_concurrence(state, pair)[0] - exact) <= _DENSE_EXACT_TOL, pair


# ---------------------------------------------------------------------------
# batched closed forms and Gamma vs their one-row wrappers

_CF_ANGLE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, PI / 4, PI / 2]))
_CF_ROWS = st.lists(st.lists(_CF_ANGLE, min_size=4, max_size=4), min_size=1, max_size=6)


def _math_reference(thetas):
    """Gamma, lambda and S of both branches as scalar `math` code, with the
    operations in the order the batched code keeps; NaN where undefined, that
    is where the branch's Gamma = den / 2 is below the empty weight 1e-12."""
    x = [math.cos(2.0 * t) for t in thetas]
    prod = x[0] * x[1] * x[2] * x[3]
    gammas = ((1.0 + prod) / 2.0, (1.0 - prod) / 2.0)
    cells = []
    for sign in (1.0, -1.0):
        den = 1.0 + sign * prod
        if den / 2.0 < 1e-12:
            cells.append((math.nan, math.nan, 0.0))
            continue
        num = abs(x[0] * x[1] * math.sin(2.0 * thetas[2]) * math.sin(2.0 * thetas[3]))
        delta = (x[2] * x[3] + sign * x[0] * x[1]) / den
        d = min(abs(delta), 1.0)
        terms = [v * math.log2(v) if v > 0.0 else 0.0 for v in (1.0 + d, 1.0 - d)]
        cells.append((max(0.0, num / den), 1.0 - 0.5 * (terms[0] + terms[1]), delta))
    return gammas, cells


def _scalar_cell(closed_form, thetas, branch):
    try:
        return closed_form(thetas, branch)
    except DegenerateBranchError:
        return math.nan


def _same(got, want) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=150, deadline=None)
@given(rows=_CF_ROWS)
# Gamma_2 = 5.2e-13 and 8.1e-13: empty branches whose 1 - prod is above 1e-12
@example(rows=[[3.6e-7] * 4])
@example(rows=[[4.5e-7] * 4, [-4.5e-7, 4.5e-7, 4.5e-7, 4.5e-7]])
def test_batched_closed_forms_and_gammas_equal_the_scalar_ones_bit_for_bit(rows):
    reference = [_math_reference(thetas) for thetas in rows]
    if any(abs(delta) > 1.0 + 1e-12 for _, cells in reference for *_, delta in cells):
        with pytest.raises(measures.ClosedFormInconsistencyError):
            measures._closed_form_measures(rows)
        return
    gammas, lam, entropy = measures._closed_form_measures(rows)
    assert np.array_equal(gammas, circuit._angle_terms(rows)[2])
    for n, (thetas, (want_gammas, cells)) in enumerate(zip(rows, reference)):
        assert tuple(gammas[n].tolist()) == want_gammas == circuit.gamma_factors(thetas)
        for j, (branch, (want_lam, want_s, _)) in enumerate(zip(BRANCHES, cells)):
            assert _same(float(lam[n, j]), want_lam), (n, branch)
            assert _same(float(entropy[n, j]), want_s), (n, branch)
            assert _same(_scalar_cell(concurrence_closed_form, thetas, branch), want_lam)
            assert _same(_scalar_cell(entropy_closed_form, thetas, branch), want_s)
    # a branch is undefined exactly where its probability Gamma is below 1e-12,
    # the weight below which `_branch_measures` finds no state
    undefined = gammas < 1e-12
    assert np.array_equal(np.isnan(lam), undefined)
    assert np.array_equal(np.isnan(entropy), undefined)


def test_degenerate_edges_give_nan_in_batch_and_raise_one_row():
    rows = [(0.0,) * 4, (PI / 2,) * 4, (0.0, PI / 2, 0.0, PI / 2), (PI / 4,) * 4]
    _, lam, entropy = measures._closed_form_measures(rows)
    # prod cos 2theta = 1, 1, 1, 0: chi'' is empty on the first three rows
    assert np.isnan(lam[:3, 1]).all() and np.isnan(entropy[:3, 1]).all()
    assert not np.isnan(lam[:, 0]).any() and not np.isnan(lam[3]).any()
    for thetas in rows[:3]:
        with pytest.raises(DegenerateBranchError):
            concurrence_closed_form(thetas, BRANCH_DOUBLE_PRIME)
        with pytest.raises(DegenerateBranchError):
            entropy_closed_form(thetas, BRANCH_DOUBLE_PRIME)


def test_batched_entropy_raises_on_the_first_delta_out_of_range(monkeypatch):
    delta = np.array([[0.5, math.nan], [1.0 + 1e-13, -1.5], [2.0, 0.0]])
    monkeypatch.setattr(measures, "_lambda_delta",
                        lambda thetas: (np.full((3, 2), 0.5), np.zeros((3, 2)), delta))
    with pytest.raises(measures.ClosedFormInconsistencyError, match=r"^delta = -1.5 lies"):
        measures._closed_form_measures([(0.1,) * 4] * 3)
    # overshoot within 1e-12 is roundoff: S(1) = 0
    delta[1:] = [[1.0 + 1e-13, -1.0], [0.0, 0.0]]
    *_, entropy = measures._closed_form_measures([(0.1,) * 4] * 3)
    assert np.isnan(entropy[0, 1])
    assert entropy[1].tolist() == [0.0, 0.0] and entropy[2].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("thetas", [(0.1, 0.2, math.inf, 0.3), (math.nan,) * 4, (0.1, 0.2)])
def test_closed_forms_reject_non_finite_or_missing_angles(thetas):
    for closed_form in (concurrence_closed_form, entropy_closed_form):
        with pytest.raises(ValueError):
            closed_form(thetas, BRANCH_PRIME)
    with pytest.raises(ValueError):
        circuit.gamma_factors(thetas)


@pytest.mark.parametrize("edge", [0.0, PI / 2])
def test_closed_forms_raise_exactly_where_the_branch_has_no_state(edge):
    # At phi = pi/2, chi'' weighs about 4 eps^2 at theta_i = edge + eps and
    # empties below 1e-12 at |eps| = 5e-7: its closed forms must stop where
    # `_branch_measures` finds no state, not at half that weight. The closed
    # form's Gamma = (1 - prod)/2 holds only ~4 digits there (1.0000889e-12
    # against a weight of 1e-12 at 5e-7), so the grid keeps 1 % away from it.
    eps = np.linspace(-2e-6, 2e-6, 160)
    assert (np.abs(np.abs(eps) - 5e-7) > 5e-9).all()
    thetas = np.repeat(edge + eps[:, None], 4, axis=1)
    amps = circuit._closed_form_pairs(np.full(len(thetas), PI / 2), thetas)
    conc, _ = measures._branch_measures(amps, (FORMULA_PAIR,), (FORMULA_CUT.side_a,))
    empty = np.isnan(conc[..., 0])
    assert not empty[:, 0].any() and 0 < empty[:, 1].sum() < len(thetas)
    _, lam, entropy = measures._closed_form_measures(thetas)
    assert np.array_equal(np.isnan(lam), empty) and np.array_equal(np.isnan(entropy), empty)
    for row, row_empty in zip(thetas.tolist(), empty.tolist()):
        for branch, is_empty in zip(BRANCHES, row_empty):
            for closed_form in (concurrence_closed_form, entropy_closed_form):
                if is_empty:
                    with pytest.raises(DegenerateBranchError):
                        closed_form(row, branch)
                else:
                    assert math.isfinite(closed_form(row, branch))


# ---------------------------------------------------------------------------
# angles whose double overflows: 2 theta is infinite above half the largest float

_HALF_MAX = np.finfo(float).max / 2.0
_HUGE = [1e308, -1e308, 1.2345e308, float(np.finfo(float).max),
         float(np.nextafter(_HALF_MAX, np.inf))]


def test_closed_forms_and_gammas_take_angles_whose_double_overflows():
    rows = [[t] * 4 for t in _HUGE] + [_HUGE[:4], [1e308, 0.3, -1e308, 1.1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's overflow warnings included
        cos2, sin2, _ = circuit._angle_terms(rows)
        for thetas in rows:
            g1, g2 = circuit.gamma_factors(thetas)
            assert min(g1, g2) > 1e-5 and abs(g1 + g2 - 1.0) <= 1e-15
            for branch in BRANCHES:
                assert math.isfinite(concurrence_closed_form(thetas, branch))
                assert math.isfinite(entropy_closed_form(thetas, branch))
    # the double-angle identity against mpmath, which reduces any argument exactly
    for row, c_row, s_row in zip(rows, cos2.tolist(), sin2.tolist()):
        for t, c, s in zip(row, c_row, s_row):
            assert abs(c - float(mpmath.cos(2 * mpmath.mpf(t)))) <= 4e-16, t
            assert abs(s - float(mpmath.sin(2 * mpmath.mpf(t)))) <= 4e-16, t


def test_double_angles_keep_their_bits_where_two_theta_is_finite():
    rng = np.random.default_rng(20261019)
    signs = rng.choice([-1.0, 1.0], 4000)
    th = np.concatenate([rng.uniform(-10.0, 10.0, 4000),
                         signs * 10.0 ** rng.uniform(-300.0, 307.95, 4000),
                         [0.0, -0.0, PI / 4, _HALF_MAX, -_HALF_MAX]])
    th = np.concatenate([th, [0.0] * (-len(th) % 4)]).reshape(-1, 4)    # rows of four
    for fn, got in zip((np.cos, np.sin), circuit._angle_terms(th)):
        assert np.array_equal(got.view(np.uint64), fn(2.0 * th).view(np.uint64))


def _old_delta_entropy(delta):
    """`measures._delta_entropy` as it was, with its nested `xlog2x`, frozen."""
    if abs(delta) > 1.0 + 1e-12:
        raise measures.ClosedFormInconsistencyError(f"delta = {delta} lies outside [-1, 1]")

    def xlog2x(x: float) -> float:
        return x * math.log2(x) if x > 0.0 else 0.0
    d = min(abs(delta), 1.0)
    return 1.0 - 0.5 * (xlog2x(1.0 + d) + xlog2x(1.0 - d))


def test_delta_entropy_is_bit_identical_to_the_nested_closure_form():
    rng = np.random.default_rng(20261019)
    n = 50_000
    signs = rng.choice([-1.0, 1.0], (3, n))
    deltas = np.concatenate([
        rng.uniform(-1.0, 1.0, n),
        signs[0] * (1.0 - 10.0 ** rng.uniform(-17.0, 0.0, n)),      # near |delta| = 1
        signs[1] * 10.0 ** rng.uniform(-320.0, 0.0, n),            # near 0
        signs[2] * (1.0 + rng.uniform(0.0, 1e-12, n)),             # roundoff overshoot
        [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 5e-324, np.nextafter(1.0, 0.0)],
    ]).tolist()
    assert len(deltas) >= 200_000
    got = np.array([measures._delta_entropy(d) for d in deltas])
    want = np.array([_old_delta_entropy(d) for d in deltas])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for delta in (1.0 + 2e-12, -1.5):
        for form in (measures._delta_entropy, _old_delta_entropy):
            with pytest.raises(measures.ClosedFormInconsistencyError):
                form(delta)
