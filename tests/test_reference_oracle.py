"""The third oracle: `bench/reference.py` and the reference code below
against the circuit kernel, the branch measures, detection and the
representation, over the whole parameter domain.

`bench/reference.py` rebuilds the interferometer from its phase structure
and the measures from amplitude reshapes, and shares no code with ges4. It
is loaded by path, as `test_tooling.py` loads `spans.py`. phi and theta run
over [-10, 10] and the edges theta in {0, pi/4, pi/2}, phi in {0, pi/2, pi},
and theta near 0 at phi = pi/2, where the chi'' branch weight Gamma_2 goes
to 0 and its measures turn to NaN.

Detection is checked against `_reference_detection`, the eta-POVM written
out from the physics: a photon in mode U (L) fires D1 (D2) with probability
eta. Its states are the interferometer's, with and without up to STRUCT_TOL
of weight in |00> and |11> (which no outcome reads), and states whose two
branches are near-parallel, both where the pure/mixed decision takes
`_detect`'s SVD and around its `_MIXED_MARGIN` shortcut. The representation
is checked against `_reference_coefficients`, c_k = <phi_k|psi> by one
`np.vdot` per basis state, on random, sparse and conditioned states. The
sixteen basis states are checked against the paper's construction: the
reference's D2 branch at the operating point under Pauli strings written out
with `np.kron`.

The command line is checked end to end: the `--json` output of every
`simulate`, `decompose`, `basis` and `sweep` golden argv, and of random
decimal `simulate` and `sweep` argv, has each of its numbers recomputed from
the reference and numpy alone, with the inputs written out in the test
rather than parsed by ges4. The sweep cells known to differ are named one
by one in `_KNOWN_SWEEP_MISMATCHES`, and must differ exactly there. The
`verify` reports of seeds 0..4, plain and with the conjugate_bs fault, have
their discrepancy log recomputed from the reference and the closed forms
written out here: the calibration's deviations and matches on its own draws,
the pi/8 entropy spot, the success scaling in eta, the pi/4 single cut, the
generated basis's phases and the Dicke entry. Only the single-cut deviation
of `one_vs_three_entropy`, drawn after every check, is not recomputed.
"""

import cmath
import contextlib
import importlib.util
import io
import itertools
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ges4 import cli, measures, verify
from ges4.basis import ALL_INDICES, GesIndex, decompose, explicit_basis, generate_basis
from ges4.circuit import (_BS_BLOCK, _MIXED_MARGIN, ATOMIC_SPACE, FULL_SPACE, QUBIT_LABELS,
                          DetectionOutcome, _one_photon_output, detect)
from ges4.hilbert import EIG_TOL, STRUCT_TOL, StateVector
from ges4.measures import PAIRS, _branch_measures
from test_golden import BYTE_GOLDENS, DECOMPOSE_ARGV, SIMULATE_ARGV, SWEEP_ARGV

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def _reference():
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _reference()

# One side of each of the seven cuts; the reference takes qubit indices.
_SIDES = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]
def _labels(sides):
    return tuple(tuple(QUBIT_LABELS[q] for q in side) for side in sides)


_PAIR_INDICES = [tuple(QUBIT_LABELS.index(q) for q in pair) for pair in PAIRS]

_ANGLE = st.one_of(st.floats(-10.0, 10.0),
                   st.sampled_from([0.0, math.pi / 4, math.pi / 2]))
_PHI = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, math.pi / 2, math.pi]))
_NEAR_EMPTY = st.tuples(st.just(math.pi / 2),
                        st.lists(st.floats(0.0, 2e-6), min_size=4, max_size=4))
_POINT = st.one_of(st.tuples(_PHI, st.lists(_ANGLE, min_size=4, max_size=4)), _NEAR_EMPTY)


def _branches(phi, thetas):
    """ges4's kernel output and the reference's, both in BRANCHES order (L, U)."""
    got = _one_photon_output([phi], [thetas], _BS_BLOCK)[0]
    want = ref.interferometer(phi, thetas)[::-1]
    return got, want


@settings(max_examples=300, deadline=None)
@given(point=_POINT)
def test_kernel_equals_the_reference_interferometer(point):
    got, want = _branches(*point)
    assert np.max(np.abs(got - want)) <= 1e-11


@settings(max_examples=300, deadline=None)
@given(point=_POINT)
def test_branch_measures_equal_the_reference_measures(point):
    got, want = _branches(*point)
    weight = np.sum(np.abs(want) ** 2, axis=-1)
    # roundoff alone would decide on which side of the threshold these fall
    assume(not np.any(np.abs(weight - 1e-12) <= 1e-21))
    # a call stacks matrices of one shape: the two-two cuts beside the pairs
    conc, two_two = _branch_measures(got, PAIRS, _labels(_SIDES[4:]))
    _, single = _branch_measures(got, (), _labels(_SIDES[:4]))
    ent = np.concatenate([single, two_two], axis=-1)
    for b, w in enumerate(weight.tolist()):
        if w < 1e-12:
            assert np.isnan(conc[b]).all() and np.isnan(ent[b]).all()
            continue
        psi = want[b] / math.sqrt(w)
        want_conc = [float(ref.concurrence(psi, pair)) for pair in _PAIR_INDICES]
        want_ent = [float(ref.cut_entropy(psi, side)) for side in _SIDES]
        assert np.max(np.abs(conc[b] - want_conc)) <= EIG_TOL, (b, conc[b], want_conc)
        assert np.max(np.abs(ent[b] - want_ent)) <= EIG_TOL, (b, ent[b], want_ent)


# ---------------------------------------------------------------------------
# detection: the eta-POVM on the one-photon sector


def _reference_detection(chi_u, chi_l, outcome: str, eta: float):
    """(probability, weighted branches, det/trace, second singular value s1)
    of an outcome.

    One photon, in mode U with branch chi_u or in mode L with chi_l: D1 (D2)
    clicks with probability eta when the photon is in U (L), and neither
    clicks with 1 - eta; both never click. The unnormalised conditional state
    is sum_k w_k |chi_k><chi_k| over the weighted branches, pure when s1
    vanishes. Its Gram matrix comes from Gram-Schmidt: with a the larger
    weighted branch and b_perp the part of the smaller one b orthogonal to
    a, det = |a|^2 |b_perp|^2 (det is symmetric in the two, and dividing by
    the larger |a|^2 cannot overflow), and
    s1^2 = 2 det / (tr + sqrt(tr^2 - 4 det)), free of cancellation.
    """
    weights = {"d1": ((eta, chi_u),), "d2": ((eta, chi_l),),
               "none": ((1.0 - eta, chi_u), (1.0 - eta, chi_l)), "double": ()}[outcome]
    rows = [math.sqrt(w) * chi for w, chi in weights if w > 0.0]
    tr = sum(float(np.vdot(r, r).real) for r in rows)
    if len(rows) < 2 or min(np.vdot(r, r).real for r in rows) == 0.0:
        return tr, rows, 0.0, 0.0
    a, b = sorted(rows, key=lambda r: np.vdot(r, r).real, reverse=True)
    aa = float(np.vdot(a, a).real)
    b_perp = b - (np.vdot(a, b) / aa) * a
    det = aa * float(np.vdot(b_perp, b_perp).real)
    s1 = math.sqrt(2.0 * det / (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0))))
    return tr, rows, det / tr, s1


def _reference_post_state(rows) -> np.ndarray:
    """The top eigenvector of sum_k |r_k><r_k|, from the 2x2 Gram matrix."""
    m = np.array(rows)
    _, v = np.linalg.eigh(m.conj() @ m.T)
    top = v[:, -1] @ m
    return top / np.linalg.norm(top)


def _full_state(chi_u, chi_l, vacuum=0.0, pair=0.0) -> StateVector:
    """|00> vacuum + |01> chi_l + |10> chi_u + |11> pair (rows n_U * 2 + n_L of
    the full space), normalized."""
    amp = np.zeros((4, 16), dtype=complex)
    amp[0], amp[1], amp[2], amp[3] = vacuum, chi_l, chi_u, pair
    return StateVector(FULL_SPACE, (amp / np.linalg.norm(amp)).reshape(-1))


def _near_parallel(a, n, c: complex, eps: float) -> StateVector:
    """chi_u = a, chi_l = c a + eps n, for orthonormal a and n."""
    return _full_state(a, c * a + eps * n)


def _margin_eps(target: float, c: complex, eta: float) -> float:
    """eps at which a no-click's det/trace is `target`: after normalizing by
    N^2 = 1 + |c|^2 + eps^2, det/trace = (1 - eta) eps^2 / N^4."""
    return math.sqrt(target / (1.0 - eta)) * (1.0 + abs(c) ** 2)


_ETA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_OUTCOME = st.sampled_from([o.value for o in DetectionOutcome])
_UNIT = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).map(
    lambda x: np.array(x[:16]) + 1j * np.array(x[16:]))


@st.composite
def _orthonormal_pair(draw):
    a, n = draw(_UNIT), draw(_UNIT)
    assume(np.linalg.norm(a) > 0.1)
    a = a / np.linalg.norm(a)
    n = n - np.vdot(a, n) * a
    assume(np.linalg.norm(n) > 0.1)
    return a, n / np.linalg.norm(n)


@st.composite
def _detection_case(draw):
    """(state, outcome, eta): any outcome of the interferometer's output at a
    drawn point, of that output with a residue of weight w in |00> and |11>,
    or of a state with one empty branch; or a no-click on branches
    chi_l = c chi_u + eps n, with eps from exactly 0 through the SVD route's
    EIG_TOL to well mixed, or set so that det/trace lies within a factor 10
    of `_MIXED_MARGIN`. w runs from 1e-32 to STRUCT_TOL (short of it by a
    relative 2e-9, so that roundoff cannot carry the normalized state over)."""
    kind = draw(st.sampled_from(["circuit", "residue", "one_empty", "near_parallel",
                                 "margin"]))
    if kind == "circuit":
        return _full_state(*ref.interferometer(*draw(_POINT))), draw(_OUTCOME), draw(_ETA)
    a, n = draw(_orthonormal_pair())
    if kind == "residue":
        w = 10.0 ** draw(st.floats(-32.0, math.log10(STRUCT_TOL) - 1e-9))
        f = draw(st.floats(0.0, 1.0))
        state = _full_state(*ref.interferometer(*draw(_POINT)),
                            math.sqrt(w * f) * a, math.sqrt(w * (1.0 - f)) * n)
        return state, draw(_OUTCOME), draw(_ETA)
    if kind == "one_empty":
        branches = (a, 0 * a) if draw(st.booleans()) else (0 * a, a)
        return _full_state(*branches), draw(_OUTCOME), draw(_ETA)
    c = cmath.rect(draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0 * math.pi)))
    eta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    if kind == "near_parallel":
        eps = draw(st.one_of(st.just(0.0), st.floats(-17.0, -2.0).map(lambda e: 10.0 ** e)))
    else:
        eps = _margin_eps(_MIXED_MARGIN * 10.0 ** draw(st.floats(-1.0, 1.0)), c, eta)
    return _near_parallel(a, n, c, eps), "none", eta


# (0.6 |01>|0000> + 0.8 |10>|1111> + 7e-7 |11>|0101>)/norm: 4.9e-13 of its
# weight lies in |11>, which every outcome ignores.
_RESIDUE = _full_state(0.8 * np.eye(16)[15], 0.6 * np.eye(16)[0], pair=7e-7 * np.eye(16)[5])


@settings(max_examples=400, deadline=None)
@given(case=_detection_case())
# chi'' of about 9e-161, whose |chi''|^2 is subnormal
@example(case=(_full_state(*ref.interferometer(9e-161, [math.pi / 4] * 4)), "none", 0.0))
def test_detect_equals_the_reference_povm(case):
    state, outcome, eta = case
    chi = state.amp.reshape(4, 16)
    probability, rows, _, s1 = _reference_detection(chi[2], chi[1], outcome, eta)
    # roundoff alone would decide on which side of a threshold these fall
    assume(not 0.5e-14 <= probability <= 2e-14)
    assume(not 0.5 * EIG_TOL <= s1 <= 2.0 * EIG_TOL)
    post, got_probability = detect(state, DetectionOutcome(outcome), eta)
    if outcome == "double":
        assert (post, got_probability) == (None, 0.0)
    assert abs(got_probability - probability) <= STRUCT_TOL
    if probability < 1e-14 or s1 > EIG_TOL:
        assert post is None
        return
    assert post is not None and post.is_normalized
    assert ref.phase_distance(_reference_post_state(rows), post.amp) <= 1e-9


@pytest.mark.parametrize("outcome, label", [("d1", "1111"), ("d2", "0000"),
                                            ("none", None), ("double", None)])
def test_detect_reads_only_the_one_photon_rows(outcome, label):
    # the residue in |11> neither mixes a click nor makes a double click
    post, probability = detect(_RESIDUE, DetectionOutcome(outcome), 0.9)
    if label is None:
        assert post is None
        assert (probability == 0.0) == (outcome == "double")
    else:
        assert abs(post.amp[int(label, 2)]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
def test_a_no_click_at_the_margin_edge_is_mixed(factor):
    # det/trace just above `_MIXED_MARGIN` settles a no-click as mixed with
    # no SVD; just below, the SVD decides, and must find it mixed as well.
    rng = np.random.default_rng(7)
    a, n = (rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(2))
    a /= np.linalg.norm(a)
    n -= np.vdot(a, n) * a
    n /= np.linalg.norm(n)
    state = _near_parallel(a, n, 1.0, _margin_eps(factor * _MIXED_MARGIN, 1.0, 0.5))
    chi = state.amp.reshape(4, 16)
    _, _, det_over_tr, s1 = _reference_detection(chi[2], chi[1], "none", 0.5)
    assert (det_over_tr > _MIXED_MARGIN) == (factor > 1.0)
    assert s1 > 1000 * EIG_TOL
    assert detect(state, DetectionOutcome.NO_CLICK, 0.5)[0] is None


# ---------------------------------------------------------------------------
# the representation: c = B* psi


def _reference_coefficients(basis, psi: np.ndarray) -> list:
    """c_k = <phi_k|psi>, one vdot per basis state, in ALL_INDICES order."""
    return [complex(np.vdot(basis.states[idx].amp, psi)) for idx in ALL_INDICES]


@st.composite
def _atomic_state(draw):
    """A random dense or sparse four-qubit state, or a conditioned post-state."""
    kind = draw(st.sampled_from(["dense", "sparse", "post_state"]))
    if kind == "post_state":
        phi, thetas = draw(_POINT)
        chi = ref.interferometer(phi, thetas)[draw(st.integers(0, 1))]
        assume(np.linalg.norm(chi) > 1e-6)
    else:
        chi = draw(_UNIT)
        if kind == "sparse":
            chi = chi * np.isin(np.arange(16), draw(st.sets(st.integers(0, 15), min_size=1)))
        assume(np.linalg.norm(chi) > 1e-3)
    return chi / np.linalg.norm(chi)


_BASES = {"explicit": explicit_basis(), "generated": generate_basis()}


@settings(max_examples=300, deadline=None)
@given(psi=_atomic_state(), name=st.sampled_from(sorted(_BASES)))
def test_decompose_equals_the_reference_coefficients(psi, name):
    basis = _BASES[name]
    want = _reference_coefficients(basis, psi)
    dec = decompose(StateVector(ATOMIC_SPACE, psi), basis)
    got = [dec.coefficients[idx] for idx in ALL_INDICES]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    assert dec.residual <= STRUCT_TOL
    # the reference coefficients rebuild psi, and Parseval holds for them
    rebuilt = sum(w * basis.states[idx].amp for w, idx in zip(want, ALL_INDICES))
    assert np.max(np.abs(rebuilt - psi)) <= 1e-12
    assert abs(sum(abs(w) ** 2 for w in want) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the sixteen states, from the paper's construction


_I2 = np.eye(2)
_SZ = np.diag([1.0, -1.0])
_SIGMA = (_I2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]]), _SZ)


def _paper_state(family: int, component: int, seed: np.ndarray) -> np.ndarray:
    """sz^a (x) sigma^component (x) sz^b (x) I on the seed, a = 1 for families 2
    and 4, b = 1 for families 3 and 4."""
    first = _SZ if family in (2, 4) else _I2
    third = _SZ if family in (3, 4) else _I2
    return np.kron(np.kron(np.kron(first, _SIGMA[component]), third), _I2) @ seed


def _paper_images() -> np.ndarray:
    """The sixteen paper states in ALL_INDICES order, (16, 16). The seed is
    the reference's D2 branch chi' (mode L) at the operating point."""
    seed = ref.interferometer(math.pi / 2, [math.pi / 4] * 4)[1]
    seed = seed / np.linalg.norm(seed)
    return np.array([_paper_state(i.family, i.component, seed) for i in ALL_INDICES])


def test_the_sixteen_states_are_the_paper_construction_of_the_reference_seed():
    images = _paper_images()
    basis = explicit_basis()
    for idx, g in zip(ALL_INDICES, images):
        assert abs(abs(np.vdot(basis.states[idx].amp, g)) - 1.0) <= 1e-12, idx
    assert np.max(np.abs(images.conj() @ images.T - np.eye(16))) <= 1e-12     # Gram
    assert np.max(np.abs(images.T @ images.conj() - np.eye(16))) <= 1e-12     # completeness
    # genuinely entangled: no pair entangled, one bit across every cut
    for pair in _PAIR_INDICES:
        assert np.max(ref.concurrence(images, pair)) <= 1e-10
    for side in _SIDES:
        assert np.max(np.abs(ref.cut_entropy(images, side) - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# the command line end to end: every number of a command's JSON, recomputed


# The inputs of each simulate golden, written out: (phi reduced mod 2 pi,
# the four thetas, eta).
_OPERATING = (math.pi / 2, [math.pi / 4] * 4, 1.0)
_SIM_ANGLES = [0.3, 0.5, 0.7, 0.9]
_SIMULATE_INPUTS = {
    "simulate_outcomes": (1.1, _SIM_ANGLES, 0.6),
    "simulate_outcome_d1": (1.1, _SIM_ANGLES, 1.0),
    "simulate_outcome_none": (1.1, _SIM_ANGLES, 0.6),
    "simulate_deterministic": (math.pi / 2, _SIM_ANGLES, 0.8),
    "simulate_deterministic_measures": _OPERATING,
    "simulate_measures": (1.1, _SIM_ANGLES, 0.6),
    "simulate_outcome_measures": (math.pi / 2, [0.2] * 4, 1.0),
    "SIMULATE_ARGV": (1.1, _SIM_ANGLES, 0.6),
}
_SIMULATE_CASES = {**{stem: argv for stem, (argv, _) in BYTE_GOLDENS.items()
                      if argv[0] == "simulate"}, "SIMULATE_ARGV": SIMULATE_ARGV}

# The four-qubit states decompose takes by name, and each golden's (state, basis).
_W4 = np.zeros(16)
_W4[[0b0001, 0b0010, 0b0100, 0b1000]] = 0.5
_D4 = np.zeros(16)
_D4[[0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]] = 1.0 / math.sqrt(6.0)
_DECOMPOSE_INPUTS = {"decompose_w4": ("w4", _W4, "explicit"),
                     "decompose_d4_generated": ("d4", _D4, "generated"),
                     "DECOMPOSE_ARGV": ("d4", _D4, "generated")}
_DECOMPOSE_CASES = {**{stem: argv for stem, (argv, _) in BYTE_GOLDENS.items()
                       if argv[0] == "decompose"}, "DECOMPOSE_ARGV": DECOMPOSE_ARGV}

_PAIR_KEYS = {"q1q2": (0, 1), "q1q3": (0, 2), "q1q4": (0, 3),
              "q2q3": (1, 2), "q2q4": (1, 3), "q3q4": (2, 3)}
_CUT_KEYS = {"q1q2|q3q4": (0, 1), "q1q3|q2q4": (0, 2), "q1q4|q2q3": (0, 3)}
_SINGLE_KEYS = {"q1": (0,), "q2": (1,), "q3": (2,), "q4": (3,)}
_RECORD_TOL = 1e-9      # the default --tol: smaller amplitudes are not listed
_SY_ON_Q4 = np.kron(np.eye(8), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def _cli_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--json"]) == 0
    return json.loads(out.getvalue())


def _check_state(records, want: np.ndarray) -> None:
    """Listed amplitudes are `want` up to one phase; the unlisted are below --tol."""
    got = np.zeros(16, dtype=complex)
    for r in records:
        got[int(r["basis_label"], 2)] = complex(r["re"], r["im"])
    assert np.max(np.abs(want[got != 0.0])) > _RECORD_TOL - 1e-11
    assert ref.phase_distance(want, got) <= _RECORD_TOL + 1e-11


def _check_measures(m: dict, psi: np.ndarray) -> None:
    conc = {k: float(ref.concurrence(psi, pair)) for k, pair in _PAIR_KEYS.items()}
    ent = {k: float(ref.cut_entropy(psi, side))
           for k, side in {**_CUT_KEYS, **_SINGLE_KEYS}.items()}
    assert sorted(m) == ["is_genuine", "pair_entropy", "pairwise_concurrence", "single_entropy"]
    assert sorted(m["pairwise_concurrence"]) == sorted(_PAIR_KEYS)
    assert sorted(m["pair_entropy"]) == sorted(_CUT_KEYS)
    assert sorted(m["single_entropy"]) == sorted(_SINGLE_KEYS)
    for k, c in m["pairwise_concurrence"].items():
        assert abs(c - conc[k]) <= EIG_TOL, k
    for k, e in {**m["pair_entropy"], **m["single_entropy"]}.items():
        assert abs(e - ent[k]) <= EIG_TOL, k
    genuine = max(conc.values()) <= 1e-10 and min(ent.values()) >= 1.0 - 1e-10
    assert m["is_genuine"] is genuine


def _check_entry(entry: dict, probability: float, post, measures: bool) -> None:
    """An outcome's probability, post-state (None: no pure state) and measures."""
    assert abs(entry["probability"] - probability) <= STRUCT_TOL
    if post is None:
        assert entry["state"] is None and "measures" not in entry
        return
    _check_state(entry["state"], post)
    assert ("measures" in entry) == measures
    if measures:
        _check_measures(entry["measures"], post)


def _reference_outcome(chi_u, chi_l, outcome: str, eta: float):
    """(probability, normalized post-state or None) from `_reference_detection`."""
    probability, rows, _, s1 = _reference_detection(chi_u, chi_l, outcome, eta)
    if probability < 1e-14 or s1 > EIG_TOL:
        return probability, None
    return probability, _reference_post_state(rows)


def _check_simulate(argv, phi: float, thetas, eta: float) -> None:
    got = _cli_json(argv)
    assert got["phi"] == phi and got["thetas"] == thetas and got["eta"] == eta
    chi_u, chi_l = ref.interferometer(phi, thetas)
    weights = {"prime": float(np.vdot(chi_l, chi_l).real),
               "double_prime": float(np.vdot(chi_u, chi_u).real)}
    assert sorted(got["branch_probability"]) == sorted(weights)
    for branch, w in weights.items():
        assert abs(got["branch_probability"][branch] - w) <= STRUCT_TOL, branch
    measures = "--measures" in argv
    forced = argv[argv.index("--outcome") + 1] if "--outcome" in argv else None
    if "--deterministic" in argv:
        p_d1, p_d2 = eta * weights["double_prime"], eta * weights["prime"]
        chosen = forced or ("d1" if p_d1 - p_d2 > STRUCT_TOL else "d2")
        assert got["mode"] == "deterministic" and got["conditioned_on"] == chosen
        _, post = _reference_outcome(chi_u, chi_l, chosen, eta)
        if chosen == "d1":      # sigma^y on q4 maps the D1 state onto the D2 one
            post = _SY_ON_Q4 @ post
        _check_entry(got, p_d1 + p_d2, post, measures)
    elif forced is not None:
        assert got["outcome"] == forced
        _check_entry(got, *_reference_outcome(chi_u, chi_l, forced, eta), measures)
    else:
        assert sorted(got["outcomes"]) == ["d1", "d2", "double", "none"]
        for outcome, entry in got["outcomes"].items():
            _check_entry(entry, *_reference_outcome(chi_u, chi_l, outcome, eta), measures)


def test_every_simulate_and_decompose_golden_input_is_written_out():
    assert sorted(_SIMULATE_INPUTS) == sorted(_SIMULATE_CASES)
    assert sorted(_DECOMPOSE_INPUTS) == sorted(_DECOMPOSE_CASES)


@pytest.mark.parametrize("stem", sorted(_SIMULATE_CASES))
def test_simulate_json_equals_the_reference(stem):
    _check_simulate(_SIMULATE_CASES[stem], *_SIMULATE_INPUTS[stem])


@pytest.mark.parametrize("stem", sorted(_DECOMPOSE_CASES))
def test_decompose_json_equals_the_paper_construction(stem):
    name, psi, basis = _DECOMPOSE_INPUTS[stem]
    got = _cli_json(_DECOMPOSE_CASES[stem])
    assert got["input"] == name and got["basis"] == basis
    entries = got["coefficients"]
    assert [(e["family"], e["component"]) for e in entries] == [
        (f, c) for f in range(1, 5) for c in range(4)]
    assert all(e["label"] == f"phi_{e['family']}_{e['component']}" for e in entries)
    want = _paper_images().conj() @ psi
    c = np.array([complex(e["re"], e["im"]) for e in entries])
    abs2 = np.array([e["abs2"] for e in entries])
    # the explicit states are the paper's up to a phase each: only |c|^2 is
    # fixed; the generated ones are its Pauli strings on one seed, so c is
    # fixed up to one global phase
    assert np.max(np.abs(abs2 - np.abs(want) ** 2)) <= 1e-12
    assert np.max(np.abs(np.abs(c) ** 2 - np.abs(want) ** 2)) <= 1e-12
    if basis == "generated":
        assert ref.phase_distance(want, c) <= 1e-12
    assert 0.0 <= got["residual"] <= STRUCT_TOL


_DECIMAL = st.decimals(-10, 10, places=6, allow_nan=False, allow_infinity=False).map(str)
_DECIMAL_ANGLE = st.one_of(_DECIMAL, st.sampled_from(["0", "0.7853981633974483",
                                                      "1.5707963267948966"]))
_DECIMAL_ETA = st.one_of(st.sampled_from(["0", "1"]),
                         st.decimals(0, 1, places=3, allow_nan=False).map(str))


@st.composite
def _simulate_argv(draw):
    """A `simulate --phi --theta --eta [--outcome] [--measures]` argv of decimal
    strings, and the phi, thetas and eta it means, written out from them."""
    phi, eta = draw(_DECIMAL_ANGLE), draw(_DECIMAL_ETA)
    thetas = draw(st.one_of(st.lists(_DECIMAL_ANGLE, min_size=1, max_size=1),
                            st.lists(_DECIMAL_ANGLE, min_size=4, max_size=4)))
    argv = ["simulate", f"--phi={phi}", f"--theta={','.join(thetas)}", "--eta", eta]
    outcome = draw(st.sampled_from([None, "d1", "d2", "none", "double"]))
    argv += ["--outcome", outcome] if outcome else []
    argv += ["--measures"] if draw(st.booleans()) else []
    values = [float(t) for t in thetas] * (4 // len(thetas))
    return argv, float(phi) % (2.0 * math.pi), values, float(eta)


@settings(max_examples=150, deadline=None)
@given(case=_simulate_argv())
def test_simulate_json_of_decimal_argv_equals_the_reference(case):
    argv, phi, thetas, eta = case
    chi_u, chi_l = ref.interferometer(phi, thetas)
    for outcome in ("d1", "d2", "none"):
        # roundoff alone would decide on which side of a threshold these fall
        probability, _, _, s1 = _reference_detection(chi_u, chi_l, outcome, eta)
        assume(not 0.5e-14 <= probability <= 2e-14)
        assume(not 0.5 * EIG_TOL <= s1 <= 2.0 * EIG_TOL)
    _check_simulate(argv, phi, thetas, eta)


# ---------------------------------------------------------------------------
# basis --json: every table and number from the paper construction


def _listed_state(records) -> np.ndarray:
    """A state's amplitude records as a vector; every label listed once."""
    amp = np.zeros(16, dtype=complex)
    for r in records:
        amp[int(r["basis_label"], 2)] = complex(r["re"], r["im"])
    assert len({r["basis_label"] for r in records}) == len(records)
    return amp


def _listed_tables() -> np.ndarray:
    """The sixteen states `basis --json` lists, in ALL_INDICES order, (16, 16)."""
    got = _cli_json(["basis"])
    assert sorted(got) == ["states"]
    assert [s["index"] for s in got["states"]] == [idx.label for idx in ALL_INDICES]
    return np.array([_listed_state(s["amplitudes"]) for s in got["states"]])


def test_basis_json_lists_the_paper_states():
    # each table is the paper's state up to one phase per state
    images = _paper_images()
    tables = _listed_tables()
    for idx, table, image in zip(ALL_INDICES, tables, images):
        assert ref.phase_distance(image, table) <= 1e-12, idx.label
    [one] = _cli_json(["basis", "--index", "3,2"])["states"]
    assert one["index"] == "phi_3_2"
    k = ALL_INDICES.index(GesIndex(3, 2))
    assert np.array_equal(_listed_state(one["amplitudes"]), tables[k])
    assert ref.phase_distance(images[k], tables[k]) <= 1e-12


def test_basis_verify_json_equals_a_numpy_gram_and_the_reference_measures():
    got = _cli_json(["basis", "--verify"])
    assert sorted(got) == ["all_genuine", "max_completeness_dev",
                           "max_orthonormality_dev", "states"]
    m = _listed_tables().T          # columns are the states
    gram = float(np.max(np.abs(m.conj().T @ m - np.eye(16))))
    completeness = float(np.max(np.abs(m @ m.conj().T - np.eye(16))))
    assert max(gram, completeness) <= STRUCT_TOL
    assert abs(got["max_orthonormality_dev"] - gram) <= 1e-15
    assert abs(got["max_completeness_dev"] - completeness) <= 1e-15
    assert list(got["states"]) == [idx.label for idx in ALL_INDICES]
    for idx, image in zip(ALL_INDICES, _paper_images()):
        _check_measures(got["states"][idx.label], image)
    assert got["all_genuine"] is all(s["is_genuine"] for s in got["states"].values())
    assert got["all_genuine"] is True


def test_basis_compare_json_phases_are_the_overlaps_with_the_paper_strings():
    # The generated states are the paper's Pauli strings on chi', whose
    # |0000> amplitude the paper writes as +1/sqrt(8); e is the listed table.
    images = _paper_images()
    images = images * (abs(images[0, 0]) / images[0, 0])
    got = _cli_json(["basis", "--compare-generated"])
    assert [r["index"] for r in got] == [idx.label for idx in ALL_INDICES]
    for r, e, g in zip(got, _listed_tables(), images):
        s = np.vdot(e, g)
        z = s / abs(s)
        assert sorted(r) == ["index", "matches_up_to_phase", "max_dev_after_alignment",
                             "overlap_magnitude", "phase_im", "phase_re"]
        assert abs(r["phase_re"] - z.real) <= 1e-12 and abs(r["phase_im"] - z.imag) <= 1e-12
        assert abs(r["overlap_magnitude"] - abs(s)) <= 1e-12
        assert r["matches_up_to_phase"] is True
        assert abs(r["max_dev_after_alignment"] - np.max(np.abs(g - z * e))) <= 1e-12


# ---------------------------------------------------------------------------
# sweep --json: every cell from the reference, as the benchmark's check does

_EMPTY = 1e-12          # a branch below this weight has no conditional state
_FORMULA_PAIR = (2, 3)  # the closed forms describe the (q3, q4) pair
_FORMULA_CUT = (0, 1)   # and the q1q2|q3q4 cut
_BRANCH_ROW = {"prime": 1, "double_prime": 0}   # the reference's (U, L) rows

# The inputs of each sweep golden, written out: the phi axis, the four theta
# axes (one axis: locked, driving all four), and the etas.
_HALF_PI = math.pi / 2
_SWEEP_INPUTS = {
    "sweep_grid": (np.linspace(_HALF_PI, 1.2, 2),
                   [np.linspace(0, _HALF_PI, 3), np.linspace(0, _HALF_PI, 3),
                    np.linspace(0, 1.1, 3), np.linspace(0.4, _HALF_PI, 3)], [0.3, 0.7, 1.0]),
    "sweep_locked": ([-0.0], [np.linspace(-_HALF_PI, math.pi, 7)], [0.0, 0.5, 1.0]),
    "sweep_empty_edge": ([_HALF_PI], [np.linspace(0, 2e-6, 9)], [1.0]),
    "SWEEP_ARGV": (np.linspace(0, _HALF_PI, 3),
                   [np.linspace(0, _HALF_PI, 3), np.linspace(0, _HALF_PI, 3),
                    np.linspace(0, 1.1, 2), np.linspace(0.4, _HALF_PI, 2)], [0.3, 1.0]),
}
_SWEEP_CASES = {**{stem: argv for stem, (argv, _) in BYTE_GOLDENS.items()
                   if argv[0] == "sweep"},
                "SWEEP_ARGV": [a for a in SWEEP_ARGV if a != "--csv"]}

# The cells known to differ from the reference, each (stem, theta, column).
# 1 - Pi is formed from the cos 2theta_i in `circuit._angle_terms`, with an
# absolute error of ~1e-16, so chi'' (Gamma_2 ~ 1e-12 here) has closed forms
# ~1e-5 off: at theta = 5e-7 its Gamma_2 reads 1.00009e-12, above the empty
# weight, where the true 9.99999999999e-13 says NaN, and from 7.5e-7 on its
# concurrence (with its absdiff) is 8.6e-7 to 1.1e-5 off.
_EDGE_THETAS = np.linspace(0, 2e-6, 9)
_KNOWN_SWEEP_MISMATCHES = (
    {("sweep_empty_edge", _EDGE_THETAS[2], column) for column in (
        "conc_closed_double_prime", "entropy_closed_double_prime")}
    | {("sweep_empty_edge", theta, column) for theta in _EDGE_THETAS[3:] for column in (
        "conc_closed_double_prime", "conc_absdiff_double_prime")})


def _sweep_grid(phis, theta_axes, etas) -> np.ndarray:
    """The rows' phi, theta1..4 and eta, phi-major, theta4 then eta fastest."""
    if len(theta_axes) == 1:
        return np.array([(phi, *[t] * 4, eta)
                         for phi, t, eta in itertools.product(phis, theta_axes[0], etas)])
    return np.array(list(itertools.product(phis, *theta_axes, etas)))


def _reference_sweep(grid: np.ndarray) -> dict:
    """Every column of the sweep, from the reference: Gamma and the closed
    forms at phi = pi/2, the numeric cells at the row's phi, NaN for an
    empty branch."""
    phi, thetas, eta = grid[:, 0], grid[:, 1:5], grid[:, 5]
    here = ref.interferometer(phi, thetas)
    at_op = ref.interferometer(np.full_like(phi, _HALF_PI), thetas)
    w_here = (np.abs(here) ** 2).sum(axis=-1)
    w_op = (np.abs(at_op) ** 2).sum(axis=-1)
    cols = {name: grid[:, i] for i, name in enumerate(
        ["phi", "theta1", "theta2", "theta3", "theta4", "eta"])}
    cols.update(gamma1=w_op[:, 1], gamma2=w_op[:, 0], success_probability=eta * w_here.sum(axis=1))

    def measures(branches, weights, row):
        live = weights[:, row] >= _EMPTY
        psi = branches[:, row] / np.sqrt(np.where(live, weights[:, row], 1.0))[:, None]
        return (np.where(live, ref.concurrence(psi, _FORMULA_PAIR), np.nan),
                np.where(live, ref.cut_entropy(psi, _FORMULA_CUT), np.nan))

    for branch, row in _BRANCH_ROW.items():
        c_num, s_num = measures(here, w_here, row)
        c_cl, s_cl = measures(at_op, w_op, row)
        cols.update({f"conc_closed_{branch}": c_cl, f"conc_numeric_{branch}": c_num,
                     f"conc_absdiff_{branch}": np.abs(c_cl - c_num),
                     f"entropy_closed_{branch}": s_cl, f"entropy_numeric_{branch}": s_num,
                     f"entropy_absdiff_{branch}": np.abs(s_cl - s_num)})
    return cols


def _sweep_mismatches(argv, phis, theta_axes, etas) -> set:
    """(theta1, column) of every cell of `argv --json` that differs from the
    reference: axis cells by any bit, Gamma and the success probability by
    more than STRUCT_TOL, the measures by more than EIG_TOL or on NaN."""
    got = _cli_json(argv)
    grid = _sweep_grid(phis, theta_axes, etas)
    want = _reference_sweep(grid)
    assert got["columns"] == list(want) and len(got["rows"]) == len(grid)
    bad = set()
    for column, expected in want.items():
        cells = np.array([math.nan if r[column] is None else r[column] for r in got["rows"]])
        if column in ("phi", "theta1", "theta2", "theta3", "theta4", "eta"):
            off = cells != expected
        else:
            tol = STRUCT_TOL if column.startswith(("gamma", "success")) else EIG_TOL
            off = ~((np.isnan(cells) & np.isnan(expected)) | (np.abs(cells - expected) <= tol))
        bad |= {(float(theta), column) for theta in grid[off, 1]}
    return bad


def test_every_sweep_golden_input_is_written_out():
    assert sorted(_SWEEP_INPUTS) == sorted(_SWEEP_CASES)


@pytest.mark.parametrize("stem", sorted(_SWEEP_CASES))
def test_sweep_json_equals_the_reference(stem):
    known = {(float(theta), column) for s, theta, column in _KNOWN_SWEEP_MISMATCHES if s == stem}
    assert _sweep_mismatches(_SWEEP_CASES[stem], *_SWEEP_INPUTS[stem]) == known


_SWEEP_DECIMAL = st.decimals(Decimal("-3.2"), Decimal("3.2"), places=2, allow_nan=False, allow_infinity=False).map(str)
_SWEEP_ETA = st.decimals(0, 1, places=2, allow_nan=False).map(str)


@st.composite
def _sweep_argv(draw):
    """A `sweep --phi= [--thetas= | --theta1..4=] --eta` argv of small decimal
    strings, at most 64 points, and its axes and etas, written out from them."""
    def axis(max_count: int):
        start, stop = draw(_SWEEP_DECIMAL), draw(_SWEEP_DECIMAL)
        count = draw(st.integers(0, max_count))
        if count == 0:
            return start, [float(start)]
        return f"{start}:{stop}:{count}", list(np.linspace(float(start), float(stop), count))

    phi, phis = axis(4)
    argv = ["sweep", f"--phi={phi}"]
    if draw(st.booleans()):
        spec, values = axis(4)
        argv.append(f"--thetas={spec}")
        theta_axes = [values]
    else:
        theta_axes = []
        for i in (1, 2, 3, 4):
            if draw(st.booleans()):
                spec, values = axis(2)
                argv.append(f"--theta{i}={spec}")
            else:
                values = [math.pi / 4]
            theta_axes.append(values)
    etas = draw(st.lists(_SWEEP_ETA, min_size=1, max_size=2))
    argv += ["--eta", ",".join(etas)]
    assume(len(phis) * math.prod(map(len, theta_axes)) * len(etas) <= 64)
    return argv, phis, theta_axes, [float(eta) for eta in etas]


@settings(max_examples=50, deadline=None)
@given(case=_sweep_argv())
def test_sweep_json_of_decimal_argv_equals_the_reference(case):
    assert _sweep_mismatches(*case) == set()


# ---------------------------------------------------------------------------
# verify: every number of the discrepancy log, recomputed

_EPS = np.finfo(float).eps
_VERIFY_SEEDS = range(5)
_CHECK_BOUNDS = {name: bound for name, bound, _, _ in verify.CHECKS}


def _closed_forms(thetas) -> dict:
    """The paper's closed forms at phi = pi/2, written out: per branch the
    concurrence lambda = |c1 c2 s3 s4| / (1 +- prod c_i) and the entropy
    S(delta), delta = (c3 c4 +- c1 c2) / (1 +- prod c_i), with c_i = cos 2theta_i
    and s_i = sin 2theta_i; + for chi', - for chi''."""
    c, s = np.cos(2.0 * np.asarray(thetas)), np.sin(2.0 * np.asarray(thetas))
    c12, c34 = c[..., 0] * c[..., 1], c[..., 2] * c[..., 3]
    out = {}
    for branch, sign in (("prime", 1.0), ("double_prime", -1.0)):
        den = 1.0 + sign * c.prod(axis=-1)
        lam = np.abs(c12 * s[..., 2] * s[..., 3]) / den
        out[branch] = lam, _binary_entropy((c34 + sign * c12) / den)
    return out


def _binary_entropy(delta):
    """S = 1 - [(1+d) log2(1+d) + (1-d) log2(1-d)] / 2 at d = |delta| < 1."""
    d = np.abs(delta)
    return 1.0 - ((1.0 + d) * np.log2(1.0 + d) + (1.0 - d) * np.log2(1.0 - d)) / 2.0


def _reference_branch(thetas, branch: str) -> np.ndarray:
    """The reference's normalized branch state(s) at phi = pi/2."""
    psi = ref.interferometer(math.pi / 2, thetas)[..., _BRANCH_ROW[branch], :]
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def verify_reports():
    return {(seed, fault): verify.run_all_checks(seed, fault)
            for seed in _VERIFY_SEEDS for fault in (None, "conjugate_bs")}


@pytest.mark.parametrize("seed", _VERIFY_SEEDS)
def test_verify_calibration_deviations_equal_the_reference(verify_reports, seed):
    # the calibration's draws, written out; its matches are the candidates
    # whose reference deviation is within the match tolerance
    thetas = np.random.default_rng(seed + 101).uniform(0.1, 1.4, (40, 4))
    closed = _closed_forms(thetas)
    cal = verify_reports[seed, None].discrepancy_log["closed_form_calibration"]
    for branch, (lam, entropy) in closed.items():
        psi = _reference_branch(thetas, branch)
        for key, table, numeric, want in (
                ("pair", _PAIR_KEYS, ref.concurrence, lam),
                ("cut", _CUT_KEYS, ref.cut_entropy, entropy)):
            devs = {name: float(np.max(np.abs(numeric(psi, sides) - want)))
                    for name, sides in table.items()}
            logged = cal[f"{key}_max_dev"][branch]
            assert list(logged) == list(devs)
            # measured over seeds 0..4: within 1.5 eps (pairs), 4.5 eps (cuts)
            for name, dev in devs.items():
                assert abs(logged[name] - dev) <= 8 * _EPS, (branch, name)
            matches = [name for name, dev in devs.items() if dev <= measures.CALIBRATION_MATCH_TOL]
            assert cal[f"matching_{key}s"][branch] == matches
    assert cal["matching_pairs"] == dict.fromkeys(closed, ["q3q4"])
    assert cal["matching_cuts"] == dict.fromkeys(closed, ["q1q2|q3q4"])


@pytest.mark.parametrize("seed", _VERIFY_SEEDS)
def test_verify_spot_values_equal_the_reference(verify_reports, seed):
    log = verify_reports[seed, None].discrepancy_log

    # the entropy of chi' across q1q2|q3q4 at theta = pi/8: delta = 0.8
    spot = log["entropy_spot_theta_pi_8"]
    numeric = ref.cut_entropy(_reference_branch([math.pi / 8] * 4, "prime"), (0, 1))
    closed = _closed_forms([math.pi / 8] * 4)["prime"][1]
    assert abs(closed - _binary_entropy(0.8)) <= 2 * _EPS
    # measured over seeds 0..4: within 3.5 eps
    for value in (spot["computed"], spot["numerical_check"]):
        assert abs(value - numeric) <= 8 * _EPS and abs(value - closed) <= 8 * _EPS
    # the circulated value is the entropy at delta = 0.4, to its four digits
    assert abs(spot["circulated_value"] - _binary_entropy(0.4)) <= 5e-5

    # one photon, one detector: success = eta times the one-photon weight
    scaling = log["success_probability_scaling"]
    weight = float(np.sum(np.abs(ref.interferometer(math.pi / 2, [math.pi / 4] * 4)) ** 2))
    etas = {"0": 0.0, "0.25": 0.25, "0.5": 0.5, "0.8": 0.8, "1": 1.0}
    assert list(scaling["computed_success_probability"]) == list(etas)
    for key, eta in etas.items():
        # measured: within 1.5 eps
        assert abs(scaling["computed_success_probability"][key] - eta * weight) <= 4 * _EPS
        assert scaling["linear_reference"][key] == eta
        assert scaling["quadratic_reference"][key] == eta * eta

    # a single cut of the pi/4 target carries one bit: measured within 1 eps
    at_pi4 = log["one_vs_three_entropy"]["value_at_theta_pi_4"]
    want = ref.cut_entropy(_reference_branch([math.pi / 4] * 4, "prime"), (0,))
    assert abs(at_pi4 - want) <= 4 * _EPS and abs(want - 1.0) <= 4 * _EPS


def test_verify_phases_and_dicke_entry_equal_the_paper_states(verify_reports):
    # e_k = g_k / z_k: the paper's strings on the reference seed, carried onto
    # the tables by the logged phases; the |0000> amplitude of chi' is +1/sqrt(8)
    images = _paper_images()
    images = images * (abs(images[0, 0]) / images[0, 0])
    units = {"1": 1.0, "-1": -1.0, "1j": 1j, "-1j": -1j}
    log = verify_reports[0, None].discrepancy_log
    phases = log["generated_basis_phases"]["phases"]
    assert list(phases) == [idx.label for idx in ALL_INDICES]
    tables = {}
    for idx, g in zip(ALL_INDICES, images):
        e = explicit_basis().states[idx].amp
        s = np.vdot(e, g)
        assert abs(s / abs(s) - units[phases[idx.label]]) <= 1e-12, idx
        tables[idx.label] = g / units[phases[idx.label]]

    dicke = log["dicke_expansion"]
    coefficients = {label: np.vdot(e, _D4) for label, e in tables.items()}
    for label, c in coefficients.items():
        assert abs(c - dicke["computed_coefficients"].get(label, 0.0)) <= 1e-12, label
    variant = sum(c * tables[label] for label, c in dicke["variant_coefficients"].items())
    flipped = _D4.copy()
    flipped[0b1100] *= -1.0
    assert abs(dicke["variant_norm"] - np.linalg.norm(variant)) <= 1e-12
    assert abs(dicke["variant_overlap_with_dicke"] - abs(np.vdot(_D4, variant))) <= 1e-12
    assert abs(dicke["variant_overlap_with_dicke"] - 2.0 / 3.0) <= 1e-12
    assert abs(dicke["variant_deviation_from_flipped_1100"]
               - np.max(np.abs(variant - flipped))) <= 1e-12
    for seed in _VERIFY_SEEDS:
        later = verify_reports[seed, None].discrepancy_log
        assert later["generated_basis_phases"] == log["generated_basis_phases"]
        assert later["dicke_expansion"] == dicke


@pytest.mark.parametrize("seed", _VERIFY_SEEDS)
def test_verify_checks_are_within_their_bounds_and_the_fault_fails_only_the_oracle(
        verify_reports, seed):
    plain, faulty = verify_reports[seed, None], verify_reports[seed, "conjugate_bs"]
    assert [c.name for c in plain.checks] == list(_CHECK_BOUNDS)
    for c in plain.checks:
        assert c.passed and c.measured <= _CHECK_BOUNDS[c.name], c
    for c, f in zip(plain.checks, faulty.checks):
        if c.name == "oracle_equivalence":
            assert not f.passed and f.measured > 0.1, f
        else:
            assert f == c
    assert faulty.discrepancy_log == plain.discrepancy_log
    assert verify.report_to_json(faulty) != verify.report_to_json(plain)
