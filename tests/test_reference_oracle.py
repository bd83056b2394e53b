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
eta. Its states are the interferometer's, and states whose two branches are
near-parallel, both where the pure/mixed decision takes `_detect`'s SVD and
around its `_MIXED_MARGIN` shortcut. The representation is checked against
`_reference_coefficients`, c_k = <phi_k|psi> by one `np.vdot` per basis
state, on random, sparse and conditioned states. The sixteen basis states are
checked against the paper's construction: the reference's D2 branch at the
operating point under Pauli strings written out with `np.kron`.
"""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ges4.basis import ALL_INDICES, decompose, explicit_basis, generate_basis
from ges4.circuit import (_BS_BLOCK, _MIXED_MARGIN, ATOMIC_SPACE, FULL_SPACE, QUBIT_LABELS,
                          DetectionOutcome, _one_photon_output, detect)
from ges4.hilbert import EIG_TOL, STRUCT_TOL, StateVector
from ges4.measures import PAIRS, _branch_measures

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
    vanishes. Its Gram matrix comes from Gram-Schmidt: with b_perp the part
    of b orthogonal to a, det = |a|^2 |b_perp|^2, and
    s1^2 = 2 det / (tr + sqrt(tr^2 - 4 det)), free of cancellation.
    """
    weights = {"d1": ((eta, chi_u),), "d2": ((eta, chi_l),),
               "none": ((1.0 - eta, chi_u), (1.0 - eta, chi_l)), "double": ()}[outcome]
    rows = [math.sqrt(w) * chi for w, chi in weights if w > 0.0]
    tr = sum(float(np.vdot(r, r).real) for r in rows)
    if len(rows) < 2 or min(np.vdot(r, r).real for r in rows) == 0.0:
        return tr, rows, 0.0, 0.0
    a, b = rows
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


def _full_state(chi_u, chi_l) -> StateVector:
    """|01> chi_l + |10> chi_u (rows n_U * 2 + n_L of the full space), normalized."""
    amp = np.zeros((4, 16), dtype=complex)
    amp[1], amp[2] = chi_l, chi_u
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
    drawn point, or of a state with one empty branch; or a no-click on
    branches chi_l = c chi_u + eps n, with eps from exactly 0 through the SVD
    route's EIG_TOL to well mixed, or set so that det/trace lies within a
    factor 10 of `_MIXED_MARGIN`."""
    kind = draw(st.sampled_from(["circuit", "one_empty", "near_parallel", "margin"]))
    if kind == "circuit":
        return _full_state(*ref.interferometer(*draw(_POINT))), draw(_OUTCOME), draw(_ETA)
    a, n = draw(_orthonormal_pair())
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


@settings(max_examples=400, deadline=None)
@given(case=_detection_case())
def test_detect_equals_the_reference_povm(case):
    state, outcome, eta = case
    chi = state.amp.reshape(4, 16)
    probability, rows, _, s1 = _reference_detection(chi[2], chi[1], outcome, eta)
    # roundoff alone would decide on which side of a threshold these fall
    assume(not 0.5e-14 <= probability <= 2e-14)
    assume(not 0.5 * EIG_TOL <= s1 <= 2.0 * EIG_TOL)
    post, got_probability = detect(state, DetectionOutcome(outcome), eta)
    assert abs(got_probability - probability) <= STRUCT_TOL
    if probability < 1e-14 or s1 > EIG_TOL:
        assert post is None
        return
    assert post is not None and post.is_normalized
    assert ref.phase_distance(_reference_post_state(rows), post.amp) <= 1e-9


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


def test_the_sixteen_states_are_the_paper_construction_of_the_reference_seed():
    # the seed is the D2 branch chi' (mode L) at the operating point
    seed = ref.interferometer(math.pi / 2, [math.pi / 4] * 4)[1]
    seed = seed / np.linalg.norm(seed)
    images = np.array([_paper_state(i.family, i.component, seed) for i in ALL_INDICES])
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
