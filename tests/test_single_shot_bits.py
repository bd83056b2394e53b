"""The single-shot request against in-test copies of its earlier forms, bit for bit.

Each step of the request must return the same bits as the form it replaced,
which is copied here and frozen:

- `detect`: four `np.linalg.norm` calls per call and an SVD on every
  outcome with a live branch, against today's one cached norm pass and the
  mixed no-click found without an SVD.
- `canonical_phase`: the pivot found by `np.nonzero`, against `argmax` over
  the same tie mask; where the earlier form's 1/|pivot| overflows (a pivot
  below ~5.6e-309), the pivot must instead come out finite, real and positive.
- `StateVector.norm`: `np.linalg.norm`, against `math.sqrt` of two `dot`s.
- `measure_report`: the single-qubit cuts in their own SVD call over index
  gathers built as they were then, and later two `_svd_measures` calls with
  two entropy passes and the Wootters and symmetry steps in numpy, against
  one entropy pass over all ten sides and Python floats.
- `decompose`: the stacked `_expand` on one row, against its own one-row path
  with the conjugate matrix held by the basis.

Floats are compared as uint64 views, so a difference in the last bit fails.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ges4 import measures
from ges4.basis import (ALL_INDICES, decompose, explicit_basis, generate_basis,
                        verify_representation)
from ges4.circuit import (ATOMIC_SPACE, BRANCHES, DetectionOutcome, SchemeParams, detect,
                          evolve, ges_target_state, prepare_ges)
from ges4.hilbert import EIG_TOL, STRUCT_TOL, InvariantError, StateVector, canonical_phase
from ges4.measures import PAIR_CUTS, PAIRS, SINGLE_CUTS, _measure_reports, measure_report

_OLD_CLICKS = {
    DetectionOutcome.D1_CLICK_D2_NULL: (True, False),
    DetectionOutcome.D2_CLICK_D1_NULL: (False, True),
    DetectionOutcome.NO_CLICK: (False, False),
    DetectionOutcome.DOUBLE_CLICK: (True, True),
}


def _old_norm(amp):
    """`StateVector.norm` as it was."""
    return float(np.linalg.norm(amp))


def _old_canonical_phase(amp):
    """`canonical_phase` as it was: the pivot is the first index `np.nonzero` finds."""
    mags = np.abs(amp)
    top = float(mags.max())
    if top == 0.0:
        return amp.copy()
    pivot = int(np.nonzero(mags >= top * (1.0 - 1e-12))[0][0])
    z = amp[pivot] / abs(amp[pivot])
    return amp * np.conj(z)


def _old_detect(state, outcome, eta):
    """`detect` as it was: four 1-D norms and a per-call weight table."""
    w_u, w_l = ((0.0, eta) if click else (1.0, 1.0 - eta) for click in _OLD_CLICKS[outcome])
    branches = state.amp.reshape(2, 2, 16)
    norms = [[float(np.linalg.norm(b)) for b in row] for row in branches]
    probability = 0.0
    weighted = []
    for n_u in (0, 1):
        for n_l in (0, 1):
            w = w_u[n_u] * w_l[n_l]
            if w == 0.0:
                continue
            probability += w * norms[n_u][n_l]**2
            if norms[n_u][n_l] > 0.0:
                weighted.append(math.sqrt(w) * branches[n_u, n_l])
    if probability < 1e-14 or not weighted:
        return None, float(probability)
    _, s, vh = np.linalg.svd(np.array(weighted), full_matrices=False)
    if len(s) > 1 and s[1] > EIG_TOL:
        return None, float(probability)
    return _old_canonical_phase(vh[0]), float(probability)


_OLD_BITS = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(bool)
_OLD_YY = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def _old_index(sides):
    """The gather index as it was built: an (n, k) array of qubit indices
    (q1 = 0) to the flat amplitude index of each side-by-rest matrix."""
    sides = np.array(sides)
    n, k = sides.shape
    rest = [[q for q in range(4) if q not in side] for side in sides.tolist()]
    order = np.concatenate([sides, rest], axis=1)
    return (_OLD_BITS << (3 - order)[:, None, :]).sum(axis=-1).reshape(n, 1 << k, 1 << (4 - k))


_OLD_CONCURRENCE_INDEX = _old_index([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_OLD_PAIR_CUT_INDEX = _old_index([(0, 1), (0, 2), (0, 3)])
_OLD_PAIR_CUT_B_INDEX = _old_index([(2, 3), (1, 3), (1, 2)])
_OLD_SINGLE_CUT_INDEX = _old_index([(0,), (1,), (2,), (3,)])


def _old_wootters(lam):
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _old_schmidt_entropy(s):
    p = s * s
    keep = p > 1e-15
    h = -np.sum(np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0), axis=-1)
    return np.maximum(0.0, h)


def _old_measure_rows(amps):
    """`_measure_rows` as it was: the single-qubit cuts in their own SVD call."""
    m = amps[..., _OLD_CONCURRENCE_INDEX]
    mats = np.concatenate([np.swapaxes(m, -1, -2) @ _OLD_YY @ m,
                           amps[..., _OLD_PAIR_CUT_INDEX]], axis=-3)
    lam = np.linalg.svd(mats, compute_uv=False)
    pair = _old_schmidt_entropy(lam[..., 6:, :])
    single = _old_schmidt_entropy(np.linalg.svd(amps[..., _OLD_SINGLE_CUT_INDEX],
                                                compute_uv=False))
    return _old_wootters(lam[..., :6, :]), np.concatenate([pair[..., :3], single], axis=-1)


def _old_svd_measures(amps, pair_index, cut_index):
    """`_svd_measures` as it was, over gather indices given as arrays."""
    n = len(pair_index)
    mats = amps[..., np.concatenate([pair_index, cut_index]) if n else cut_index]
    if n:
        m = mats[..., :n, :, :]
        mats[..., :n, :, :] = np.swapaxes(m, -1, -2) @ _OLD_YY @ m
    lam = np.linalg.svd(mats, compute_uv=False)
    conc = _old_wootters(lam[..., :n, :]) if n else lam[..., :0, 0]
    return conc, _old_schmidt_entropy(lam[..., n:, :])


def _old_measure_reports(amps):
    """`_measure_reports` as it was, on stacked amplitudes (N, 16): each row's
    values in report order (6 concurrences, 3 two-two and 4 single-cut
    entropies) and its genuine flag."""
    conc, pair = _old_svd_measures(amps, _OLD_CONCURRENCE_INDEX,
                                   np.concatenate([_OLD_PAIR_CUT_INDEX, _OLD_PAIR_CUT_B_INDEX]))
    _, single = _old_svd_measures(amps, (), _OLD_SINGLE_CUT_INDEX)
    s_a, s_b = pair[:, :3], pair[:, 3:]
    dev = np.abs(s_a - s_b)
    if dev.max() > EIG_TOL:
        row, worst = np.unravel_index(np.argmax(dev), dev.shape)
        raise InvariantError(f"Schmidt symmetry violated across {PAIR_CUTS[worst]}: "
                             f"{s_a[row, worst]} vs {s_b[row, worst]}")
    out = []
    for c, a, s in zip(conc.tolist(), s_a.tolist(), single.tolist()):
        genuine = (all(x <= measures.GENUINE_CONCURRENCE_TOL for x in c)
                   and all(x >= 1.0 - measures.GENUINE_ENTROPY_TOL for x in a + s))
        out.append((c + a + s, genuine))
    return out


def _old_expand(amps, m):
    """`_expand` as it was, with the conjugate matrix formed per call."""
    c = amps @ m.conj()
    residual = np.linalg.norm(amps - c @ m.T, axis=-1)
    total = np.sum(np.abs(c) ** 2, axis=-1) + residual**2
    off = np.abs(total - 1.0) > STRUCT_TOL
    if off.any():
        raise InvariantError(f"sum |c|^2 + residual^2 = {total[off][0]}, not 1")
    if (residual > STRUCT_TOL).any():
        raise InvariantError(f"reconstruction residual {residual.max()} exceeds {STRUCT_TOL}")
    return c, residual


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _cbits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def _report_values(report):
    return [*report.pairwise_concurrence.values(), *report.pair_entropy.values(),
            *report.single_entropy.values()]


def _assert_report_matches(report, old):
    values, genuine = old
    assert np.array_equal(_bits(_report_values(report)), _bits(values))
    assert report.is_genuine is genuine
    assert list(report.pairwise_concurrence) == list(PAIRS)
    assert list(report.pair_entropy) == list(PAIR_CUTS)
    assert list(report.single_entropy) == [cut.side_a[0] for cut in SINGLE_CUTS]


def _assert_decompose_matches(state, basis):
    dec = decompose(state, basis)
    c, residual = _old_expand(state.amp[None], basis.matrix())
    assert list(dec.coefficients) == list(ALL_INDICES)
    assert np.array_equal(_cbits(list(dec.coefficients.values())), c[0].view(np.uint64))
    assert type(dec.residual) is float
    assert _bits(dec.residual) == _bits(residual[0])


def _cases(rng, n_points):
    """Seeded (params) draws: generic points, and points with phi on multiples
    of pi/2, theta on {0, pi/4, pi/2} and eta in {0, 1}."""
    edges = (0.0, math.pi / 4, math.pi / 2)
    for i in range(n_points):
        if i % 2:
            phi = float(rng.uniform(-7.0, 7.0))
            thetas = tuple(rng.uniform(-2.0, 2.0, size=4).tolist())
            eta = float(rng.uniform())
        else:
            phi = float(rng.choice([0.0, math.pi / 2, math.pi, rng.uniform(0.0, 2 * math.pi)]))
            thetas = tuple(float(rng.choice(edges)) if rng.uniform() < 0.6
                           else float(rng.uniform(0.0, math.pi / 2)) for _ in range(4))
            eta = float(rng.choice([0.0, 1.0, rng.uniform()]))
        yield SchemeParams(phi, thetas, eta)


def test_single_shot_outputs_are_bit_identical_to_the_earlier_forms():
    rng = np.random.default_rng(20261018)
    bases = (explicit_basis(), generate_basis())
    n_cases = n_states = 0
    for params in _cases(rng, 520):
        psi = evolve(params)
        assert _bits(psi.norm) == _bits(_old_norm(psi.amp))
        for outcome in DetectionOutcome:
            n_cases += 1
            state, prob = detect(psi, outcome, params.eta)
            old_amp, old_prob = _old_detect(psi, outcome, params.eta)
            assert _bits(prob) == _bits(old_prob), (params, outcome)
            assert (state is None) == (old_amp is None), (params, outcome)
            if state is None:
                continue
            n_states += 1
            assert np.array_equal(state.amp.view(np.uint64), old_amp.view(np.uint64))
            assert _bits(state.norm) == _bits(_old_norm(old_amp))

            report = measure_report(state)
            _assert_report_matches(report, _old_measure_reports(old_amp[None])[0])
            conc, ent = _old_measure_rows(old_amp[None])
            assert np.array_equal(_bits(_report_values(report)),
                                  _bits(np.concatenate([conc[0], ent[0]])))
            for b in bases:
                _assert_decompose_matches(state, b)
    assert n_cases >= 2000 and n_states >= 800


_PHI = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, math.pi / 2, math.pi]))
# edges, tiny angles (whose branches are near-parallel) and the rest
_THETA = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
                   st.floats(1e-12, 1e-4), st.floats(-10.0, 10.0))
_ETA = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
_PARAMS = st.builds(SchemeParams, _PHI, st.tuples(_THETA, _THETA, _THETA, _THETA), _ETA)
_CALLS = [(i, outcome) for i in (0, 1) for outcome in DetectionOutcome]


@settings(max_examples=150, deadline=None)
@given(first=_PARAMS, second=_PARAMS, order=st.permutations(_CALLS))
def test_detect_is_bit_identical_to_the_earlier_form_in_any_call_order(first, second, order):
    # Two states' outcomes asked in a shuffled, interleaved order, so the
    # branch-split cache both hits and misses.
    params = (first, second)
    psis = (evolve(first), evolve(second))
    for i, outcome in order:
        state, prob = detect(psis[i], outcome, params[i].eta)
        old_amp, old_prob = _old_detect(psis[i], outcome, params[i].eta)
        assert _bits(prob) == _bits(old_prob), (params[i], outcome)
        assert (state is None) == (old_amp is None), (params[i], outcome)
        if state is not None:
            assert np.array_equal(state.amp.view(np.uint64), old_amp.view(np.uint64))


def test_prepared_states_are_bit_identical_to_the_earlier_detect_path():
    rng = np.random.default_rng(7)
    etas = [1e-3, 1.0, *rng.uniform(0.01, 1.0, size=30).tolist()]
    for eta in etas:
        for thetas in ((math.pi / 4,) * 4, tuple(rng.uniform(0.1, 1.4, size=4).tolist())):
            params = SchemeParams(math.pi / 2, thetas, eta)
            prepared = prepare_ges(params, DetectionOutcome.D2_CLICK_D1_NULL)
            psi = evolve(params)
            post_d1, p_d1 = _old_detect(psi, DetectionOutcome.D1_CLICK_D2_NULL, eta)
            post_d2, p_d2 = _old_detect(psi, DetectionOutcome.D2_CLICK_D1_NULL, eta)
            assert _bits(prepared.probability) == _bits(p_d1 + p_d2)
            assert np.array_equal(prepared.state.amp.view(np.uint64), post_d2.view(np.uint64))


# Amplitude draws: parts from a small set, so that many magnitudes tie
# exactly (the pivot rule), generic parts, and parts near 1e-300, whose
# squares underflow. Scaled draws cover the zero vector.
_TIED = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0 ** -0.5, -(2.0 ** -0.5)])
_PART = st.one_of(_TIED, st.floats(-2.0, 2.0), st.floats(1e-301, 1e-299), st.just(-0.0))
_AMPS = st.builds(lambda re, im, scale: (np.array(re) + 1j * np.array(im)) * scale,
                  st.lists(_PART, min_size=16, max_size=16),
                  st.lists(_PART, min_size=16, max_size=16),
                  st.sampled_from([1.0, 1.0, 1e-300, 0.0, 3.0]))


@settings(max_examples=400, deadline=None)
@given(amp=_AMPS)
@example(amp=np.where(np.arange(16) == 15, 2.225073858507203e-309j, 0j))
def test_norm_and_canonical_phase_are_bit_identical_to_the_earlier_forms(amp):
    state = StateVector(ATOMIC_SPACE, amp)
    assert _bits(state.norm) == _bits(_old_norm(amp))
    assert state.is_normalized == (abs(_old_norm(amp) ** 2 - 1.0) <= STRUCT_TOL)
    fixed = canonical_phase(amp)
    try:
        with np.errstate(over="raise"):
            old = _old_canonical_phase(amp)
    except FloatingPointError:
        # the earlier form's 1/|pivot| overflows below ~5.6e-309: the pivot
        # must still come out real and positive, up to a few subnormal ulps
        mags = np.abs(amp)
        pivot = int(np.nonzero(mags >= mags.max() * (1.0 - 1e-12))[0][0])
        assert np.isfinite(fixed.view(float)).all()
        assert fixed[pivot].real > 0.0 and abs(fixed[pivot].imag) <= 2.0 ** -1072
    else:
        assert np.array_equal(fixed.view(np.uint64), old.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(amp=_AMPS)
def test_reports_and_decompositions_of_drawn_states_are_bit_identical(amp):
    norm = _old_norm(amp)
    if norm == 0.0:         # the zero vector and underflowed draws: both forms refuse
        state = StateVector(ATOMIC_SPACE, amp)
        with pytest.raises(ValueError, match="normalized"):
            measure_report(state)
        with pytest.raises(ValueError, match="normalized"):
            decompose(state, explicit_basis())
        return
    # canonical-phase rows, as detect returns them, with ties in magnitude
    state = StateVector(ATOMIC_SPACE, canonical_phase(amp / norm))
    if not state.is_normalized:
        return
    _assert_report_matches(measure_report(state), _old_measure_reports(state.amp[None])[0])
    for basis in (explicit_basis(), generate_basis()):
        _assert_decompose_matches(state, basis)


def test_the_stacked_reports_verify_makes_are_bit_identical():
    # verify measures the sixteen basis states of each basis and the two
    # target states in stacked calls
    for basis in (explicit_basis(), generate_basis()):
        rep = verify_representation(basis)
        states = [basis.states[idx] for idx in ALL_INDICES]
        old = _old_measure_reports(np.array([s.amp for s in states]))
        assert list(rep.state_reports) == list(ALL_INDICES)
        for report, want in zip(rep.state_reports.values(), old):
            _assert_report_matches(report, want)
        assert rep.all_genuine and all(genuine for _, genuine in old)
    targets = [ges_target_state(branch) for branch in BRANCHES]
    reports = _measure_reports(targets)
    for report, want in zip(reports, _old_measure_reports(np.array([t.amp for t in targets]))):
        _assert_report_matches(report, want)
    # one row at a time gives the bits of the stack
    for state, report in zip(targets, reports):
        assert _report_values(measure_report(state)) == _report_values(report)


def test_both_forms_name_the_same_worst_cut(monkeypatch):
    # a side_b gather that repeats a row breaks the Schmidt symmetry; both
    # forms raise with the same message
    real = measures._gather

    def corrupted(sides):
        index = real(sides).copy()
        if sides == measures.PAIRS + measures._PAIR_CUT_SIDES:
            index[9:, 1] = index[9:, 0]
        return index

    rng = np.random.default_rng(3)
    amps = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    states = [StateVector(ATOMIC_SPACE, a / np.linalg.norm(a)) for a in amps]
    bad_b = _OLD_PAIR_CUT_B_INDEX.copy()
    bad_b[:, 1] = bad_b[:, 0]
    monkeypatch.setattr(measures, "_gather", corrupted)
    with pytest.raises(InvariantError) as new:
        _measure_reports(states)
    stacked = np.array([s.amp for s in states])
    conc, pair = _old_svd_measures(stacked, _OLD_CONCURRENCE_INDEX,
                                   np.concatenate([_OLD_PAIR_CUT_INDEX, bad_b]))
    s_a, s_b = pair[:, :3], pair[:, 3:]
    dev = np.abs(s_a - s_b)
    row, worst = np.unravel_index(np.argmax(dev), dev.shape)
    assert str(new.value) == (f"Schmidt symmetry violated across {PAIR_CUTS[worst]}: "
                              f"{s_a[row, worst]} vs {s_b[row, worst]}")
