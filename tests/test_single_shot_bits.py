"""The single-shot request against in-test copies of its earlier forms, bit for bit.

`detect` takes its four branch norms in one pass, cached per state, and finds
a clearly mixed no-click outcome without an SVD, `measure_report` runs two
SVD calls instead of three, and `decompose` has its own one-row path. Each
must return the same bits as the form it replaced, which is copied here:
four `np.linalg.norm` calls per `detect`, the single-qubit cuts in their
own SVD call over index gathers built as they were then, and the stacked
`_expand`. Floats are compared as uint64
views, so a difference in the last bit fails.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ges4 import measures
from ges4.basis import _expand, decompose, explicit_basis, generate_basis
from ges4.circuit import DetectionOutcome, SchemeParams, detect, evolve, prepare_ges
from ges4.hilbert import EIG_TOL, canonical_phase
from ges4.measures import measure_report

_OLD_CLICKS = {
    DetectionOutcome.D1_CLICK_D2_NULL: (True, False),
    DetectionOutcome.D2_CLICK_D1_NULL: (False, True),
    DetectionOutcome.NO_CLICK: (False, False),
    DetectionOutcome.DOUBLE_CLICK: (True, True),
}


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
    return canonical_phase(vh[0]), float(probability)


_OLD_BITS = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(bool)


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
_OLD_SINGLE_CUT_INDEX = _old_index([(0,), (1,), (2,), (3,)])


def _old_measure_rows(amps):
    """`_measure_rows` as it was: the single-qubit cuts in their own SVD call."""
    m = amps[..., _OLD_CONCURRENCE_INDEX]
    mats = np.concatenate([np.swapaxes(m, -1, -2) @ measures._YY @ m,
                           amps[..., _OLD_PAIR_CUT_INDEX]], axis=-3)
    lam = np.linalg.svd(mats, compute_uv=False)
    pair = measures._schmidt_entropy(lam[..., 6:, :])
    single = measures._schmidt_entropy(np.linalg.svd(amps[..., _OLD_SINGLE_CUT_INDEX],
                                                     compute_uv=False))
    return measures._wootters(lam[..., :6, :]), np.concatenate([pair[..., :3], single], axis=-1)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


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

            report = measure_report(state)
            conc, ent = _old_measure_rows(old_amp[None])
            got = [*report.pairwise_concurrence.values(), *report.pair_entropy.values(),
                   *report.single_entropy.values()]
            assert np.array_equal(_bits(got), _bits(np.concatenate([conc[0], ent[0]])))

            for b in bases:
                dec = decompose(state, b)
                c, residual = _expand(old_amp[None], b.matrix())
                assert np.array_equal(np.array(list(dec.coefficients.values())).view(np.uint64),
                                      c[0].view(np.uint64))
                assert _bits(dec.residual) == _bits(residual[0])
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
