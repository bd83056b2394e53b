"""Property tests of the two-detector POVM over arbitrary one-photon states.

The states are normalized superpositions |01> (x) a + |10> (x) b with
arbitrary four-qubit a and b; eta ranges over [0, 1], both ends included.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ges4.circuit import (
    BRANCH_DOUBLE_PRIME,
    BRANCH_PRIME,
    FULL_SPACE,
    DetectionOutcome,
    SchemeParams,
    detect,
    evolve,
    photon_branch,
)
from ges4.hilbert import StateVector
from ges4.measures import DegenerateBranchError, concurrence_closed_form, entropy_closed_form

_D1 = DetectionOutcome.D1_CLICK_D2_NULL
_D2 = DetectionOutcome.D2_CLICK_D1_NULL
_CLICKS = (_D1, _D2)

_ETAS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_PARTS = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)


def _branch(parts):
    return np.array(parts[:16]) + 1j * np.array(parts[16:])


def _one_photon_state(a, b) -> StateVector:
    """|01> (x) a + |10> (x) b, normalized; a feeds D2 (mode L), b feeds D1."""
    amp = np.zeros((4, 16), dtype=complex)      # rows |n_U n_L> = 00, 01, 10, 11
    amp[1], amp[2] = a, b
    amp = amp.reshape(FULL_SPACE.dim)
    norm = np.linalg.norm(amp)
    assume(norm > 1e-3)
    return StateVector(FULL_SPACE, amp / norm)


@settings(max_examples=100, deadline=None)
@given(a=_PARTS, b=_PARTS, eta=_ETAS, empty=st.sampled_from([None, "a", "b"]))
def test_outcome_probabilities_are_complete_and_never_double(a, b, eta, empty):
    a, b = _branch(a), _branch(b)
    if empty == "a":
        a = np.zeros(16)
    elif empty == "b":
        b = np.zeros(16)
    state = _one_photon_state(a, b)
    probs = {o: detect(state, o, eta)[1] for o in DetectionOutcome}
    assert abs(sum(probs.values()) - 1.0) <= 1e-12
    assert probs[DetectionOutcome.DOUBLE_CLICK] == 0.0
    assert detect(state, DetectionOutcome.DOUBLE_CLICK, eta)[0] is None


@settings(max_examples=100, deadline=None)
@given(a=_PARTS, b=_PARTS, eta=_ETAS)
def test_click_post_states_do_not_depend_on_eta(a, b, eta):
    assume(eta > 0.0)
    state = _one_photon_state(_branch(a), _branch(b))
    for outcome in _CLICKS:
        post, prob = detect(state, outcome, eta)
        reference, full = detect(state, outcome, 1.0)
        assert abs(prob - eta * full) <= 1e-15
        if prob >= 1e-14:       # below it, detect reports no post-state
            assert (post is None) == (reference is None)
        if post is not None:
            np.testing.assert_allclose(post.amp, reference.amp, rtol=0, atol=1e-12)
            assert abs(np.linalg.norm(post.amp) - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(a=_PARTS, eta=_ETAS, side=st.sampled_from(["a", "b"]))
def test_a_zero_probability_branch_has_no_post_state(a, eta, side):
    live = _branch(a)
    zero = np.zeros(16)
    state = _one_photon_state(*((live, zero) if side == "a" else (zero, live)))
    dead = _D1 if side == "a" else _D2     # b feeds D1, a feeds D2
    assert detect(state, dead, eta) == (None, 0.0)
    if eta == 0.0:
        for outcome in _CLICKS:
            assert detect(state, outcome, eta) == (None, 0.0)


@settings(max_examples=100, deadline=None)
@given(a=_PARTS, b=_PARTS, eta=st.floats(0.01, 0.99))
def test_a_partial_no_click_is_mixed_and_has_no_post_state(a, b, eta):
    a, b = _branch(a), _branch(b)
    state = _one_photon_state(a, b)
    weight_a = float(np.linalg.norm(photon_branch(state, 0, 1).amp) ** 2)
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-300)
    # both branches carry weight and are far from parallel: a rank-two mixture
    assume(0.01 <= weight_a <= 0.99 and overlap <= 0.9)
    post, prob = detect(state, DetectionOutcome.NO_CLICK, eta)
    assert post is None
    assert abs(prob - (1.0 - eta)) <= 1e-12


# phi = pi/2 with every theta at 0 or pi/2: the product of cos(2 theta_i) is
# +-1 and one branch is empty. +1 empties chi'' (D1), -1 empties chi' (D2).
_EDGE_THETAS = st.tuples(*[st.sampled_from([0.0, math.pi / 2])] * 4)


@settings(max_examples=64, deadline=None)
@given(thetas=_EDGE_THETAS, eta=st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
def test_theta_edges_empty_one_branch_for_detect_and_the_closed_forms(thetas, eta):
    product = math.prod(math.cos(2.0 * t) for t in thetas)
    dead, branch = ((_D1, BRANCH_DOUBLE_PRIME) if product > 0.0
                    else (_D2, BRANCH_PRIME))
    live, live_branch = ((_D2, BRANCH_PRIME) if dead is _D1
                         else (_D1, BRANCH_DOUBLE_PRIME))
    psi = evolve(SchemeParams(math.pi / 2, thetas, eta))
    post, prob = detect(psi, dead, eta)
    assert post is None and prob < 1e-14
    post, prob = detect(psi, live, eta)
    assert post is not None and abs(prob - eta) <= 1e-12
    with pytest.raises(DegenerateBranchError):
        concurrence_closed_form(thetas, branch)
    with pytest.raises(DegenerateBranchError):
        entropy_closed_form(thetas, branch)
    assert math.isfinite(concurrence_closed_form(thetas, live_branch))
    assert math.isfinite(entropy_closed_form(thetas, live_branch))


@pytest.mark.parametrize("outcome", ["d1", None, 3, DetectionOutcome.NO_CLICK.value, [1]])
def test_detect_names_the_four_outcomes_for_anything_else(outcome):
    # a ValueError that lists the outcomes, not a KeyError from the branch table
    psi = evolve(SchemeParams(math.pi / 2))
    with pytest.raises(ValueError, match="D1_CLICK_D2_NULL.*D2_CLICK_D1_NULL.*NO_CLICK.*DOUBLE_CLICK"):
        detect(psi, outcome, 1.0)
