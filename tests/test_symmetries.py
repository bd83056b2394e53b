"""The paper's two symmetries, over the whole parameter domain.

In the scheme of arXiv 0903.0468 both arms pass all four cavities, so the
weight a branch gives a basis string depends only on its excitation number.
Two consequences follow:

- permuting the four angles permutes the qubits of both branches, chi' and
  chi'', and so relabels every pair and cut measure;
- theta_i -> pi/2 - theta_i for every i swaps cos and sin on each qubit, so it
  flips every bit: chi' is kept and chi'' negated, each reversed over its 16
  amplitudes, so a click's post-state is reversed up to a phase, and every
  Gamma and measure is unchanged.

Permuting the angles does no arithmetic on them, so the permutation tests run
over every finite angle, |theta| up to 1e300 and the edges 0 and pi/2
included, and over phi at multiples of pi/2. The flip rounds pi/2 - theta by
about eps |theta|, so its tests keep |theta| <= 10 and scale the bound by
max(1, |theta|). Branch amplitudes are at most 1 in size, so their bounds are
absolute. A measure of a branch is read off that branch scaled to unit norm,
which scales its roundoff by 1/sqrt(p) for a branch of probability p; the
closed forms divide by 2 Gamma = 1 +- prod cos 2theta, which scales it by
1/Gamma. Each bound is a multiple of eps, two to four times the worst
deviation seen (beside it) over 20,000 draws of these strategies for the
branches and 10,000 for the CLI tests, plus 3,000 sweeps with theta_3 and
theta_4 within 1e-4 of 0 or pi/2, where a cut is near product and the closed
entropy's slope grows like log(1/(1 - |delta|)). NaN (null in the JSON) must
agree exactly.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ges4 import cli
from ges4.circuit import DetectionOutcome, SchemeParams, _branch_rows, detect, evolve

EPS = np.finfo(float).eps

# Bounds in eps; the worst deviation seen is in the comment.
_PERMUTED_ROWS = 4 * EPS        # 1.1 eps
_FLIPPED_ROWS = 8 * EPS         # 2.1 eps, times max(1, |theta|)
_PROBABILITY = 8 * EPS          # 3.5 eps, times max(1, |theta|) for the flip
_POST_STATE = 8 * EPS           # 2.1 eps, times max(1, |theta|) / sqrt(p)
_MEASURE = 32 * EPS             # 11.7 eps, times 1/sqrt(p)
_SWEEP = 64 * EPS               # 16.5 eps near a product cut, else 11.6; scaled per cell

_ANY_ANGLE = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, math.pi / 4, math.pi / 2, -math.pi / 2, math.pi]),
)
_SMALL_ANGLE = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, math.pi / 4, math.pi / 2, -math.pi / 2]),
)
_PHI = st.one_of(st.integers(-4, 4).map(lambda k: k * math.pi / 2), st.floats(-10.0, 10.0),
                 st.floats(-1e300, 1e300))
_ETA = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_PERM = st.permutations(range(4)).map(tuple)
_QUBITS = ("q1", "q2", "q3", "q4")


def _four(angle):
    return st.lists(angle, min_size=4, max_size=4)


def _rows(phi, thetas):
    """Both branches (chi', chi'') of `evolve`, as (2, 16)."""
    return _branch_rows(evolve(SchemeParams(phi, thetas)).amp)


def _permuted_index(perm):
    """For each basis index b, the index c whose bit perm[i] is b's bit i (q1
    the most significant): the amplitude at b under angles thetas[perm] is the
    amplitude at c under thetas."""
    weights = 1 << np.arange(3, -1, -1)
    bits = (np.arange(16)[:, None] // weights) % 2
    moved = np.empty_like(bits)
    moved[:, list(perm)] = bits
    return moved @ weights


def _cli_json(argv):
    """`ges4 <argv> --json`, run in this process, as parsed JSON."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main([*argv, "--json"]) == 0
    return json.loads(out.getvalue())


def _simulate(phi, thetas, eta):
    return _cli_json(["simulate", "--measures", f"--phi={phi!r}",
                      "--theta=" + ",".join(map(repr, thetas)), f"--eta={eta!r}"])["outcomes"]


def _sweep(phi, thetas, etas):
    return _cli_json(["sweep", f"--phi={phi!r}",
                      *(f"--theta{i}={t!r}" for i, t in enumerate(thetas, start=1)),
                      "--eta=" + ",".join(map(repr, etas))])["rows"]


@settings(max_examples=300, deadline=None)
@given(phi=_PHI, thetas=_four(_ANY_ANGLE), perm=_PERM)
def test_permuting_the_angles_permutes_the_qubits_of_both_branches(phi, thetas, perm):
    rows = _rows(phi, thetas)
    permuted = _rows(phi, [thetas[k] for k in perm])
    assert np.max(np.abs(permuted - rows[:, _permuted_index(perm)])) <= _PERMUTED_ROWS


@settings(max_examples=300, deadline=None)
@given(phi=_PHI, thetas=_four(_SMALL_ANGLE))
def test_the_global_flip_keeps_chi_prime_and_negates_chi_double_prime(phi, thetas):
    rows = _rows(phi, thetas)
    flipped = _rows(phi, [math.pi / 2 - t for t in thetas])
    bound = _FLIPPED_ROWS * max(1.0, *map(abs, thetas))
    assert np.max(np.abs(flipped[0] - rows[0, ::-1])) <= bound
    assert np.max(np.abs(flipped[1] + rows[1, ::-1])) <= bound


# A click reads one branch, so its only threshold is the probability 1e-14. A
# no-click at eta < 1 reads both, and whether they leave a pure state is a
# threshold on a singular value (EIG_TOL) that the flip's rounding of theta
# can cross: phi = pi/2, theta = (-1e-10, pi/2, pi/2, 0), eta = 0 gives a pure
# state one way and a mixed one the other.
_CLICKS = (DetectionOutcome.D1_CLICK_D2_NULL, DetectionOutcome.D2_CLICK_D1_NULL)


@settings(max_examples=150, deadline=None)
@given(phi=_PHI, thetas=_four(_SMALL_ANGLE), eta=_ETA)
def test_the_global_flip_reverses_each_click_post_state_up_to_a_phase(phi, thetas, eta):
    base = evolve(SchemeParams(phi, thetas, eta))
    flipped = evolve(SchemeParams(phi, [math.pi / 2 - t for t in thetas], eta))
    scale = max(1.0, *map(abs, thetas))
    for outcome in _CLICKS:
        (want, p), (got, q) = detect(base, outcome, eta), detect(flipped, outcome, eta)
        assert abs(q - p) <= _PROBABILITY * scale, outcome
        assert (got is None) == (want is None), outcome
        if want is not None:
            reversed_ = want.amp[::-1]
            overlap = np.vdot(reversed_, got.amp)
            aligned = reversed_ * (overlap / abs(overlap))
            assert np.max(np.abs(got.amp - aligned)) <= _POST_STATE * scale / math.sqrt(p)


def _pair_key(i, j):
    return _QUBITS[min(i, j)] + _QUBITS[max(i, j)]


def _cut_key(side):
    """The catalog name of the two-two cut with `side` (qubit indices) on one side."""
    a = sorted(side) if 0 in side else sorted(set(range(4)) - set(side))
    rest = sorted(set(range(4)) - set(a))
    return "".join(_QUBITS[k] for k in a) + "|" + "".join(_QUBITS[k] for k in rest)


@settings(max_examples=150, deadline=None)
@given(phi=_PHI, thetas=_four(_ANY_ANGLE), eta=_ETA, perm=_PERM)
def test_simulate_measures_are_relabelled_by_the_permutation(phi, thetas, eta, perm):
    # qubit i under thetas[perm] is qubit perm[i] under thetas: the six pair
    # concurrences and the seven cuts' entropies move with it
    base = _simulate(phi, thetas, eta)
    moved = _simulate(phi, [thetas[k] for k in perm], eta)
    assert base.keys() == moved.keys()
    for name, entry in moved.items():
        want = base[name]
        p = want["probability"]
        assert abs(entry["probability"] - p) <= _PROBABILITY, name
        assert (entry["state"] is None) == (want["state"] is None), name
        if entry["state"] is None:
            continue
        got, ref = entry["measures"], want["measures"]
        bound = _MEASURE / math.sqrt(p)
        for i in range(4):
            for j in range(i + 1, 4):
                c = got["pairwise_concurrence"][_QUBITS[i] + _QUBITS[j]]
                assert abs(c - ref["pairwise_concurrence"][_pair_key(perm[i], perm[j])]) <= bound
        for j in (1, 2, 3):
            s = got["pair_entropy"][_cut_key((0, j))]
            assert abs(s - ref["pair_entropy"][_cut_key((perm[0], perm[j]))]) <= bound
        for i in range(4):
            s = got["single_entropy"][_QUBITS[i]]
            assert abs(s - ref["single_entropy"][_QUBITS[perm[i]]]) <= bound
        assert got["is_genuine"] == ref["is_genuine"], name


def _over(bound, weight):
    return bound / weight if weight > 0.0 else math.inf


def _assert_same_cells(phi, thetas, changed, etas, scale, measures=("conc", "entropy")):
    """Every `sweep` cell at angles `changed` against the same cell at
    `thetas`: Gamma cells within _SWEEP * scale, closed forms within that over
    the branch's Gamma, numeric cells within it over the root of the branch
    weight at phi (from `evolve`), and an absdiff within the sum of the two.
    Null only where the other is null."""
    got, want = _sweep(phi, changed, etas), _sweep(phi, thetas, etas)
    weights = np.minimum(*(np.sum(np.abs(_rows(phi, t)) ** 2, axis=1) for t in (thetas, changed)))
    bound = _SWEEP * scale
    for row, ref in zip(got, want, strict=True):
        assert row["eta"] == ref["eta"] and row["phi"] == ref["phi"]
        for cell in ("gamma1", "gamma2", "success_probability"):
            assert abs(row[cell] - ref[cell]) <= bound, cell
        for branch, gamma, weight in zip(("prime", "double_prime"), ("gamma1", "gamma2"), weights):
            closed = _over(bound, min(row[gamma], ref[gamma]))
            numeric = _over(bound, math.sqrt(weight))
            for measure in measures:
                for kind, tol in (("closed", closed), ("numeric", numeric),
                                  ("absdiff", closed + numeric)):
                    cell = f"{measure}_{kind}_{branch}"
                    assert (row[cell] is None) == (ref[cell] is None), cell
                    if ref[cell] is not None:
                        assert abs(row[cell] - ref[cell]) <= tol, cell


_ETAS = st.lists(_ETA, min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(phi=_PHI, thetas=_four(_ANY_ANGLE), etas=_ETAS,
       perm=st.sampled_from([(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1)]))
def test_sweep_cells_are_invariant_under_the_permutations_that_keep_the_cut(
        phi, thetas, etas, perm):
    # (12), (34) and (12)(34) keep the pair (q3, q4) and the cut q1q2|q3q4;
    # (13)(24) keeps the cut but moves the pair to (q1, q2)
    _assert_same_cells(phi, thetas, [thetas[k] for k in perm], etas, 1.0,
                       ("entropy",) if perm == (2, 3, 0, 1) else ("conc", "entropy"))


@settings(max_examples=150, deadline=None)
@given(phi=_PHI, thetas=_four(_SMALL_ANGLE), etas=_ETAS)
def test_sweep_cells_are_invariant_under_the_global_flip(phi, thetas, etas):
    _assert_same_cells(phi, thetas, [math.pi / 2 - t for t in thetas], etas,
                       max(1.0, *map(abs, thetas)))
