"""The third oracle: `bench/reference.py` against the circuit kernel and the
branch measures, over the whole parameter domain.

`bench/reference.py` rebuilds the interferometer from its phase structure
and the measures from amplitude reshapes, and shares no code with ges4. It
is loaded by path, as `test_tooling.py` loads `spans.py`. phi and theta run
over [-10, 10] and the edges theta in {0, pi/4, pi/2}, phi in {0, pi/2, pi},
and theta near 0 at phi = pi/2, where the chi'' branch weight Gamma_2 goes
to 0 and its measures turn to NaN.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ges4.circuit import _BS_BLOCK, QUBIT_LABELS, _one_photon_output
from ges4.hilbert import EIG_TOL
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
