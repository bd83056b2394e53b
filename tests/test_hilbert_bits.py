"""The density-matrix oracle's algebra against in-test copies of its generic forms, bit for bit.

`partial_trace` and `embed` once reshaped by any factor dimensions, with
`np.prod` sizing their blocks; every factor is now a qubit, and they reshape
by bits. The generic forms are copied here and frozen, and each result must
equal theirs as a uint64 view, so a difference in the last bit fails:

- `partial_trace`, on every ordered keep list of `ATOMIC_SPACE` and every
  ordered keep list of up to three labels of `FULL_SPACE`;
- `embed`, on every ordered one- and two-label target list of both spaces.
"""

from itertools import permutations

import numpy as np
import pytest

from ges4.circuit import ATOMIC_SPACE, FULL_SPACE
from ges4.hilbert import DensityMatrix, HilbertSpace, Operator, embed, partial_trace


def _dims(space):
    return [d for _, d in space.factors]


def _old_partial_trace(rho, keep_labels):
    """`partial_trace` as it was, over any factor dimensions: (labels, matrix)."""
    keep_axes_sorted = sorted(rho.space.axis(lab) for lab in keep_labels)
    drop_axes = [i for i in range(len(rho.space.factors)) if i not in keep_axes_sorted]
    dims = _dims(rho.space)
    n = len(dims)
    t = rho.mat.reshape(dims + dims)
    order = keep_axes_sorted + drop_axes
    t = t.transpose([*order, *[n + i for i in order]])
    dk = int(np.prod([dims[i] for i in keep_axes_sorted]))
    dd = int(np.prod([dims[i] for i in drop_axes])) if drop_axes else 1
    reduced = np.einsum("ijkj->ik", t.reshape(dk, dd, dk, dd))
    return tuple(rho.space.labels[i] for i in keep_axes_sorted), reduced


def _old_embed(op, target_labels, full):
    """`embed` as it was, over any factor dimensions: the full matrix."""
    target_axes = [full.axis(lab) for lab in target_labels]
    dims = _dims(full)
    rest_axes = [i for i in range(len(full.factors)) if i not in target_axes]
    rest_dim = int(np.prod([dims[i] for i in rest_axes])) if rest_axes else 1
    big = np.kron(op.mat, np.eye(rest_dim, dtype=complex))
    n = len(full.factors)
    perm = target_axes + rest_axes
    dims_perm = [dims[ax] for ax in perm]
    t = big.reshape(dims_perm + dims_perm)
    inv = np.argsort(perm)
    t = t.transpose(list(inv) + [n + i for i in inv])
    return t.reshape(full.dim, full.dim)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def _keep_lists(space, most):
    labels = space.labels
    return [keep for k in range(1, most + 1) for keep in permutations(labels, k)]


def _density_matrices(space, rng):
    """A full-rank mixed state and a pure state, with generic complex entries."""
    d = space.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed = a @ a.conj().T
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    pure = np.outer(psi, psi.conj())
    return [DensityMatrix(space, m / np.trace(m).real) for m in (mixed, pure)]


@pytest.mark.parametrize("space, most", [(ATOMIC_SPACE, 4), (FULL_SPACE, 3)],
                         ids=["atomic", "full"])
def test_partial_trace_is_bit_identical_to_the_generic_form(space, most):
    keeps = _keep_lists(space, most)
    assert len(keeps) == (64 if space is ATOMIC_SPACE else 156)
    for rho in _density_matrices(space, np.random.default_rng(len(space.factors))):
        for keep in keeps:
            reduced = partial_trace(rho, keep)
            labels, want = _old_partial_trace(rho, keep)
            assert reduced.space.labels == labels
            assert np.array_equal(_bits(reduced.mat), _bits(want)), keep


@pytest.mark.parametrize("space", [ATOMIC_SPACE, FULL_SPACE], ids=["atomic", "full"])
def test_embed_is_bit_identical_to_the_generic_form(space):
    rng = np.random.default_rng(10 + len(space.factors))
    targets = _keep_lists(space, 2)
    assert len(targets) == (16 if space is ATOMIC_SPACE else 36)
    for target in targets:
        k = 1 << len(target)
        op = Operator(HilbertSpace.of(*((f"t{i}", 2) for i in range(len(target)))),
                      rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        full = embed(op, target, space)
        assert full.space == space
        assert np.array_equal(_bits(full.mat), _bits(_old_embed(op, target, space))), target
