"""Unit tests for the labeled-space linear algebra layer."""

import numpy as np
import pytest

from ges4.hilbert import (
    HilbertSpace,
    StateVector,
    Operator,
    DensityMatrix,
    STRUCT_TOL,
    canonical_phase,
    density_matrix,
    embed,
    inner,
    partial_trace,
    tensor,
    unitary_exp,
)
from ges4.circuit import ATOMIC_SPACE, FULL_SPACE

SPACE2 = HilbertSpace.of(("a", 2), ("b", 2))
SPACE3 = HilbertSpace.of(("a", 2), ("b", 2), ("c", 2))


def _ket(space, label):
    """The computational basis state |label> of a space of two-level factors."""
    return StateVector(space, np.eye(space.dim)[int(label, 2)])


def _is_unitary(mat):
    """U^dagger U = 1 entrywise to STRUCT_TOL."""
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat))))) <= STRUCT_TOL


def _random_state(space, rng):
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(space, amp / np.linalg.norm(amp))


def test_space_indexing_first_factor_most_significant():
    space = HilbertSpace.of(("q1", 2), ("q2", 2), ("q3", 2), ("q4", 2))
    # |1000> -> 8, |0001> -> 1
    assert space.basis_label(8) == "1000"
    assert space.basis_label(1) == "0001"
    for i in range(space.dim):
        assert int(space.basis_label(i), 2) == i
    assert space.basis_label(5) == "0101"


@pytest.mark.parametrize("space", [ATOMIC_SPACE, FULL_SPACE], ids=["atomic", "full"])
def test_basis_label_is_the_binary_index(space):
    # every label of the package's two-level spaces reads back as int(label, 2)
    labels = [format(i, f"0{len(space.factors)}b") for i in range(space.dim)]
    assert len(labels) == space.dim == 2 ** len(space.factors)
    for b in labels:
        assert space.basis_label(int(b, 2)) == b


@pytest.mark.parametrize("factors", [(("m", 0),), (("m", 1),), (("m", 3),),
                                     (("q", 2), ("m", 3)), ()],
                         ids=["dim0", "dim1", "dim3", "qubit_and_dim3", "empty"])
def test_every_factor_is_a_qubit(factors):
    with pytest.raises(ValueError):
        HilbertSpace.of(*factors)
    with pytest.raises(ValueError):
        HilbertSpace(factors)


@pytest.mark.parametrize("space", [SPACE2, ATOMIC_SPACE, FULL_SPACE], ids=["two", "atomic", "full"])
def test_basis_label_rejects_an_index_outside_the_space(space):
    # the bits of 2**n or of -1 are not a label of the space
    for index in (space.dim, space.dim + 5, -1, -space.dim):
        with pytest.raises(ValueError, match="not in range"):
            space.basis_label(index)
    assert space.basis_label(0) == "0" * len(space.factors)
    assert space.basis_label(space.dim - 1) == "1" * len(space.factors)


def test_space_validation():
    with pytest.raises(ValueError):
        HilbertSpace.of(("a", 2), ("a", 2))
    with pytest.raises(ValueError):
        HilbertSpace.of(("a", 0))
    with pytest.raises(KeyError):
        SPACE2.axis("z")


def test_state_vector_norm_and_validation():
    psi = StateVector(SPACE2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    assert psi.is_normalized
    assert abs(psi.norm - 1.0) < 1e-15
    with pytest.raises(ValueError):
        StateVector(SPACE2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(SPACE2, np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(SPACE2, np.zeros(4)).normalized()


@pytest.mark.parametrize("amp", [
    [np.nan, 0.0, 0.0, 0.0],
    [0.0, complex(0.0, np.nan), 0.0, 0.0],
    [np.inf, 0.0, 0.0, 0.0],
    [0.0, 0.0, complex(1.0, -np.inf), 0.0],
    [1.0, 0.0, 0.0],
    np.eye(4)[:2],
])
def test_public_state_vector_rejects_non_finite_or_misshapen_amplitudes(amp):
    with pytest.raises(ValueError):
        StateVector(SPACE2, np.asarray(amp, dtype=complex))


def test_public_state_vector_copies_its_input():
    raw = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    psi = StateVector(SPACE2, raw)
    raw[0] = 5.0
    raw[3] = np.nan
    assert np.array_equal(psi.amp, [1.0, 0.0, 0.0, 0.0])
    assert psi.amp is not raw and not psi.amp.flags.writeable


def test_internal_wrap_takes_a_read_only_array_as_it_is():
    # no copy, and the wrapped array becomes read-only whatever it was before
    for writeable in (True, False):
        amp = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        amp.setflags(write=writeable)
        psi = StateVector._wrap(SPACE2, amp)
        assert psi.amp is amp and psi.space == SPACE2 and psi.is_normalized
        assert not amp.flags.writeable
        with pytest.raises(ValueError):
            psi.amp[0] = 1.0


def test_state_vector_immutable():
    psi = _ket(SPACE2, "01")
    with pytest.raises(ValueError):
        psi.amp[0] = 1.0


def test_basis_state_and_inner():
    states = [_ket(SPACE2, label) for label in ("00", "01", "10", "11")]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert inner(a, b) == (1.0 if i == j else 0.0)


def test_inner_space_mismatch():
    with pytest.raises(ValueError):
        inner(_ket(SPACE2, "00"), _ket(SPACE3, "000"))


def test_tensor_is_kron(rng):
    a = _random_state(HilbertSpace.of(("a", 2)), rng)
    b = _random_state(HilbertSpace.of(("b", 2)), rng)
    ab = tensor(a, b)
    np.testing.assert_allclose(ab.amp, np.kron(a.amp, b.amp), atol=1e-15)
    assert ab.space.labels == ("a", "b")


def test_embed_single_factor_matches_kron():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    op = embed(Operator(HilbertSpace.of(("b", 2)), x), ["b"], SPACE3)
    manual = np.kron(np.kron(np.eye(2), x), np.eye(2))
    np.testing.assert_allclose(op.mat, manual, atol=1e-15)


def test_embed_two_factors_any_order(rng):
    # embedding a product operator equals the product of single embeddings,
    # regardless of the order the target labels are listed in
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op_a = Operator(HilbertSpace.of(("a", 2)), a)
    op_c = Operator(HilbertSpace.of(("c", 2)), c)
    joint = embed(tensor(op_c, op_a), ["c", "a"], SPACE3)
    split = embed(op_c, ["c"], SPACE3) @ embed(op_a, ["a"], SPACE3)
    np.testing.assert_allclose(joint.mat, split.mat, atol=1e-13)


def test_embed_dimension_mismatch():
    # a two-qubit operator aimed at one label, and a one-qubit operator at two
    x = Operator(SPACE2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="do not match"):
        embed(x, ["a"], SPACE3)
    y = Operator(HilbertSpace.of(("m", 2)), np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="do not match"):
        embed(y, ["a", "b"], SPACE3)


def test_operator_properties():
    h = Operator(SPACE2, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    assert h.is_hermitian
    assert not _is_unitary(h.mat)
    u = unitary_exp(h)
    assert _is_unitary(u.mat)
    np.testing.assert_allclose(u.mat @ u.mat.conj().T, np.eye(4), atol=1e-14)


def test_operator_matmul_space_mismatch():
    a = Operator(SPACE2, np.eye(4, dtype=complex))
    b = Operator(SPACE3, np.eye(8, dtype=complex))
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a @ _ket(SPACE3, "000")


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(SPACE2, np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValueError):
        DensityMatrix(SPACE2, np.diag([1.0, 0.0, 0.0, 1.0j]))
    rho = density_matrix(_ket(SPACE2, "01"))
    assert rho.mat[1, 1] == 1.0
    with pytest.raises(ValueError):
        density_matrix(StateVector(SPACE2, np.array([2.0, 0, 0, 0])))


def test_partial_trace_product_state(rng):
    a = _random_state(HilbertSpace.of(("a", 2)), rng)
    b = _random_state(HilbertSpace.of(("b", 2)), rng)
    rho = density_matrix(tensor(a, b))
    rho_a = partial_trace(rho, ["a"])
    np.testing.assert_allclose(rho_a.mat, np.outer(a.amp, a.amp.conj()), atol=1e-14)


def test_partial_trace_bell_pair():
    bell = StateVector(SPACE2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    rho_b = partial_trace(density_matrix(bell), ["b"])
    np.testing.assert_allclose(rho_b.mat, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_keep_order(rng):
    # kept factors stay in the original factor order even if requested reversed
    psi = _random_state(SPACE3, rng)
    rho = density_matrix(psi)
    assert partial_trace(rho, ["c", "a"]).space.labels == ("a", "c")
    np.testing.assert_allclose(
        partial_trace(rho, ["c", "a"]).mat,
        partial_trace(rho, ["a", "c"]).mat,
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        partial_trace(rho, [])


def test_partial_trace_unknown_label_raises_key_error(rng):
    rho = density_matrix(_random_state(SPACE3, rng))
    for keep in (["z"], ["a", "z"]):
        with pytest.raises(KeyError):
            partial_trace(rho, keep)


def test_unitary_exp_known_rotation():
    # exp(-i theta sigma_y) is the standard real rotation matrix
    theta = 0.37
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    u = unitary_exp(Operator(HilbertSpace.of(("q", 2)), theta * sy))
    expected = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    np.testing.assert_allclose(u.mat, expected, atol=1e-14)
    with pytest.raises(ValueError):
        unitary_exp(Operator(SPACE2, np.triu(np.ones((4, 4)))))


def test_canonical_phase():
    amp = np.array([0.0, 0.6j, 0.8, 0.0]) * np.exp(1.3j)
    fixed = canonical_phase(amp)
    # the largest-magnitude entry becomes real positive
    assert abs(fixed[2].imag) < 1e-15 and fixed[2].real > 0
    # ties resolve to the lowest index
    tied = canonical_phase(np.array([-1.0, 1.0j]))
    assert tied[0].real > 0 and abs(tied[0].imag) < 1e-15
    # zero vector passes through
    np.testing.assert_array_equal(canonical_phase(np.zeros(3)), np.zeros(3))
