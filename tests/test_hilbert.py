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

SPACE2 = HilbertSpace(("a", "b"))
SPACE3 = HilbertSpace(("a", "b", "c"))


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
    space = HilbertSpace(("q1", "q2", "q3", "q4"))
    # |1000> -> 8, |0001> -> 1
    assert space.basis_label(8) == "1000"
    assert space.basis_label(1) == "0001"
    for i in range(space.dim):
        assert int(space.basis_label(i), 2) == i
    assert space.basis_label(5) == "0101"


@pytest.mark.parametrize("space", [ATOMIC_SPACE, FULL_SPACE], ids=["atomic", "full"])
def test_basis_label_is_the_binary_index(space):
    # every label of the package's two-level spaces reads back as int(label, 2)
    labels = [format(i, f"0{len(space.labels)}b") for i in range(space.dim)]
    assert len(labels) == space.dim == 2 ** len(space.labels)
    for b in labels:
        assert space.basis_label(int(b, 2)) == b


@pytest.mark.parametrize("labels, message", [
    ((("m", 0),), "string labels"),
    ((("m", 1),), "string labels"),
    ((("m", 3),), "string labels"),
    ((("q", 2), ("m", 3)), "string labels"),
    ((), r"one or more string labels, not \(\)$"),
    ((("q", 2),), "string labels"),
    (("q", 2), "string labels"),
    (("a", "a"), "duplicate qubit labels"),
    ("ab", "string labels, not 'ab'$"),
], ids=["dim0", "dim1", "dim3", "qubit_and_dim3", "empty", "qubit_pair", "bare_pair",
        "repeated", "bare_string"])
def test_every_factor_is_a_qubit(labels, message):
    # a space is its qubit labels: a (label, dimension) pair, whatever the dimension,
    # is not a label, and a bare string is not a list of one-letter labels
    with pytest.raises(ValueError, match=message):
        HilbertSpace(labels)


def test_space_stores_any_iterable_of_labels_as_a_tuple():
    for labels in (["a", "b"], ("a", "b"), (lab for lab in "ab")):
        space = HilbertSpace(labels)
        assert space.labels == ("a", "b") and space.dim == 4
        assert space == SPACE2 and hash(space) == hash(SPACE2)


@pytest.mark.parametrize("space", [SPACE2, ATOMIC_SPACE, FULL_SPACE], ids=["two", "atomic", "full"])
def test_basis_label_rejects_an_index_outside_the_space(space):
    # the bits of 2**n or of -1 are not a label of the space
    for index in (space.dim, space.dim + 5, -1, -space.dim):
        with pytest.raises(ValueError, match="not in range"):
            space.basis_label(index)
    assert space.basis_label(0) == "0" * len(space.labels)
    assert space.basis_label(space.dim - 1) == "1" * len(space.labels)


def test_space_validation():
    with pytest.raises(ValueError):
        HilbertSpace(("a", "a"))
    with pytest.raises(ValueError):
        HilbertSpace(("a", 0))
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
    a = _random_state(HilbertSpace(("a",)), rng)
    b = _random_state(HilbertSpace(("b",)), rng)
    ab = tensor(a, b)
    np.testing.assert_allclose(ab.amp, np.kron(a.amp, b.amp), atol=1e-15)
    assert ab.space.labels == ("a", "b")


def test_embed_single_factor_matches_kron():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    op = embed(Operator(HilbertSpace(("b",)), x), ["b"], SPACE3)
    manual = np.kron(np.kron(np.eye(2), x), np.eye(2))
    np.testing.assert_allclose(op.mat, manual, atol=1e-15)


def test_embed_two_factors_any_order(rng):
    # embedding a product operator equals the product of single embeddings,
    # regardless of the order the target labels are listed in
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op_a = Operator(HilbertSpace(("a",)), a)
    op_c = Operator(HilbertSpace(("c",)), c)
    joint = embed(tensor(op_c, op_a), ["c", "a"], SPACE3)
    split = embed(op_c, ["c"], SPACE3).mat @ embed(op_a, ["a"], SPACE3).mat
    np.testing.assert_allclose(joint.mat, split, atol=1e-13)


def test_embed_dimension_mismatch():
    # a two-qubit operator aimed at one label, and a one-qubit operator at two
    x = Operator(SPACE2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="do not match"):
        embed(x, ["a"], SPACE3)
    y = Operator(HilbertSpace(("m",)), np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="do not match"):
        embed(y, ["a", "b"], SPACE3)


def test_operator_properties():
    h = Operator(SPACE2, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    assert not _is_unitary(h.mat)
    u = unitary_exp(h)
    assert _is_unitary(u.mat)
    np.testing.assert_allclose(u.mat @ u.mat.conj().T, np.eye(4), atol=1e-14)


def test_operator_matmul_space_mismatch():
    # an Operator applies to a state on its own space, and to nothing else
    a = Operator(SPACE2, np.eye(4, dtype=complex))
    b = Operator(SPACE3, np.eye(8, dtype=complex))
    with pytest.raises(ValueError):
        a @ _ket(SPACE3, "000")
    for left, right in ((a, b), (a, a)):
        with pytest.raises(TypeError):
            left @ right


@pytest.mark.parametrize("mat", [np.full((2, 2), np.nan), np.diag([0.5, np.nan]),
                                 np.diag([0.5, np.inf])], ids=["all_nan", "one_nan", "inf"])
def test_operator_and_density_matrix_reject_non_finite_entries(mat):
    # every check after the freeze is a `dev > tol`, which NaN would pass
    space = HilbertSpace(("a",))
    for kind in (Operator, DensityMatrix):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            kind(space, mat)


def test_operator_and_density_matrix_keep_a_read_only_copy():
    for kind in (Operator, DensityMatrix):
        raw = np.diag([0.25, 0.75]).astype(complex)
        frozen = kind(HilbertSpace(("a",)), raw)
        want = raw.view(np.uint64).copy()
        raw[0, 0] = 5.0
        assert np.array_equal(frozen.mat.view(np.uint64), want)
        assert frozen.mat is not raw and not frozen.mat.flags.writeable


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
    a = _random_state(HilbertSpace(("a",)), rng)
    b = _random_state(HilbertSpace(("b",)), rng)
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


def test_partial_trace_names_a_repeated_label(rng):
    rho = density_matrix(_random_state(SPACE3, rng))
    for keep in (["a", "a"], ["c", "a", "c"]):
        with pytest.raises(ValueError, match=f"^keep_labels names {keep[-1]!r} twice$"):
            partial_trace(rho, keep)


def test_partial_trace_unknown_label_raises_key_error(rng):
    rho = density_matrix(_random_state(SPACE3, rng))
    for keep in (["z"], ["a", "z"]):
        with pytest.raises(KeyError):
            partial_trace(rho, keep)


def test_unitary_exp_known_rotation():
    # exp(-i theta sigma_y) is the standard real rotation matrix
    theta = 0.37
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    u = unitary_exp(Operator(HilbertSpace(("q",)), theta * sy))
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
