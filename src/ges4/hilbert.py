"""Dense complex linear algebra over small labeled spaces of qubits.

Every factor is a qubit: in the paper's scheme the two photon modes hold 0 or
1 photons and the four atoms are two-level, so a space is an ordered list of
distinct qubit labels and its dimension is 2**n. States and operators carry
their space with them. The fast paths read only `StateVector`, `inner` and
`canonical_phase`; the rest (operators, density matrices, `tensor`, `embed`,
`partial_trace`, `unitary_exp`) serves the density-matrix oracle and the tests.

Index convention: the first-listed qubit is the most significant bit, so a
basis label is a bit string and its index is `int(label, 2)`: a four-qubit
label "q1q2q3q4" maps to q1*8 + q2*4 + q3*2 + q4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# What `ges4` exports from this module.
__all__ = ["HilbertSpace", "StateVector", "Operator", "DensityMatrix", "InvariantError",
           "density_matrix", "tensor", "embed", "inner", "partial_trace",
           "unitary_exp"]

# Structural identities (unitarity, Gram matrices, reconstructions) must hold
# to STRUCT_TOL; anything funneled through an eigensolver gets EIG_TOL.
STRUCT_TOL = 1e-12
EIG_TOL = 1e-10


class InvariantError(RuntimeError):
    """A mathematical identity the computation guarantees failed to hold.

    Raised instead of `assert` so the check also runs under `python -O`.
    It signals a defect or a numerical breakdown, not bad input.
    """


# Pauli matrices, standard convention: sigma^0 = I, sigma^1 = X,
# sigma^2 = Y = antidiag(-i, i), sigma^3 = Z.
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class HilbertSpace:
    """An ordered, nonempty tuple of distinct qubit labels; `dim` is 2**len(labels)."""

    labels: tuple[str, ...]

    def __post_init__(self):
        # A bare string is not a list of labels: "ab" must not become ("a", "b").
        labels = () if isinstance(self.labels, str) else tuple(self.labels)
        if not labels or not all(isinstance(lab, str) for lab in labels):
            raise ValueError(f"a space needs one or more string labels, not {self.labels!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return 1 << len(self.labels)

    def axis(self, label: str) -> int:
        """Position of a labeled qubit in the ordered label list."""
        if label not in self.labels:
            raise KeyError(f"no qubit labeled {label!r} in {self.labels}")
        return self.labels.index(label)

    def basis_label(self, index: int) -> str:
        """The n-bit string of a basis index, first qubit most significant, e.g. 5 -> "0101"."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} is not in range({self.dim})")
        return format(index, f"0{len(self.labels)}b")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a labeled space; immutable after construction."""

    space: HilbertSpace
    amp: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amp, dtype=complex)
        if arr.shape != (self.space.dim,):
            raise ValueError(f"amplitude shape {arr.shape} does not match dim {self.space.dim}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amp", arr)

    @classmethod
    def _wrap(cls, space: HilbertSpace, amp: np.ndarray) -> "StateVector":
        """A state over an array the package built itself, with no check and no copy.

        For internal results only: `amp` must be a finite complex array of
        shape (space.dim,) that nothing else writes to; it is made read-only
        here. Input from outside the package goes through the public
        constructor, which validates and copies.
        """
        amp.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "amp", amp)
        return state

    @property
    def norm(self) -> float:
        """sqrt(re.re + im.im) by two `dot` calls: the bits of 1-D `np.linalg.norm`."""
        re, im = self.amp.real, self.amp.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm**2 - 1.0) <= STRUCT_TOL

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amp / n)


def _freeze_matrix(owner: "Operator | DensityMatrix") -> np.ndarray:
    """Replace `owner.mat`, finite and (dim, dim), by a read-only complex copy; return it."""
    arr = np.array(owner.mat, dtype=complex, order="C")
    d = owner.space.dim
    if arr.shape != (d, d):
        raise ValueError(f"matrix shape {arr.shape} does not match dim {d}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    object.__setattr__(owner, "mat", arr)
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense square matrix over a labeled space; `op @ state` applies it to a state."""

    space: HilbertSpace
    mat: np.ndarray

    def __post_init__(self):
        _freeze_matrix(self)

    def __matmul__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        if other.space != self.space:
            raise ValueError("operator and state spaces differ")
        return StateVector(self.space, self.mat @ other.amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite (to EIG_TOL); checked once, on construction."""

    space: HilbertSpace
    mat: np.ndarray

    def __post_init__(self):
        arr = _freeze_matrix(self)
        if float(np.max(np.abs(arr - arr.conj().T))) > STRUCT_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(arr).real - 1.0) > STRUCT_TOL or abs(np.trace(arr).imag) > STRUCT_TOL:
            raise ValueError("density matrix trace is not 1")
        if float(np.min(np.linalg.eigvalsh(arr))) < -EIG_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")


def density_matrix(psi: StateVector) -> DensityMatrix:
    """|psi><psi| of a normalized pure state."""
    if not psi.is_normalized:
        raise ValueError("state must be normalized")
    return DensityMatrix(psi.space, np.outer(psi.amp, psi.amp.conj()))


def tensor(a, b):
    """Tensor product of two StateVectors or two Operators.

    The result space is the concatenation of the label lists, amplitudes and
    entries following the first-qubit-most-significant convention, i.e. a
    plain Kronecker product.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        space = HilbertSpace(a.space.labels + b.space.labels)
        return StateVector(space, np.kron(a.amp, b.amp))
    if isinstance(a, Operator) and isinstance(b, Operator):
        space = HilbertSpace(a.space.labels + b.space.labels)
        return Operator(space, np.kron(a.mat, b.mat))
    raise TypeError("tensor requires two StateVectors or two Operators")


def embed(op: Operator, target_labels: Sequence[str], full: HilbertSpace) -> Operator:
    """Extend `op` (acting on `target_labels`, in that order) by identity elsewhere.

    `op.space` must have one qubit per target label. The returned operator
    lives on `full`.
    """
    targets = list(target_labels)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target labels")
    target_axes = [full.axis(lab) for lab in targets]
    if len(op.space.labels) != len(targets):
        raise ValueError("operator dimensions do not match the targeted qubits")

    n = len(full.labels)
    rest_axes = [i for i in range(n) if i not in target_axes]
    # Build on the permuted space (targets first, rest after), then permute the
    # tensor legs back into the full space's qubit order.
    big = np.kron(op.mat, np.eye(1 << len(rest_axes), dtype=complex))
    inv = np.argsort(target_axes + rest_axes)     # full axis -> permuted position
    t = big.reshape([2] * (2 * n)).transpose(list(inv) + [n + i for i in inv])
    return Operator(full, t.reshape(full.dim, full.dim))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(a.amp, b.amp))


def partial_trace(rho: DensityMatrix, keep_labels: Sequence[str]) -> DensityMatrix:
    """Trace out every qubit not named in keep_labels.

    The kept qubits retain their original relative order. Tracing out
    everything is not representable as a DensityMatrix; keep_labels must be
    nonempty and name each qubit at most once.
    """
    keep = list(keep_labels)
    if not keep:
        raise ValueError("keep_labels must be nonempty")
    for i, lab in enumerate(keep):
        if lab in keep[:i]:
            raise ValueError(f"keep_labels names {lab!r} twice")
    keep_axes = sorted(rho.space.axis(lab) for lab in keep)
    n = len(rho.space.labels)
    drop_axes = [i for i in range(n) if i not in keep_axes]
    # Reorder row and column legs as (kept..., dropped...) and contract the
    # dropped row legs against the dropped column legs.
    order = keep_axes + drop_axes
    t = rho.mat.reshape([2] * (2 * n)).transpose([*order, *[n + i for i in order]])
    dk, dd = 1 << len(keep_axes), 1 << len(drop_axes)
    reduced = np.einsum("ijkj->ik", t.reshape(dk, dd, dk, dd))
    sub = HilbertSpace(rho.space.labels[i] for i in keep_axes)
    return DensityMatrix(sub, reduced)


def unitary_exp(generator: Operator) -> Operator:
    """exp(-i G) for Hermitian G, via eigendecomposition (exact for normal matrices)."""
    if float(np.max(np.abs(generator.mat - generator.mat.conj().T))) > STRUCT_TOL:
        raise ValueError("generator must be Hermitian")
    w, v = np.linalg.eigh(generator.mat)
    return Operator(generator.space, (v * np.exp(-1j * w)) @ v.conj().T)


def canonical_phase(amp: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude amplitude is real positive.

    Ties in magnitude (within a relative 1e-12) resolve to the lowest index,
    making the convention deterministic. numpy's complex division takes
    1/|pivot|, which overflows below ~5.6e-309; only there is the pivot first
    scaled by the exact power of two 2**600, so every other input keeps its bits.
    """
    mags = np.abs(amp)
    top = float(mags.max())
    if top == 0.0:
        return amp.copy()
    pivot = int((mags >= top * (1.0 - 1e-12)).argmax())
    p = amp[pivot]
    if math.isinf(1.0 / float(mags[pivot])):
        # part by part: a complex product would turn a -0 part into +0
        p = np.complex128(complex(p.real * 2.0**600, p.imag * 2.0**600))
    z = p / abs(p)
    return amp * np.conj(z)
