"""Dense complex linear algebra over small labeled Hilbert spaces.

Everything here is deliberately minimal: composite spaces are described by an
ordered list of (label, dimension) factors, states and operators carry their
space with them, and the handful of operations (tensor, embed, inner product,
partial trace, unitary exponential) are enough for a 2-mode + 4-qubit
simulation at total dimension 64.

Index convention: the first-listed factor is the most significant digit, so a
four-qubit label "q1q2q3q4" maps to the integer q1*8 + q2*4 + q3*2 + q4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    """An ordered composite of labeled finite-dimensional factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        if any(d < 1 for _, d in self.factors):
            raise ValueError("factor dimensions must be positive")
        # Read on every state and operator construction; computed once here.
        dims = tuple(d for _, d in self.factors)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_dim", int(np.prod(dims)) if dims else 1)

    @staticmethod
    def of(*factors: tuple[str, int]) -> "HilbertSpace":
        return HilbertSpace(tuple((str(lab), int(d)) for lab, d in factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def dim(self) -> int:
        return self._dim

    def axis(self, label: str) -> int:
        """Position of a labeled factor in the ordered factor list."""
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise KeyError(f"no factor labeled {label!r} in {self.labels}")

    def restrict(self, labels: Sequence[str]) -> "HilbertSpace":
        """Subspace of the named factors, kept in this space's order."""
        keep = set(labels)
        unknown = keep - set(self.labels)
        if unknown:
            raise KeyError(f"unknown labels {sorted(unknown)}")
        return HilbertSpace(tuple(f for f in self.factors if f[0] in keep))

    def index_of(self, digits: Sequence[int]) -> int:
        """Mixed-radix digits (one per factor, first most significant) -> flat index."""
        if len(digits) != len(self.factors):
            raise ValueError("one digit per factor required")
        idx = 0
        for digit, (_, d) in zip(digits, self.factors):
            if not 0 <= digit < d:
                raise ValueError(f"digit {digit} out of range for dimension {d}")
            idx = idx * d + digit
        return idx

    def digits_of(self, index: int) -> tuple[int, ...]:
        """Flat index -> mixed-radix digits."""
        out = []
        for _, d in reversed(self.factors):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def basis_label(self, index: int) -> str:
        """Concatenated digit string of a basis index, e.g. 5 -> "0101"."""
        return "".join(str(d) for d in self.digits_of(index))


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
        shape (space.dim,) that nothing else writes to, and it must already be
        read-only (InvariantError otherwise). Input from outside the package
        goes through the public constructor, which validates and copies.
        """
        if amp.flags.writeable:
            raise InvariantError("an internal state must wrap a read-only array")
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

    def amplitude(self, label: str) -> complex:
        """Amplitude at the basis element given by a digit string like "0101"."""
        digits = [int(c) for c in label]
        return complex(self.amp[self.space.index_of(digits)])


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense square matrix over a labeled space."""

    space: HilbertSpace
    mat: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mat, dtype=complex)
        d = self.space.dim
        if arr.shape != (d, d):
            raise ValueError(f"matrix shape {arr.shape} does not match dim {d}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def is_unitary(self) -> bool:
        d = self.space.dim
        return float(np.max(np.abs(self.mat.conj().T @ self.mat - np.eye(d)))) <= STRUCT_TOL

    @property
    def is_hermitian(self) -> bool:
        return float(np.max(np.abs(self.mat - self.mat.conj().T))) <= STRUCT_TOL

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if other.space != self.space:
                raise ValueError("operator spaces differ")
            return Operator(self.space, self.mat @ other.mat)
        if isinstance(other, StateVector):
            if other.space != self.space:
                raise ValueError("operator and state spaces differ")
            return StateVector(self.space, self.mat @ other.amp)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix; validated on construction."""

    space: HilbertSpace
    mat: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mat, dtype=complex)
        d = self.space.dim
        if arr.shape != (d, d):
            raise ValueError(f"matrix shape {arr.shape} does not match dim {d}")
        if float(np.max(np.abs(arr - arr.conj().T))) > STRUCT_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(arr).real - 1.0) > STRUCT_TOL or abs(np.trace(arr).imag) > STRUCT_TOL:
            raise ValueError("density matrix trace is not 1")
        if float(np.min(np.linalg.eigvalsh(arr))) < -EIG_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)


def basis_state(space: HilbertSpace, label: str | Sequence[int]) -> StateVector:
    """Computational basis state from a digit string ("0101") or digit sequence."""
    digits = [int(c) for c in label]
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index_of(digits)] = 1.0
    return StateVector(space, amp)


def density_matrix(psi: StateVector) -> DensityMatrix:
    """|psi><psi| of a normalized pure state."""
    if not psi.is_normalized:
        raise ValueError("state must be normalized")
    return DensityMatrix(psi.space, np.outer(psi.amp, psi.amp.conj()))


def tensor(a, b):
    """Tensor product of two StateVectors or two Operators.

    The result space is the concatenation of the factor lists, amplitudes and
    entries following the mixed-radix (first factor most significant)
    convention, i.e. a plain Kronecker product.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        space = HilbertSpace(a.space.factors + b.space.factors)
        return StateVector(space, np.kron(a.amp, b.amp))
    if isinstance(a, Operator) and isinstance(b, Operator):
        space = HilbertSpace(a.space.factors + b.space.factors)
        return Operator(space, np.kron(a.mat, b.mat))
    raise TypeError("tensor requires two StateVectors or two Operators")


def embed(op: Operator, target_labels: Sequence[str], full: HilbertSpace) -> Operator:
    """Extend `op` (acting on `target_labels`, in that order) by identity elsewhere.

    `op.space` must list factors matching the targeted dimensions in the given
    order. The returned operator lives on `full`.
    """
    targets = list(target_labels)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target labels")
    target_axes = [full.axis(lab) for lab in targets]
    if list(op.space.dims) != [full.dims[ax] for ax in target_axes]:
        raise ValueError("operator dimensions do not match the targeted factors")

    rest_axes = [i for i in range(len(full.factors)) if i not in target_axes]
    rest_dim = int(np.prod([full.dims[i] for i in rest_axes])) if rest_axes else 1

    # Build on the permuted space (targets first, rest after), then permute the
    # tensor legs back into the full space's factor order.
    big = np.kron(op.mat, np.eye(rest_dim, dtype=complex))
    n = len(full.factors)
    perm = target_axes + rest_axes            # permuted position -> full axis
    dims_perm = [full.dims[ax] for ax in perm]
    t = big.reshape(dims_perm + dims_perm)
    inv = np.argsort(perm)                    # full axis -> permuted position
    t = t.transpose(list(inv) + [n + i for i in inv])
    return Operator(full, t.reshape(full.dim, full.dim))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(a.amp, b.amp))


def partial_trace(rho: DensityMatrix, keep_labels: Sequence[str]) -> DensityMatrix:
    """Trace out every factor not named in keep_labels.

    The kept factors retain their original relative order. Tracing out
    everything is not representable as a DensityMatrix; keep_labels must be
    nonempty.
    """
    keep = list(keep_labels)
    if not keep:
        raise ValueError("keep_labels must be nonempty")
    keep_axes = [rho.space.axis(lab) for lab in keep]
    keep_axes_sorted = sorted(keep_axes)
    drop_axes = [i for i in range(len(rho.space.factors)) if i not in keep_axes_sorted]

    dims = list(rho.space.dims)
    n = len(dims)
    t = rho.mat.reshape(dims + dims)
    # Reorder row and column legs as (kept..., dropped...) and contract the
    # dropped row legs against the dropped column legs.
    order = keep_axes_sorted + drop_axes
    t = t.transpose([*order, *[n + i for i in order]])
    dk = int(np.prod([dims[i] for i in keep_axes_sorted]))
    dd = int(np.prod([dims[i] for i in drop_axes])) if drop_axes else 1
    t = t.reshape(dk, dd, dk, dd)
    reduced = np.einsum("ijkj->ik", t)
    sub = rho.space.restrict([rho.space.labels[i] for i in keep_axes_sorted])
    return DensityMatrix(sub, reduced)


def unitary_exp(generator: Operator) -> Operator:
    """exp(-i G) for Hermitian G, via eigendecomposition (exact for normal matrices)."""
    if not generator.is_hermitian:
        raise ValueError("generator must be Hermitian")
    w, v = np.linalg.eigh(generator.mat)
    return Operator(generator.space, (v * np.exp(-1j * w)) @ v.conj().T)


def canonical_phase(amp: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude amplitude is real positive.

    Ties in magnitude (within a relative 1e-12) resolve to the lowest index,
    making the convention deterministic.
    """
    mags = np.abs(amp)
    top = float(mags.max())
    if top == 0.0:
        return amp.copy()
    pivot = int((mags >= top * (1.0 - 1e-12)).argmax())
    z = amp[pivot] / abs(amp[pivot])
    return amp * np.conj(z)
