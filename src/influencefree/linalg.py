"""Dense complex linear algebra kernel shared by every other module.

Operators are plain numpy arrays (complex128, square unless stated). Bipartite
or multipartite structure is carried by a `dims` sequence of factor dimensions
whose product must equal the matrix dimension.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9


class CapExceededError(ValueError):
    """An enumeration would exceed its configured cap.

    `required` carries the count the enumeration would have needed.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


def as_matrix(m) -> np.ndarray:
    """Coerce to a complex128 2-d array (accepts HermitianOperator too)."""
    if isinstance(m, HermitianOperator):
        return m.matrix
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def finite_matrix(m) -> np.ndarray:
    """as_matrix, refusing NaN and infinite entries with ValueError.

    Every comparison against NaN is false, so a NaN entry would otherwise
    pass each tolerance test downstream and end in an affirmative verdict.
    """
    a = as_matrix(m)
    if not np.isfinite(a).all():
        raise ValueError(f"a {a.shape[0]}x{a.shape[1]} matrix has non-finite entries")
    return a


def frobenius(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(as_matrix(m)))


class HermitianOperator:
    """A square matrix admitted as Hermitian.

    The input is symmetrized to (M + M†)/2 and the discarded part's Frobenius
    norm is recorded as `hermiticity_defect`. A defect above the admission
    threshold (default 1e-9 · ‖M‖_F) is an error rather than a silent repair,
    and so is a NaN or infinite entry.
    """

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        m = finite_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"Hermitian operator must be square, got {m.shape}")
        anti = (m - m.conj().T) / 2.0
        defect = float(np.linalg.norm(anti))
        if defect > tol * max(float(np.linalg.norm(m)), 0.0) and defect > 0.0:
            raise ValueError(
                f"hermiticity defect {defect:.3e} exceeds threshold "
                f"{tol:.1e}*norm for a {m.shape[0]}x{m.shape[0]} matrix"
            )
        self.matrix = (m + m.conj().T) / 2.0
        self.hermiticity_defect = defect

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.matrix.astype(dtype)
        return self.matrix

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, defect={self.hermiticity_defect:.2e})"


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be >= 1, got {dims}")
    total = math.prod(dims)
    if m.shape[0] != total or m.shape[1] != total:
        raise ValueError(
            f"matrix of shape {m.shape} does not match factor dims {dims} "
            f"(product {total})"
        )
    return dims


def kron(a, b) -> np.ndarray:
    """Kronecker product, (a ⊗ b)[(i·rb+k),(j·cb+l)] = a[i,j]·b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_transpose(w, dims: Sequence[int], factor: int) -> np.ndarray:
    """Transpose the indices of one tensor factor, leaving the rest alone."""
    m = as_matrix(w)
    dims = _check_dims(m, dims)
    k = len(dims)
    if not 0 <= factor < k:
        raise ValueError(f"factor {factor} out of range for {k} factors")
    t = m.reshape(dims + dims)
    axes = list(range(2 * k))
    axes[factor], axes[k + factor] = axes[k + factor], axes[factor]
    return t.transpose(axes).reshape(m.shape)


def partial_trace(w, dims: Sequence[int], factor: int) -> np.ndarray:
    """Trace out one tensor factor; the output trace equals the input trace."""
    m = as_matrix(w)
    dims = _check_dims(m, dims)
    k = len(dims)
    if not 0 <= factor < k:
        raise ValueError(f"factor {factor} out of range for {k} factors")
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=factor, axis2=k + factor)
    rest = [d for i, d in enumerate(dims) if i != factor]
    n = math.prod(rest)
    return t.reshape(n, n)


def permute_systems(w, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Relabel tensor factors: new factor k is old factor perm[k]."""
    m = as_matrix(w)
    dims = _check_dims(m, dims)
    k = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    t = m.reshape(dims + dims)
    axes = list(perm) + [k + p for p in perm]
    return t.transpose(axes).reshape(m.shape)


def _hermitian_eigh(w) -> tuple[np.ndarray, np.ndarray]:
    """eigh of (M + M†)/2 (ascending), refusing a visibly non-Hermitian M.

    The check is against a loose relative threshold, 1e-8 · max(‖M‖_F, 1).
    """
    m = as_matrix(w)
    nrm = float(np.linalg.norm(m))
    if float(np.linalg.norm(m - m.conj().T)) > 1e-8 * max(nrm, 1.0):
        raise ValueError("eigendecomposition asked of a visibly non-Hermitian matrix")
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def _fix_phase(v: np.ndarray) -> None:
    """Turn v in place so that its largest-magnitude component is real and positive."""
    c = v[int(np.argmax(np.abs(v)))]
    if abs(c) > 0:
        v *= np.conj(c) / abs(c)


def hermitian_eig(w) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    The input must be Hermitian (checked against a loose relative threshold).
    Each eigenvector's phase is fixed so that its largest-magnitude component
    is real and positive, for reproducible output.
    """
    vals, vecs = _hermitian_eigh(w)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        _fix_phase(vecs[:, j])
    return vals.real, vecs


def min_eig(w) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its eigenvector, phase-fixed as in hermitian_eig.

    Only the returned vector is phase-fixed, so the pair equals the last one
    of hermitian_eig bit for bit.
    """
    vals, vecs = _hermitian_eigh(w)
    vec = vecs[:, 0].copy()
    _fix_phase(vec)
    return float(vals[0]), vec


def psd_part(w) -> np.ndarray:
    """Projection of a Hermitian matrix onto the PSD cone (clip eigenvalues).

    A (k, d, d) array is a stack: each matrix is projected, by one eigh call.
    """
    m = w if isinstance(w, np.ndarray) and w.ndim == 3 else as_matrix(w)
    vals, vecs = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    clipped = np.clip(vals, 0.0, None)[..., None, :]
    return (vecs * clipped) @ vecs.conj().swapaxes(-1, -2)
