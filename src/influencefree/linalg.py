"""Dense complex linear algebra kernel shared by every other module.

Operators are plain numpy arrays (complex128, square unless stated). Bipartite
or multipartite structure is carried by a `dims` sequence of factor dimensions
whose product must equal the matrix dimension.

Input is admitted along one path: `as_matrix` coerces to a 2-d complex array,
`finite_matrix` also refuses NaN and inf, and `_check_dims` is the one check
of a matrix against its factor dims. Every operator size is read from one
exact scaling by a power of two, `_binary_scaled`: `frobenius`, the one
Frobenius norm, is finite wherever ‖M‖_F is, and `_admit`, the one hermiticity
rule ‖(M − M†)/2‖_F <= DEFAULT_TOL · ‖M‖_F, reads the same at every scale.
`_unitary` is the one unitarity rule. `_hermitian_part` is the one
symmetrization, summed from halves so that finite input never overflows, and
`_least_eigh` the one least eigenpair. `hermitian` is `_admit` followed by
`_hermitian_part`.
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
    """Coerce to a complex128 2-d array."""
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


def _binary_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a·2^−e, e), e bringing the largest real or imaginary part of the complex a into
    [1/2, 1) (0 if a is 0 or not finite); np.ldexp applies it exactly, where 2.0**e overflows."""
    f = np.ascontiguousarray(a).view(float)
    u = np.abs(f)  # then argmax, not max: a max reduction costs microseconds more
    e = math.frexp(float(u.flat[u.argmax()]) if u.size else 0.0)[1]
    return np.ldexp(f, -e, out=u).view(complex), e


def _ldexp(x: float, e: int) -> float:
    """x·2^e, inf where that exceeds the largest float."""
    return math.ldexp(x, e) if x == 0.0 or math.frexp(x)[1] + e <= 1024 else math.inf


def frobenius(m) -> float:
    """‖M‖_F, read from _binary_scaled(M); inf only where it exceeds the largest float."""
    u, e = _binary_scaled(as_matrix(m))
    x = u.ravel()  # summed as np.linalg.norm sums it, so bit for bit its value
    return _ldexp(math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)), e)


def _admit(matrix, dims: Sequence[int] | None = None) -> np.ndarray:
    """matrix itself as complex128, admitted as a Hermitian operator on dims.

    Checked in order: finite entries, square, the factor dims (if given),
    then the hermiticity defect ‖(M − M†)/2‖_F against DEFAULT_TOL · ‖M‖_F.
    Both norms are taken of _binary_scaled(M), so the rule reads the same at
    every scale and no square inside a norm under- or overflows.
    """
    m = finite_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"Hermitian operator must be square, got {m.shape}")
    if dims is not None:
        _check_dims(m, dims)
    u, e = _binary_scaled(m)
    skew = u - u.conj().T
    defect = math.sqrt(np.vdot(skew, skew).real) / 2.0
    if defect > DEFAULT_TOL * math.sqrt(np.vdot(u, u).real):
        raise ValueError(
            f"hermiticity defect {_ldexp(defect, e):.3e} exceeds threshold "
            f"{DEFAULT_TOL:.1e}*norm for a {m.shape[0]}x{m.shape[0]} matrix"
        )
    return m


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix or stack, bit for bit but on subnormals, summed from halves."""
    half = m * 0.5
    return half + half.conj().swapaxes(-1, -2)


def _least_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least eigenvalue and its eigenvector of the Hermitian part of h, or of each of a stack."""
    vals, vecs = np.linalg.eigh(_hermitian_part(h))
    return vals[..., 0], vecs[..., :, 0]


def hermitian(matrix) -> np.ndarray:
    """(M + M†)/2 for an M that _admit admits; refused, never repaired, otherwise."""
    return _hermitian_part(_admit(matrix))


def _unitary(v, n: int) -> np.ndarray:
    """v itself, refused unless finite, n x n and unitary: ‖V†V − 1‖_F <= 1e-10 · max(1, ‖V‖_F)."""
    v = finite_matrix(v)
    if v.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {v.shape}")
    if (
        np.abs(v).max(initial=0.0) > 2.0  # a unitary has |V_ij| <= 1; V†V could overflow
        or frobenius(v.conj().T @ v - np.eye(n)) > 1e-10 * max(1.0, frobenius(v))
    ):
        raise ValueError("matrix is not unitary")
    return v


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


def _factor_tensor(w, dims: Sequence[int], factor: int | None = None):
    """w as a tensor with a row and a column index per factor, and its checked dims."""
    m = as_matrix(w)
    dims = _check_dims(m, dims)
    if factor is not None and not 0 <= factor < len(dims):
        raise ValueError(f"factor {factor} out of range for {len(dims)} factors")
    return m.reshape(dims + dims), dims


def partial_transpose(w, dims: Sequence[int], factor: int) -> np.ndarray:
    """Transpose the indices of one tensor factor, leaving the rest alone."""
    t, dims = _factor_tensor(w, dims, factor)
    n = math.prod(dims)
    return t.swapaxes(factor, len(dims) + factor).reshape(n, n)


def partial_trace(w, dims: Sequence[int], factor: int) -> np.ndarray:
    """Trace out one tensor factor; the output trace equals the input trace."""
    t, dims = _factor_tensor(w, dims, factor)
    t = np.trace(t, axis1=factor, axis2=len(dims) + factor)
    n = math.prod(dims) // dims[factor]
    return t.reshape(n, n)


def permute_systems(w, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Relabel tensor factors: new factor k is old factor perm[k]."""
    t, dims = _factor_tensor(w, dims)
    k = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    n = math.prod(dims)
    return t.transpose(list(perm) + [k + p for p in perm]).reshape(n, n)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """v, each column (or v itself) turned in place so its largest-magnitude entry is > 0."""
    for col in v.reshape(len(v), -1).T:
        c = col[int(np.argmax(np.abs(col)))]  # nonzero: an eigenvector has unit norm
        col *= np.conj(c) / abs(c)
    return v


def hermitian_eig(w) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    The input must be admitted as Hermitian (see _admit).
    Each eigenvector's phase is fixed so that its largest-magnitude component
    is real and positive, for reproducible output.
    """
    vals, vecs = np.linalg.eigh(hermitian(w))
    return vals[::-1].copy(), _fix_phase(vecs[:, ::-1].copy())


def min_eig(w) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its eigenvector, phase-fixed as in hermitian_eig.

    Only the returned vector is phase-fixed, so the pair equals the last one
    of hermitian_eig bit for bit.
    """
    val, vec = _least_eigh(_admit(w))
    return float(val), _fix_phase(vec.copy())


def psd_part(w) -> np.ndarray:
    """Projection of a Hermitian matrix onto the PSD cone (clip eigenvalues).

    A (k, d, d) array is a stack: each matrix is projected, by one eigh call.
    """
    m = w if isinstance(w, np.ndarray) and w.ndim == 3 else as_matrix(w)
    vals, vecs = np.linalg.eigh(_hermitian_part(m))
    clipped = np.clip(vals, 0.0, None)[..., None, :]
    return (vecs * clipped) @ vecs.conj().swapaxes(-1, -2)
