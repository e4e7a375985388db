"""Linear maps as Choi operators: application, composition, CP/co-CP tests,
Kraus extraction, product-vector evaluation, and tomographic reconstruction.

Convention, fixed across the package: the Choi operator of a map phi with
input dimension n is

    W_phi = sum_ij |i><j| (x) phi(|i><j|)  =  (id (x) phi)(Q),

with Q = sum_ij |i><j| (x) |i><j| the unnormalized maximally entangled
operator. Block (i,j) of the Choi operator is phi applied to the matrix unit
E_ij. Only Hermiticity-preserving maps are representable (Hermitian Choi).
Application, composition, the swap and the reconstruction are reshapes and
contractions of the 4-index tensor W[i,a,j,b], not loops over matrix units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, _binary_scaled, _check_dims, _hermitian_part, _unitary, as_matrix,
                     frobenius, hermitian, hermitian_eig, partial_transpose)

_UNIT_TOL = 1e-10  # how far from 1 the norm of a state_eval vector may be
_RECONSTRUCT_TOL = 1e-7  # the largest held-out residual reconstruct_operator accepts, per unit of max |value|


def unnormalized_q(n: int) -> np.ndarray:
    """Q = sum_ef |ee><ff| on an n x n bipartite space; rank 1, trace n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    v = np.eye(n, dtype=complex).reshape(n * n)  # the vector sum_e |e>|e>
    return np.outer(v, v.conj())


def swap_operator(n: int) -> np.ndarray:
    """The swap S|x>|y> = |y>|x>, the identity with its two column factors
    exchanged; equals the Choi operator of transposition."""
    return np.eye(n * n, dtype=complex).reshape(n, n, n, n).swapaxes(2, 3).reshape(n * n, n * n)


class LinearMapChoi:
    """A Hermiticity-preserving linear map stored as its Choi operator."""

    def __init__(self, choi, din: int, dout: int):
        self.choi = hermitian(choi)
        dim = self.choi.shape[0]
        if din < 1 or dout < 1 or dim != din * dout:
            raise ValueError(f"Choi dimension {dim} does not equal din*dout = {din}*{dout}")
        self.din = int(din)
        self.dout = int(dout)

    def __repr__(self):
        return f"LinearMapChoi(din={self.din}, dout={self.dout})"


@dataclass(frozen=True)
class KrausSet:
    """Operators A_i with phi(X) = sum_i A_i X A_i† (weights folded in)."""

    operators: tuple[np.ndarray, ...]


def identity_map(n: int) -> LinearMapChoi:
    return LinearMapChoi(unnormalized_q(n), n, n)


def transpose_map(n: int) -> LinearMapChoi:
    return LinearMapChoi(swap_operator(n), n, n)


def choi_from_conjugation(a) -> LinearMapChoi:
    """Choi operator of X -> A X A† for a dout x din matrix A.

    The Choi operator is the rank-one |v><v| with v = sum_i |i> (x) A|i>;
    its (i,j) block is |a_i><a_j| for the columns a_i of A.
    """
    a = as_matrix(a)
    dout, din = a.shape
    v = a.T.reshape(din * dout)  # v[(i,k)] = A[k,i]
    return LinearMapChoi(np.outer(v, v.conj()), din, dout)


def apply_map(m: LinearMapChoi, x) -> np.ndarray:
    """phi(X) via the Choi blocks: sum_ij X[i,j] · phi(E_ij)."""
    x = as_matrix(x)
    if x.shape != (m.din, m.din):
        raise ValueError(f"input must be {m.din}x{m.din}, got {x.shape}")
    c = m.choi.reshape(m.din, m.dout, m.din, m.dout)
    return np.einsum("ij,iajb->ab", x, c)


def compose_maps(f: LinearMapChoi, g: LinearMapChoi) -> LinearMapChoi:
    """Choi operator of f∘g as one contraction of the two Choi tensors.

    Block (i,j) of W_{f∘g} is f applied to block (i,j) of W_g, so
    W_{f∘g}[i,a,j,b] = sum_kl W_g[i,k,j,l] · W_f[k,a,l,b].
    """
    if f.din != g.dout:
        raise ValueError(
            f"cannot compose: inner dimensions differ ({f.din} vs {g.dout})"
        )
    din, dout = g.din, f.dout
    cg = g.choi.reshape(din, f.din, din, f.din)
    cf = f.choi.reshape(f.din, dout, f.din, dout)
    choi = np.einsum("ikjl,kalb->iajb", cg, cf).reshape(din * dout, din * dout)
    # Hermitian up to rounding, far inside the one hermiticity rule at every scale
    return LinearMapChoi(choi, din, dout)


def transpose_in_basis(m: LinearMapChoi, u) -> LinearMapChoi:
    """Choi operator of m∘sigma, sigma transposition in the basis U·(standard).

    sigma(X) = U (U† X U)^t U† factors as (conjugation by U U^t) ∘ (standard
    transposition), so the composite is assembled from existing pieces.
    """
    u = _unitary(u, m.din)
    rotate = choi_from_conjugation(u @ u.T)
    return compose_maps(m, compose_maps(rotate, transpose_map(m.din)))


def _cp_floor(m: LinearMapChoi, tol: float) -> float:
    """tol·‖C‖_F, how far below 0 the least Choi eigenvalue of a CP map may
    read, so that the CP verdicts do not change with scale. The norm is
    capped at the largest float, still far above rounding, so it stays finite."""
    return tol * min(frobenius(m.choi), np.finfo(float).max)


def is_cp(m: LinearMapChoi, tol: float = DEFAULT_TOL):
    """Completely positive iff the Choi operator C is PSD: its least
    eigenvalue is at least -tol·‖C‖_F (see _cp_floor)."""
    from .cones import is_psd  # cone verdicts live with the cone machinery

    return is_psd(m.choi, tol=_cp_floor(m, tol))


def is_co_cp(m: LinearMapChoi, tol: float = DEFAULT_TOL):
    """Co-completely-positive iff the partially transposed Choi operator is PSD.

    The input factor is transposed; transposing the output factor instead
    differs by a full transpose and has the same spectrum. The floor is
    -tol·‖C‖_F, as for is_cp, since ‖C^Γ‖_F = ‖C‖_F.
    """
    from .cones import is_psd

    if m.din != m.dout:
        raise ValueError("co-CP check needs din == dout")
    gamma = partial_transpose(m.choi, (m.din, m.dout), 0)
    return is_psd(gamma, tol=_cp_floor(m, tol))


def hk_representation(m: LinearMapChoi, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus operators from the eigendecomposition of a PSD Choi operator.

    A_k = sqrt(lambda_k) · unfold(v_k) with unfold reading v as the matrix
    v[(i,j)] = A[j,i]; eigenvalues at most 1e-12 times the largest are dropped.
    Raises if the Choi operator C has an eigenvalue below -tol·‖C‖_F. The
    spectrum is read from C·2^−e (linalg._binary_scaled), so it stays finite
    where C's does not, and each sqrt(lambda_k) is scaled back exactly.
    """
    u, e = _binary_scaled(m.choi)
    vals, vecs = hermitian_eig(u)
    least = np.ldexp(vals[-1], e)
    if least < -_cp_floor(m, tol):
        raise ValueError(f"map is not completely positive (Choi eigenvalue {least:.3e})")
    drop = 1e-12 * float(vals[0])
    return KrausSet(tuple(
        np.ldexp(np.sqrt(np.ldexp(lam, e % 2)), e // 2) * v.reshape(m.din, m.dout).T
        for lam, v in zip(vals, vecs.T) if lam > drop
    ))


def kraus_residual(m: LinearMapChoi, kraus: KrausSet) -> float:
    """‖sum_i Ch(X -> A_i X A_i†) − Ch(m)‖_F, recomputed from the operators:
    how far the Kraus set misses the map."""
    rebuilt = sum((choi_from_conjugation(a).choi for a in kraus.operators), np.zeros_like(m.choi))
    return frobenius(rebuilt - m.choi)


def state_eval(w, dims: tuple[int, int], x, y) -> float:
    """<x (x) y| W |x (x) y> for unit vectors x, y; real for Hermitian W."""
    w = as_matrix(w)
    da, db = _check_dims(w, dims)
    x = np.asarray(x, dtype=complex).reshape(da)
    y = np.asarray(y, dtype=complex).reshape(db)
    if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOL or abs(np.linalg.norm(y) - 1.0) > _UNIT_TOL:
        raise ValueError("state_eval requires unit vectors")
    v = np.outer(x, y).ravel()  # x ⊗ y, bit for bit as np.kron(x, y)
    return float(np.real(v.conj() @ w @ v))


def _pair_family(d: int, phases: tuple[complex, ...]) -> np.ndarray:
    """Rows (e_i + c·e_j)/sqrt2 for each pair i<j and, within a pair, each c."""
    i, j = np.triu_indices(d, 1)
    e = np.eye(d)
    return (e[i] + np.multiply.outer(phases, e[j])).swapaxes(0, 1).reshape(-1, d) / np.sqrt(2)


def reconstruct_operator(evaluate, da: int, db: int) -> np.ndarray:
    """The unique Hermitian W with <xy|W|xy> = evaluate(x, y) on product vectors.

    Each side's polarization family e_i, (e_i + e_j)/sqrt2, (e_i + i·e_j)/sqrt2
    (i<j) has d² projectors forming a Hermitian basis, with Gram matrix
    |<v_k|v_l>|². The two Gram solves give coefficients c_kl and W is one
    contraction sum_kl c_kl P_k (x) Q_l of the projector stacks. The phases -1
    and -i give held-out directions; a residual there above _RECONSTRUCT_TOL ·
    max |value| means the evaluator is not of the required form.
    """
    fam_a = np.concatenate([np.eye(da), _pair_family(da, (1, 1j))])
    fam_b = np.concatenate([np.eye(db), _pair_family(db, (1, 1j))])
    # a one-dimensional side has no pairs and is checked on its basis vector
    check_a = _pair_family(da, (-1, -1j)) if da > 1 else fam_a
    check_b = _pair_family(db, (-1, -1j)) if db > 1 else fam_b

    def table(xs, ys):
        return np.array([[float(evaluate(x, y)) for y in ys] for x in xs])

    gram_a = np.abs(fam_a.conj() @ fam_a.T) ** 2
    gram_b = np.abs(fam_b.conj() @ fam_b.T) ** 2
    fit, check = table(fam_a, fam_b), table(check_a, check_b)
    coeff = np.linalg.solve(gram_a, np.linalg.solve(gram_b, fit.T).T)
    proj_a = np.einsum("ka,kb->kab", fam_a, fam_a.conj())
    proj_b = np.einsum("lc,ld->lcd", fam_b, fam_b.conj())
    w = np.einsum("kl,kab,lcd->acbd", coeff, proj_a, proj_b).reshape(da * db, da * db)
    w = _hermitian_part(w)
    v = np.einsum("pa,qc->pqac", check_a, check_b).reshape(-1, da * db)
    held_out = np.einsum("na,ab,nb->n", v.conj(), w, v).real.reshape(len(check_a), -1)
    worst = float(np.abs(held_out - check).max())
    if not worst <= _RECONSTRUCT_TOL * max(np.abs(fit).max(), np.abs(check).max()):
        raise ValueError(
            f"evaluator is inconsistent with any Hermitian operator "
            f"(held-out residual {worst:.3e})"
        )
    return w


def trace_condition(m: LinearMapChoi) -> tuple[float, float]:
    """(Tr of the Choi operator, Tr of phi(1)); the two always agree."""
    tr_choi = float(np.trace(m.choi).real)
    tr_phi1 = float(np.trace(apply_map(m, np.eye(m.din))).real)
    return tr_choi, tr_phi1
