"""Cone membership and extremality analysis for bipartite Hermitian operators.

PSD and PPT are spectral checks. Positivity on pure tensors (POPT) is
screened by see-saw minimization of <xy|W|xy> over the two product factors:
for a fixed Alice vector the optimal Bob vector is the minimal eigenvector of
the contracted operator, and alternating the two eigenvector steps is
monotone non-increasing. Membership in PSD + PSD^Gamma (the decomposable
cone at the operator level) runs Dykstra alternating projections. Whether a
conjugation map sheds a co-CP part is decided exactly by one eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    finite_matrix,
    min_eig,
    partial_transpose,
    psd_part,
)

FEAS_TOL = 1e-7
STALL_WINDOW = 500
STALL_RELATIVE = 1e-12


@dataclass
class ConeVerdict:
    """Outcome of a membership question, with enough data to re-verify it."""

    status: str  # "member" | "refuted" | "inconclusive" | "certified" | "likely"
    residual: float | None = None
    min_value: float | None = None
    witness: object = None
    certificate: object = None
    info: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status in ("member", "certified")


@dataclass
class SeesawResult:
    min_value: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    best_restart: int  # 1-based index of the restart that reached min_value
    iterations: int
    converged: bool


@dataclass
class DecompositionCertificate:
    """W ≈ p + q with p PSD and q PSD after partial transposition."""

    p: np.ndarray
    q: np.ndarray
    residual: float


def is_psd(w, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Member iff the smallest eigenvalue is >= -tol; witness eigenvector else."""
    lam, vec = min_eig(finite_matrix(w))
    if lam >= -tol:
        return ConeVerdict("member", min_value=lam)
    return ConeVerdict("refuted", min_value=lam, witness=vec)


def is_ppt(w, dims: Sequence[int], tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Member iff the partial transpose is PSD within tol."""
    gamma = partial_transpose(finite_matrix(w), dims, 1)
    verdict = is_psd(gamma, tol=tol)
    verdict.info["checked"] = "partial transpose of second factor"
    return verdict


def _contract_alice(w4: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(<x| (x) I) W (|x> (x) I), a dB x dB Hermitian contraction."""
    return np.einsum("ijkl,i,k->jl", w4, x.conj(), x)


def _contract_bob(w4: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(I (x) <y|) W (I (x) |y>), a dA x dA Hermitian contraction."""
    return np.einsum("ijkl,j,l->ik", w4, y.conj(), y)


def popt_minimize(
    w,
    dims: Sequence[int],
    *,
    seed: int,
    restarts: int = 64,
    max_iter: int = 200,
    tol: float = DEFAULT_TOL,
) -> SeesawResult:
    """Alternating eigenvector minimization of <xy|W|xy> over product vectors.

    Each half-step replaces one side's vector by the minimal eigenvector of
    the other side's contraction, so the objective never increases. The best
    fixed point over seeded random restarts is returned (ties keep the lowest
    restart index). The result is an upper bound on the true minimum over
    product vectors; a value below -tol refutes positivity on pure tensors
    and the witness pair certifies it.
    """
    if restarts < 1:
        raise ValueError(f"the see-saw needs at least one restart, got {restarts}")
    m = finite_matrix(w)
    da, db = int(dims[0]), int(dims[1])
    if m.shape != (da * db, da * db):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    w4 = m.reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    best: SeesawResult | None = None
    for r in range(restarts):
        x = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        x /= np.linalg.norm(x)
        value = np.inf
        iterations = 0
        converged = False
        y = None
        for _ in range(max(1, max_iter)):
            iterations += 1
            _, y = _min_vec(_contract_alice(w4, x))
            # the eigenvalue of the second half-step IS <x_new y|W|x_new y>
            new_value, x = _min_vec(_contract_bob(w4, y))
            if new_value > value + 1e-12:
                raise AssertionError(
                    f"see-saw objective increased: {value} -> {new_value}"
                )
            if value - new_value <= 1e-14 * max(1.0, abs(new_value)):
                value = new_value
                converged = True
                break
            value = new_value
        if best is None or value < best.min_value:
            best = SeesawResult(value, x, y, r + 1, iterations, converged)
    return best


def _min_vec(h: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return float(vals[0]), vecs[:, 0]


def decomposable_sum_membership(
    w,
    dims: Sequence[int],
    tol: float = FEAS_TOL,
    max_iter: int = 20000,
) -> ConeVerdict:
    """Decide W ∈ PSD + PSD^Gamma by Dykstra alternating projections.

    Iterates on pairs (P, Q): project onto the product cone {P psd} x
    {Q^Gamma psd} (independent eigenvalue clipping, the second after
    transposing a factor), then onto the affine set {P + Q = W} (shift both
    by half the gap). Dykstra corrections apply to the cone step only. The
    residual after the cone step is ‖W − P − Q‖_F: member when it drops to
    tol, refuted when it stalls above tol, inconclusive at max_iter.
    """
    m = finite_matrix(w)
    dims = tuple(int(d) for d in dims)
    p = m.copy()
    q = np.zeros_like(m)
    u_p = np.zeros_like(m)
    u_q = np.zeros_like(m)
    best = np.inf
    window_best = np.inf
    cone_p = p
    cone_q = q
    residual = float(np.linalg.norm(m - p - q))
    verdict = None
    for it in range(1, max_iter + 1):
        # cone step with Dykstra corrections
        p_in, q_in = p + u_p, q + u_q
        p = psd_part(p_in)
        q_gamma = psd_part(partial_transpose(q_in, dims, 1))
        q = partial_transpose(q_gamma, dims, 1)
        u_p = p_in - p
        u_q = q_in - q
        # p and q now sit exactly in their cones; keep this pair so every
        # verdict reports a cone-feasible certificate and its true residual.
        cone_p, cone_q = p, q
        residual = float(np.linalg.norm(m - p - q))
        if residual <= tol:
            cert = DecompositionCertificate(p, q, residual)
            verdict = ConeVerdict(
                "member", residual=residual, certificate=cert,
                info={"iterations": it},
            )
            break
        best = min(best, residual)
        if it % STALL_WINDOW == 0:
            if window_best - best <= STALL_RELATIVE * max(1.0, best):
                verdict = ConeVerdict(
                    "refuted", residual=residual,
                    certificate=DecompositionCertificate(p, q, residual),
                    info={"iterations": it, "stalled": True},
                )
                break
            window_best = best
        # affine step
        shift = (m - p - q) / 2.0
        p = p + shift
        q = q + shift
    if verdict is None:
        verdict = ConeVerdict(
            "inconclusive",
            residual=residual,
            certificate=DecompositionCertificate(cone_p, cone_q, residual),
            info={"iterations": max_iter},
        )
    return verdict


def is_popt(
    w,
    dims: Sequence[int],
    *,
    seed: int,
    restarts: int = 64,
    max_iter: int = 200,
    tol: float = DEFAULT_TOL,
    feas_tol: float = FEAS_TOL,
    dykstra_max_iter: int = 20000,
) -> ConeVerdict:
    """Three-valued positivity-on-pure-tensors verdict.

    refuted: the see-saw found a product pair with value < -tol (witness).
    certified: W is PSD, or its partial transpose is PSD, or it splits as
    PSD + PSD^Gamma (each branch implies every product value is >= 0; the
    branch taken is recorded in info). In a 2x2-by-2x2 space the certified/
    refuted dichotomy is exhaustive up to boundary cases, since there the
    positive-on-pure-tensors cone coincides with PSD + PSD^Gamma.
    likely: no violation found and no certificate obtained.
    """
    m = finite_matrix(w)
    psd = is_psd(m, tol=tol)
    if psd:
        return ConeVerdict(
            "certified", min_value=psd.min_value,
            info={"branch": "psd", "psd": True},
        )
    ppt = is_ppt(m, dims, tol=tol)
    if ppt:
        return ConeVerdict(
            "certified",
            info={"branch": "ppt", "psd": False},
        )
    seesaw = popt_minimize(
        m, dims, seed=seed, restarts=restarts, max_iter=max_iter, tol=tol
    )
    if seesaw.min_value < -tol:
        return ConeVerdict(
            "refuted", min_value=seesaw.min_value,
            witness=(seesaw.witness_x, seesaw.witness_y),
            info={"psd": False, "best_restart": seesaw.best_restart},
        )
    membership = decomposable_sum_membership(m, dims, tol=feas_tol, max_iter=dykstra_max_iter)
    if membership.status == "member":
        return ConeVerdict(
            "certified", min_value=seesaw.min_value,
            certificate=membership.certificate,
            info={"branch": "decomposition", "psd": False},
        )
    return ConeVerdict(
        "likely", min_value=seesaw.min_value,
        info={"psd": False, "membership": membership.status},
    )


def extremality_probe(a, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Decide whether X -> AXA† sheds a nonzero co-CP part.

    The Choi operator C = Ch(phi_A) is the rank-one |v><v| on the vectorized
    A, and conjugation maps are extreme rays of the positive cone (Størmer
    1963). So every H with 0 ⪯ H ⪯ C is c·C, and a nonzero H with H^Gamma
    PSD exists iff C^Gamma is PSD. The eigenvalues of C^Gamma are σ_i² and
    ±σ_iσ_j (i < j) for the singular values σ of A, so the smallest is
    −σ₁σ₂ and the split exists iff rank A <= 1, at every scale of A.

    decomposable_nontrivially: λ_min(C^Gamma) >= −tol·Tr C; the certificate
    is H = C / max(Tr C, 2), of trace 1 when ‖A‖_F² >= 2 and C/2 otherwise,
    so H and C − H are both nonzero. rigid: the witness u has
    <u|C^Gamma|u> < 0 and the residual is the scale-free margin
    σ₁σ₂ / ‖A‖_F². A = 0 is rigid with no witness: nothing nonzero fits
    under C = 0.
    """
    from .choimaps import choi_from_conjugation

    a = finite_matrix(a)
    n = a.shape[1]
    if a.shape[0] != a.shape[1]:
        raise ValueError("extremality probe expects a square matrix")
    c_a = choi_from_conjugation(a).choi
    t = float(np.trace(c_a).real)
    lam, u = min_eig(partial_transpose(c_a, (n, n), 1))
    info = {"iterations": 0, "min_eig": lam}
    if t == 0.0:
        return ConeVerdict("rigid", info=info)
    residual = max(-lam, 0.0) / t
    if lam >= -tol * t:
        return ConeVerdict(
            "decomposable_nontrivially",
            residual=residual,
            certificate=c_a / max(t, 2.0),
            info=info,
        )
    return ConeVerdict("rigid", residual=residual, witness=u, info=info)
