"""Cone membership and extremality analysis for bipartite Hermitian operators.

PSD and PPT are spectral checks. Positivity on pure tensors (POPT) is
screened by see-saw minimization of <xy|W|xy> over the two product factors:
for a fixed Alice vector the optimal Bob vector is the minimal eigenvector of
the contracted operator, and alternating the two eigenvector steps is
monotone non-increasing. Membership in PSD + PSD^Gamma (the decomposable
cone at the operator level) is a two-block semidefinite program, solved by
a log-barrier interior-point method in a few dozen Newton steps: its primal
iterate, clipped into the cones, certifies a member, and its dual estimate
is a witness in PSD ∩ PPT when W is not one. Whether a conjugation map sheds
a co-CP part is decided exactly by one eigenvalue.
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
# the barrier parameter μ is divided by this once an iterate is centered
BARRIER_SHRINK = 16.0
# Newton decrement below which an iterate counts as centered
CENTERED = 0.25
# floor of μ relative to ‖W‖_F: below it the Newton system is rounding noise
BARRIER_FLOOR = 1e-15
# slack of the witness shift, relative to its Frobenius norm
WITNESS_MARGIN = 1e-12


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
    return is_psd(partial_transpose(finite_matrix(w), dims, 1), tol=tol)


def popt_minimize(
    w,
    dims: Sequence[int],
    *,
    seed: int,
    restarts: int = 64,
    max_iter: int = 200,
    stop_below: float | None = None,
) -> SeesawResult:
    """Alternating eigenvector minimization of <xy|W|xy> over product vectors.

    Each half-step replaces one side's vector by the minimal eigenvector of
    the other side's contraction, so the objective never increases. All
    seeded random restarts run as one stack: a half-step is one batched
    contraction and one eigh on a (restarts, d, d) stack, and a restart that
    has converged is frozen. Without stop_below, every restart runs to its
    fixed point (or to max_iter sweeps) and the best is returned, ties
    keeping the lowest restart index. With stop_below, the first sweep after
    which the lowest value is below stop_below picks that restart (ties to
    the lowest index); every other restart is frozen where it stands, and the
    picked one is polished to its own fixed point within the same max_iter
    sweeps, so min_value is still a see-saw fixed point and is returned. The
    result is an upper bound on the true minimum over product vectors; a
    negative value refutes positivity on pure tensors and the witness pair
    certifies it.
    """
    if restarts < 1:
        raise ValueError(f"the see-saw needs at least one restart, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"the see-saw needs at least one iteration, got {max_iter}")
    m = finite_matrix(w)
    da, db = int(dims[0]), int(dims[1])
    if m.shape != (da * db, da * db):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    w4 = m.reshape(da, db, da, db)
    g = np.random.default_rng(seed).standard_normal((restarts, 2, da))
    x = g[:, 0] + 1j * g[:, 1]
    # one dot product per row, summed as np.linalg.norm sums a single vector
    x /= np.sqrt(x.real[:, None] @ x.real[:, :, None] + x.imag[:, None] @ x.imag[:, :, None])[:, 0]
    y = np.empty((restarts, db), dtype=complex)
    value = np.full(restarts, np.inf)
    iterations = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    live = np.arange(restarts)
    picked = None
    for _ in range(max_iter):
        xs = x[live]
        _, ys = _min_vecs(np.einsum("ijkl,ri,rk->rjl", w4, xs.conj(), xs))
        # the eigenvalue of the second half-step IS <x_new y|W|x_new y>
        new_value, xs = _min_vecs(np.einsum("ijkl,rj,rl->rik", w4, ys.conj(), ys))
        old_value = value[live]
        rising = new_value > old_value + 1e-12
        if rising.any():
            r = int(np.argmax(rising))
            raise AssertionError(
                f"see-saw objective increased: {old_value[r]} -> {new_value[r]}"
            )
        done = old_value - new_value <= 1e-14 * np.maximum(1.0, np.abs(new_value))
        value[live], x[live], y[live] = new_value, xs, ys
        iterations[live] += 1
        converged[live] = done
        live = live[~done]
        if picked is None and stop_below is not None and value.min() < stop_below:
            picked = int(np.argmin(value))
            live = live[live == picked]
        if live.size == 0:
            break
    # the picked restart is returned even if rounding lifts it above a tie
    best = int(np.argmin(value)) if picked is None else picked
    return SeesawResult(
        float(value[best]), x[best], y[best], best + 1, int(iterations[best]), bool(converged[best])
    )


def _min_vecs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least eigenvalue and its eigenvector for each matrix of a stack."""
    vals, vecs = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
    return vals[:, 0], vecs[:, :, 0]


def _gamma_index(n: int, dims: Sequence[int]) -> np.ndarray:
    """Flat indices with X^Gamma.ravel() == X.ravel()[index] for every n x n X."""
    cells = np.arange(n * n, dtype=float).reshape(n, n)
    return partial_transpose(cells, dims, 1).real.astype(np.intp).ravel()


def decomposable_sum_membership(
    w,
    dims: Sequence[int],
    tol: float = FEAS_TOL,
    max_iter: int = 20000,
) -> ConeVerdict:
    """Decide W ∈ K = PSD + PSD^Gamma by a log-barrier interior-point method.

    Solves min t subject to X1 = P + tI ⪰ 0 and X2 = (W − P)^Gamma + tI ⪰ 0
    over Hermitian P and real t, whose optimum is <= 0 iff W ∈ K. Each
    iteration examines the current iterate, then takes one damped Newton
    step on t/μ − log det X1 − log det X2, and divides μ by BARRIER_SHRINK
    once the step is short enough to call the iterate centered. Iterates
    scale with W, so every verdict is scale invariant.

    member: the cone-clipped pair P_c = psd_part(P), Q_c = Gamma(psd_part(
    Q^Gamma)) with Q = W − P meets ‖W − P_c − Q_c‖_F <= tol·‖W‖_F (W = 0 is
    a member at once). refuted: the barrier's dual estimate Z = μ(X1⁻¹ +
    Gamma(X2⁻¹))/2, which sits in K* = PSD ∩ PPT on the central path,
    passes witness_holds. inconclusive: max_iter iterates (the start and
    max_iter − 1 Newton steps) or μ at its floor BARRIER_FLOOR·‖W‖_F. Every
    verdict carries the last clipped pair as its certificate.
    """
    if max_iter < 1:
        raise ValueError(f"membership needs at least one iteration, got {max_iter}")
    m = finite_matrix(w)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"membership expects a square operator, got shape {m.shape}")
    gamma = _gamma_index(n, dims)

    def g(a):  # partial transpose of a matrix or of each matrix of a stack
        return a.reshape(a.shape[:-2] + (n * n,))[..., gamma].reshape(a.shape)

    scale = float(np.linalg.norm(m))
    eye = np.eye(n)
    # start at P = W, so a PSD operator is a member at the first iterate
    p = m
    t = max(0.0, -np.linalg.eigvalsh(m)[0]) + scale
    mu = None
    z = None
    for it in range(1, max_iter + 1):
        # P and Q^Gamma: X1 and X2 without their shift tI
        blocks = np.stack([p, g(m - p)])
        clipped = psd_part(blocks)
        p_c, q_c = clipped[0], g(clipped[1])
        residual = float(np.linalg.norm(m - p_c - q_c))
        if residual <= tol * scale:
            status = "member"
            break
        s = np.linalg.inv(blocks + t * eye)
        if mu is None:
            # the start is centered in t: the gradient's t-component vanishes
            mu = 1.0 / np.trace(s, axis1=1, axis2=2).real.sum()
        z = _dual_witness(m, -mu * (s[0] + g(s[1])) / 2.0, dims)
        if z is not None:
            status = "refuted"
            break
        if it == max_iter or mu < BARRIER_FLOOR * scale:
            status = "inconclusive"
            break
        p, t, decrement = _newton_step(p, t, mu, s, gamma)
        if decrement < CENTERED:
            mu /= BARRIER_SHRINK
    return ConeVerdict(
        status,
        residual=residual,
        witness=z,
        certificate=DecompositionCertificate(p_c, q_c, residual),
        info={"iterations": it},
    )


def _newton_step(p, t, mu, s, gamma):
    """One damped Newton step on t/μ − log det X1 − log det X2 from (P, t).

    s stacks X1⁻¹ and X2⁻¹. The system runs over the n² complex entries of
    P plus t; its matrix maps a Hermitian P to a Hermitian one and t to a
    real number, so the solution is a Hermitian ΔP and a real Δt, the same
    as in a real Hermitian basis. A step of 1/(1 + decrement) stays inside
    both cones (the barrier is self-concordant). Returns the new P and t
    and the Newton decrement.
    """
    n = p.shape[0]
    nn = n * n
    # kron(S, S^T), the Hessian of −log det X in row-major coordinates
    k = (s[:, :, None, :, None] * s.swapaxes(1, 2)[:, None, :, None, :]).reshape(2, nn, nn)
    s2 = s @ s
    h = np.empty((nn + 1, nn + 1), dtype=complex)
    h[:nn, :nn] = k[0] + k[1][gamma[:, None], gamma]
    h[:nn, nn] = s2[0].ravel() - s2[1].ravel()[gamma]
    h[nn, :nn] = h[:nn, nn].conj()
    h[nn, nn] = np.trace(s2, axis1=1, axis2=2).real.sum()
    grad = np.append(
        s[1].ravel()[gamma] - s[0].ravel(), 1.0 / mu - np.trace(s, axis1=1, axis2=2).real.sum()
    )
    step = np.linalg.solve(h, -grad)
    decrement = float(np.sqrt(max(0.0, -np.vdot(grad, step).real)))
    alpha = 1.0 if decrement < CENTERED else 1.0 / (1.0 + decrement)
    dp = step[:nn].reshape(n, n)
    return p + alpha * (dp + dp.conj().T) / 2.0, t + alpha * step[nn].real, decrement


def _dual_witness(m: np.ndarray, r: np.ndarray, dims: Sequence[int]) -> np.ndarray | None:
    """Z ∈ PSD ∩ PPT with Tr(ZW) < 0 built from the candidate −R, or None.

    Z = −herm(R) + (ε + margin)·I, with ε = max(0, −λ_min(Z), −λ_min(Z^Gamma))
    before the shift, lies in K* = PSD ∩ PPT, and the margin (WITNESS_MARGIN
    relative to ‖Z‖_F) keeps eigvalsh rounding from undoing the shift. The
    answer rests on the re-check a reader would make, witness_holds.
    """
    z = -(r + r.conj().T) / 2.0
    floor = min(np.linalg.eigvalsh(z)[0], np.linalg.eigvalsh(partial_transpose(z, dims, 1))[0])
    z = z + (max(0.0, -floor) + WITNESS_MARGIN * np.linalg.norm(z)) * np.eye(m.shape[0])
    return z if witness_holds(m, dims, z) else None


def witness_holds(w, dims: Sequence[int], z) -> bool:
    """True iff Tr(ZW) < 0, Z ⪰ 0 and Z^Gamma ⪰ 0, recomputed for Hermitian Z.

    Such a Z separates W from PSD + PSD^Gamma: every element of that cone has
    Tr(ZW) >= 0 against it. The trace is checked first, as the cheapest.
    """
    return bool(
        np.vdot(z, w).real < 0.0  # Tr(ZW) for Hermitian Z
        and np.linalg.eigvalsh(z)[0] >= 0.0
        and np.linalg.eigvalsh(partial_transpose(z, dims, 1))[0] >= 0.0
    )


def is_popt(
    w,
    dims: Sequence[int],
    *,
    seed: int,
    restarts: int = 64,
    max_iter: int = 200,
    tol: float = DEFAULT_TOL,
    feas_tol: float = FEAS_TOL,
    membership_max_iter: int = 20000,
) -> ConeVerdict:
    """Three-valued positivity-on-pure-tensors verdict.

    refuted: the see-saw found a product pair with value < -tol (witness).
    The see-saw stops at its first refutation: once a restart is below -tol
    only that one is polished to its fixed point. The objective never
    increases, so, up to rounding at -tol itself, the verdict is the one a
    run of every restart to convergence would give.
    certified: W is PSD, or its partial transpose is PSD, or it splits as
    PSD + PSD^Gamma (each branch implies every product value is >= 0; the
    branch taken is recorded in info). In 2x2 and 2x3 the positive-on-pure-
    tensors cone coincides with PSD + PSD^Gamma (Størmer, Woronowicz), so
    there the membership test settles every operator the see-saw does not
    refute, on the cone's boundary too, unless membership_max_iter (a cap
    on its Newton iterates) runs out.
    likely: no violation found and no certificate obtained; info records the
    membership status.
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
        m, dims, seed=seed, restarts=restarts, max_iter=max_iter, stop_below=-tol
    )
    if seesaw.min_value < -tol:
        return ConeVerdict(
            "refuted", min_value=seesaw.min_value,
            witness=(seesaw.witness_x, seesaw.witness_y),
            info={"psd": False, "best_restart": seesaw.best_restart},
        )
    membership = decomposable_sum_membership(m, dims, tol=feas_tol, max_iter=membership_max_iter)
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
