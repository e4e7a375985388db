"""Cone membership and extremality analysis for bipartite Hermitian operators.

PSD and PPT are spectral checks. Positivity on pure tensors (POPT) is
screened by see-saw minimization of <xy|W|xy> over the two product factors:
for a fixed Alice vector the optimal Bob vector is the minimal eigenvector of
the contracted operator, and alternating the two eigenvector steps is
monotone non-increasing. On a qubit factor, is_popt first reads that minimum
at the 12 icosahedron vertices of its Bloch sphere in one stacked eigh, and
at 42, 162 and 642 icosphere vertices before it answers likely. Membership
in PSD + PSD^Gamma (the decomposable cone at the operator level) is a
two-block semidefinite program, solved by a log-barrier interior-point
method that starts at the midpoint split W/2 + W/2 and whose long Newton
steps go most of the way to the cones' boundary (a PSD or PPT operator is a
member at the first iterate, others take about 2 to 3 iterates inside the
cone and 16 to 22 on its boundary, in 2x2 to 4x4): its primal iterate,
clipped into the cones, certifies a member, and its dual estimate is a
witness in PSD ∩ PPT when W is not one. Whether a conjugation map sheds a
co-CP part is decided exactly by one eigenvalue.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _admit,
    _binary_scaled,
    _check_dims,
    _hermitian_part,
    _ldexp,
    _least_eigh,
    as_matrix,
    finite_matrix,
    frobenius,
    min_eig,
    partial_transpose,
)

FEAS_TOL = 1e-7
# the barrier parameter μ is divided by this at the start and after every whole step
BARRIER_SHRINK = 16.0
# share of the way to the cones' boundary that a long Newton step goes
TO_BOUNDARY = 0.9
# the starting shift t above the least eigenvalue of the midpoint split, relative to ‖W‖_F
START_MARGIN = 0.25
# floor of μ relative to ‖W‖_F: below it the Newton system is rounding noise
BARRIER_FLOOR = 1e-15
# slack of the witness shift, relative to its Frobenius norm
WITNESS_MARGIN = 1e-12
# rounding of a see-saw value, relative to max(1, ‖W‖_F)
SEESAW_ROUNDING = 1e-12
# about the least residual membership reaches on the cone's boundary, relative to ‖W‖_F
MEMBERSHIP_ROUNDING = 1e-13
# restarts is_popt sweeps alone first; the rest are swept only if the block decides nothing
FIRST_BLOCK = 8


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
    iterations: int  # sweeps that restart ran: for a pick, up to the sweep that picked it
    converged: bool  # its last sweep moved it by <= 1e-14·max(1, |value|); a pick rarely has


@dataclass
class DecompositionCertificate:
    """W ≈ p + q with p PSD and q PSD after partial transposition."""

    p: np.ndarray
    q: np.ndarray
    residual: float


def is_psd(w, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Member iff the smallest eigenvalue is >= -tol; witness eigenvector else."""
    lam, vec = min_eig(w)
    if lam >= -tol:
        return ConeVerdict("member", min_value=lam)
    return ConeVerdict("refuted", min_value=lam, witness=vec)


def is_ppt(w, dims: Sequence[int], tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Member iff the partial transpose is PSD within tol."""
    return is_psd(partial_transpose(_admit(w, dims), dims, 1), tol=tol)


def popt_minimize(
    w,
    dims: Sequence[int],
    *,
    seed: int,
    restarts: int = 64,
    max_iter: int = 200,
) -> SeesawResult:
    """Alternating eigenvector minimization of <xy|W|xy> over product vectors.

    Each half-step replaces one side's vector by the minimal eigenvector of
    the other side's contraction, so the objective never increases. All
    seeded random restarts run as one stack: a half-step is one batched
    contraction and one eigh on a (restarts, d, d) stack, and a restart that
    has converged is frozen. Every restart runs to its fixed point (or to
    max_iter sweeps), unlike in is_popt, and the best is returned, ties
    keeping the lowest restart index. The result is an upper bound on the
    true minimum over product vectors; a negative value refutes positivity
    on pure tensors and the witness pair certifies it. W is admitted by
    linalg._admit.
    """
    *_, (_, result) = _seesaw_sweeps(_admit(w, dims), dims, seed, restarts, max_iter, -np.inf)
    return result


def _seesaw_sweeps(m, dims, seed, restarts, max_iter, stop_below):
    """popt_minimize's see-saw on an admitted W, paused after each sweep.

    Yields (lowest restart value, None) after each sweep but the last, and
    (lowest restart value, the SeesawResult) after the last. The first
    sweep whose lowest value is below stop_below is the last: it picks that
    restart (ties to the lowest index) as the sweep left it, not at a fixed
    point. With stop_below −inf nothing is picked: that is popt_minimize.
    At a yield that picked nothing, the last one included, a larger restart
    count n may be sent (the send returns None): the restarts up to n join
    at the next sweep, drawn as the rows past the current ones of the draw
    that n restarts make, whose first rows are the current restarts' draw.
    A restart does not depend on its batch and runs to its own fixed point
    or to max_iter sweeps, so every restart's arithmetic is what one batch
    of all n would give. The arguments are checked at the first next().
    """
    if restarts < 1:
        raise ValueError(f"the see-saw needs at least one restart, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"the see-saw needs at least one iteration, got {max_iter}")
    da, db = _check_dims(m, dims)
    w4 = m.reshape(da, db, da, db)
    # eigh rounds each value to within a few ulps of ‖W‖, not of the value
    slack = SEESAW_ROUNDING * max(1.0, frobenius(m))

    def start(n):  # the unit starting vectors of the first n restarts
        g = np.random.default_rng(seed).standard_normal((n, 2, da))
        x = g[:, 0] + 1j * g[:, 1]
        # one dot product per row, summed as a vector norm sums its real and imaginary parts
        norm = np.sqrt(x.real[:, None] @ x.real[:, :, None] + x.imag[:, None] @ x.imag[:, :, None])
        return x / norm[:, 0]

    x = start(restarts)
    y = np.empty((restarts, db), dtype=complex)
    value = np.full(restarts, np.inf)
    iterations = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    live = np.arange(restarts)
    while True:
        xs = x[live]
        _, ys = _least_eigh(np.einsum("ijkl,ri,rk->rjl", w4, xs.conj(), xs))
        # the eigenvalue of the second half-step IS <x_new y|W|x_new y>
        new_value, xs = _least_eigh(np.einsum("ijkl,rj,rl->rik", w4, ys.conj(), ys))
        old_value = value[live]
        rising = new_value > old_value + slack
        if rising.any():
            r = int(np.argmax(rising))
            raise AssertionError(f"see-saw objective increased: {old_value[r]} -> {new_value[r]}")
        done = old_value - new_value <= 1e-14 * np.maximum(1.0, np.abs(new_value))
        value[live], x[live], y[live] = new_value, xs, ys
        iterations[live] += 1
        converged[live] = done
        live = live[~done & (iterations[live] < max_iter)]
        lowest = float(value.min())
        result = None
        if lowest < stop_below or live.size == 0:
            best = int(np.argmin(value))
            result = SeesawResult(
                float(value[best]), x[best], y[best], best + 1, int(iterations[best]), bool(converged[best])
            )
        grow = yield lowest, result
        if grow is not None:
            added = np.arange(len(value), grow)
            x = np.concatenate((x, start(grow)[added]))
            y = np.concatenate((y, np.empty((added.size, db), dtype=complex)))
            value = np.concatenate((value, np.full(added.size, np.inf)))
            iterations = np.concatenate((iterations, np.zeros(added.size, dtype=int)))
            converged = np.concatenate((converged, np.zeros(added.size, dtype=bool)))
            live = np.concatenate((live, added))
            yield  # the send's reply
        elif result is not None:
            return


def _check_tolerances(**tolerances) -> None:
    """Refuse a tolerance that is negative or not finite, as the CLI does."""
    for name, value in tolerances.items():
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {value}")


@functools.lru_cache(maxsize=64)
def _gamma_index(n: int, dims: tuple[int, ...]) -> np.ndarray:
    """Flat indices with X^Gamma.ravel() == X.ravel()[index] for every n x n X.

    Built once per (n, dims) and shared, so the array is read-only.
    """
    cells = np.arange(n * n, dtype=float).reshape(n, n)
    index = partial_transpose(cells, dims, 1).real.astype(np.intp).ravel()
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=4)
def _bloch_vertices(level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Unit qubit vectors x_k at the icosphere's vertices and their flattened conj(x_i)·x_k, read-only.

    Level 0 is the icosahedron: Bloch vectors at the poles z = ±1, then z = ±1/√5 at φ = 2πk/5
    (upper ring) and 2πk/5 + π/5 (lower ring), with x = (√((1+z)/2), e^{iφ}·√((1−z)/2)), so |0⟩
    and |1⟩ are exact. Each level adds every edge's normalized midpoint and splits every triangle
    in four: 42, 162, 642 vertices."""
    ring = 2 * np.pi * np.arange(5) / 5
    z, phi = np.repeat([1.0, -1.0, 0.2**0.5, -(0.2**0.5)], [1, 1, 5, 5]), np.r_[0.0, 0.0, ring, ring + np.pi / 5]
    bloch = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], axis=1)
    near = bloch @ bloch.T > 0  # neighbours meet at cosine 1/√5, the others at −1/√5 or −1
    faces = np.array([t for t in itertools.combinations(range(12), 3) if near[np.ix_(t, t)].all()])
    for _ in range(level):
        edges, at = np.unique(np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)), axis=0, return_inverse=True)
        (a, b, c), (ab, bc, ca) = faces.T, len(bloch) + at.reshape(-1, 3).T
        faces = np.stack([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]).transpose(0, 2, 1).reshape(-1, 3)
        mid = bloch[edges].sum(axis=1)
        bloch = np.concatenate((bloch, mid / np.linalg.norm(mid, axis=1, keepdims=True)))
    phase = np.exp(1j * np.arctan2(bloch[:, 1], bloch[:, 0]))
    x = np.stack([np.sqrt((1 + bloch[:, 2]) / 2) + 0j, phase * np.sqrt((1 - bloch[:, 2]) / 2)], axis=1)
    outer = (x.conj()[:, :, None] * x[:, None, :]).reshape(-1, 4)
    x.flags.writeable = outer.flags.writeable = False
    return x, outer


def _vertex_look(m, dims, level: int) -> tuple[float, tuple, int]:
    """The least ⟨xy|W|xy⟩ over x at the level's vertices on the qubit factor, Alice's if she has
    one, from one product and one stacked eigh: the value, its pair (Alice's first), the vertex's index."""
    x, outer = _bloch_vertices(level)
    da, db = _check_dims(m, dims)
    q, d = (0, db) if da == 2 else (1, da)
    w4 = m.reshape(da, db, da, db).transpose(q, q + 2, 1 - q, 3 - q).reshape(4, d * d)
    values, ys = _least_eigh((outer @ w4).reshape(len(x), d, d))
    k = int(np.argmin(values))
    xk = x[k].copy()  # the caller's own, not a row of the shared read-only table
    return float(values[k]), ((xk, ys[k]) if q == 0 else (ys[k], xk)), k


def decomposable_sum_membership(
    w,
    dims: Sequence[int],
    tol: float = FEAS_TOL,
    max_iter: int = 20000,
) -> ConeVerdict:
    """Decide W ∈ K = PSD + PSD^Gamma by a log-barrier interior-point method.

    Solves min t subject to X1 = P + tI ⪰ 0 and X2 = (W − P)^Gamma + tI ⪰ 0
    over Hermitian P and real t, whose optimum is <= 0 iff W ∈ K. Each
    iteration examines the current iterate, read from one eigh of the pair
    (P, Q^Gamma). The first is the midpoint split P = Q = W/2; twice each of
    its clipped halves is the split (W, 0) or (0, W), so it also examines
    those, and a PSD or a PPT W is a member at once. It keeps the split of
    least residual, the first of equals. The barrier starts at the midpoint
    with t = max(0, −λ_min(W/2), −λ_min(W^Gamma/2)) + START_MARGIN·‖W‖_F,
    from the same eigh. An iteration that decides nothing steps along the
    Newton direction of t/μ − log det X1 − log det X2, whose Newton
    decrement is δ. A step with δ < 1 is whole: it stays inside the Dikin ellipsoid, so
    inside both cones. A longer one goes TO_BOUNDARY of the way to the
    nearer cone's boundary, but never less than the self-concordant
    1/(1 + δ) nor more than 1 (the fraction-to-the-boundary rule, Nocedal &
    Wright, Numerical Optimization, §19.2). μ starts at μ₀/BARRIER_SHRINK,
    where μ₀ = 1/Σ 1/λ over the eigenvalues of the starting X1 and X2
    centers the start in t, and is divided by BARRIER_SHRINK again after
    every whole step, which counts as centered. It runs on
    _binary_scaled(W), W times a power of two, so every verdict is scale
    invariant by construction.

    member: the cone-clipped pair P_c = psd_part(P), Q_c = Gamma(psd_part(
    Q^Gamma)) with Q = W − P meets ‖W − P_c − Q_c‖_F <= tol·‖W‖_F (W = 0 is
    a member at once). refuted: the barrier's dual estimate Z = μ(X1⁻¹ +
    Gamma(X2⁻¹))/2, which sits in K* = PSD ∩ PPT on the central path,
    passes witness_holds. inconclusive: max_iter iterates (the start and
    max_iter − 1 Newton steps) or μ below its floor BARRIER_FLOOR times the
    Frobenius norm of the binary-scaled W, the same floor relative to ‖W‖_F
    at every scale. Every verdict carries the last clipped pair as its
    certificate. W is admitted by linalg._admit.
    """
    _check_tolerances(tol=tol)
    return _membership(_admit(w, dims), dims, tol, tol, max_iter)[0]


def _membership(m, dims, tol, loose_tol, max_iter) -> tuple[ConeVerdict, ConeVerdict]:
    """decomposable_sum_membership of an admitted W at tol, and its verdict at loose_tol >= tol.

    The iterates do not depend on the tolerance, so a run at loose_tol ends
    as a member at the first iterate whose residual meets loose_tol, unless
    the run at tol ends earlier, and then with the same verdict: one object
    for both.
    """
    if max_iter < 1:
        raise ValueError(f"membership needs at least one iteration, got {max_iter}")
    n = m.shape[0]
    gamma = _gamma_index(n, tuple(dims))

    def g(a):  # partial transpose of a matrix or of each matrix of a stack
        return a.reshape(a.shape[:-2] + (n * n,))[..., gamma].reshape(a.shape)

    m, e = _binary_scaled(m)
    scale = frobenius(m)
    eye = np.eye(n)
    # start at the midpoint split P = Q = W/2, exactly half of W
    p = m / 2.0
    mu = None
    z = None
    loose = None

    def verdict(status):  # P, Q and the residual scaled back by 2^e, exactly
        p_w, q_w = (np.ldexp(a.view(float), e).view(complex) for a in (p_c, q_c))
        r = _ldexp(residual, e)
        return ConeVerdict(
            status,
            residual=r,
            witness=z,
            certificate=DecompositionCertificate(p_w, q_w, r),
            info={"iterations": it},
        )

    for it in range(1, max_iter + 1):
        # P and Q^Gamma, X1 and X2 without their shift tI, in one eigh: X = V·diag(λ + t)·V†
        vals, vecs = np.linalg.eigh(_hermitian_part(np.stack([p, g(m - p)])))
        vecs_h = vecs.conj().swapaxes(1, 2)
        clipped = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ vecs_h  # psd_part of each
        p_c, q_c = clipped[0], g(clipped[1])
        residual = frobenius(m - p_c - q_c)
        if it == 1:
            # twice each half is the split (W, 0) or (0, W): a PSD or a PPT W is a member at once
            zero = np.zeros_like(m)
            splits = [(2.0 * p_c, zero), (zero, 2.0 * q_c), (p_c, q_c)]
            residuals = [frobenius(m - a - b) for a, b in splits[:2]] + [residual]
            best = int(np.argmin(residuals))  # the first of equals
            (p_c, q_c), residual = splits[best], residuals[best]
            t = max(0.0, -vals[:, 0].min()) + START_MARGIN * scale
        if residual <= tol * scale:
            status = "member"
            break
        if loose is None and residual <= loose_tol * scale:
            loose = verdict("member")
        d = vals + t
        s = (vecs / d[:, None, :]) @ vecs_h  # X1⁻¹ and X2⁻¹
        if mu is None:
            # the start is centered in t (the gradient's t-component vanishes), so shrink at once
            mu = 1.0 / (1.0 / d).sum() / BARRIER_SHRINK
        z = _dual_witness(m, -mu * (s[0] + g(s[1])) / 2.0, dims)
        if z is not None:
            status = "refuted"
            break
        if it == max_iter or mu < BARRIER_FLOOR * scale:
            status = "inconclusive"
            break
        dp, dt, decrement = _newton_step(mu, s, gamma)
        alpha = 1.0
        if decrement >= 1.0:
            # X + α·ΔX stays ⪰ 0 while α·λ_min(D^(-1/2)·V†ΔX·V·D^(-1/2)) > −1 in both blocks,
            # with ΔX1 = ΔP + Δt·I and ΔX2 = −ΔP^Gamma + Δt·I
            r = 1.0 / np.sqrt(d)
            dx = vecs_h @ np.stack([dp, -g(dp)]) @ vecs + dt * eye
            least = np.linalg.eigvalsh(r[:, :, None] * dx * r[:, None, :])[:, 0].min()
            if least < 0.0:
                alpha = max(1.0 / (1.0 + decrement), min(1.0, -TO_BOUNDARY / least))
        p, t = p + alpha * dp, t + alpha * dt
        if decrement < 1.0:
            mu /= BARRIER_SHRINK
    last = verdict(status)
    return last, last if loose is None else loose


def _newton_step(mu, s, gamma):
    """The Newton direction (ΔP, Δt) of t/μ − log det X1 − log det X2, and its decrement.

    s stacks X1⁻¹ and X2⁻¹. The system runs over the n² complex entries of
    P plus t; its matrix maps a Hermitian P to a Hermitian one and t to a
    real number, so the solution is a Hermitian ΔP and a real Δt, the same
    as in a real Hermitian basis.
    """
    n = s.shape[1]
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
    return _hermitian_part(step[:nn].reshape(n, n)), step[nn].real, decrement


def _dual_witness(m: np.ndarray, r: np.ndarray, dims: Sequence[int]) -> np.ndarray | None:
    """Z ∈ PSD ∩ PPT with Tr(ZW) < 0 built from the candidate −R, or None.

    Z = −herm(R) + (ε + margin)·I, with ε = max(0, −λ_min(Z), −λ_min(Z^Gamma))
    before the shift, lies in K* = PSD ∩ PPT, and the margin (WITNESS_MARGIN
    relative to ‖Z‖_F) keeps eigvalsh rounding from undoing the shift. The
    answer rests on the re-check a reader would make, witness_holds. When
    Tr(Z₀W) >= 0 and Tr W >= 0 for the unshifted Z₀ = −herm(R), None is
    returned before any eigenvalue is computed: a shift s·I with s >= 0 only
    adds s·Tr W, so Tr(ZW) cannot become negative.
    """
    z = -_hermitian_part(r)
    if np.vdot(z, m).real >= 0.0 and np.trace(m).real >= 0.0:
        return None
    floor = min(np.linalg.eigvalsh(z)[0], np.linalg.eigvalsh(partial_transpose(z, dims, 1))[0])
    z = z + (max(0.0, -floor) + WITNESS_MARGIN * frobenius(z)) * np.eye(m.shape[0])
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


def split_holds(w, dims: Sequence[int], p, q) -> bool:
    """True iff ‖W − P − Q‖_F <= FEAS_TOL·‖W‖_F, P ⪰ 0 and Q^Gamma ⪰ 0, recomputed.

    Such a split puts W in PSD + PSD^Gamma. Each least eigenvalue may read
    down to −MEMBERSHIP_ROUNDING·‖W‖_F, the rounding left by a part clipped
    onto the cone's boundary. Every quantity scales with W, so the answer
    does not change with scale. The residual is checked first, as the
    cheapest. W, P and Q must all be on dims, or ValueError is raised.
    """
    w, p, q = (as_matrix(a) for a in (w, p, q))
    for a in (w, p, q):
        _check_dims(a, dims)
    norm = frobenius(w)
    floor = -MEMBERSHIP_ROUNDING * norm
    return bool(
        frobenius(w - p - q) <= FEAS_TOL * norm
        and np.linalg.eigvalsh(p)[0] >= floor
        and np.linalg.eigvalsh(partial_transpose(q, dims, 1))[0] >= floor
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

    The phases run in this order, each only if the earlier ones decided
    nothing:
    1. tol, feas_tol (finite, >= 0), the three counts (>= 1) and W (finite,
       Hermitian, on dims) are checked first, or ValueError is raised. PSD,
       then PPT, read from one eigh of (W, W^Gamma): certified (branch psd or ppt).
    2. On a qubit factor (Alice's if she has one), the vertex look: the
       least ⟨xy|W|xy⟩ over unit y with x at the 12 icosahedron vertices of
       the qubit's Bloch sphere, from one stacked eigh. Its pair refutes
       below -tol - rounding (rounding = SEESAW_ROUNDING·max(1, ‖W‖_F)).
       Then the see-saw of _seesaw_sweeps, one batched sweep at a time, on
       the first FIRST_BLOCK restarts alone. It stops at the first sweep
       whose lowest value is below -tol - rounding, picking that restart as
       the sweep left it: its pair refutes, and re-checks below -tol through
       eigh's rounding. Otherwise the block runs until it ends (each of its
       restarts converged or at max_iter sweeps) or stalls: a sweep that
       is not its last lowered the lowest value seen by no more than its
       height above -tol, so at its pace the next sweep would not refute.
       Before the first sweep that value is the look's least one, or +inf
       without a qubit factor. A value within rounding of 0 does not count
       either: the see-saw has then settled on the cone's boundary and ends
       by itself within a few sweeps, sooner than membership would reach the
       residual of phase 3.
    3. At the block's stall or end, if its lowest value is above rounding,
       membership in PSD + PSD^Gamma with an absolute residual of at most
       tol (relative tol / ‖W‖_F, capped at feas_tol). A member gives
       ⟨xy|W|xy⟩ >= -tol on every unit product vector, so no see-saw could
       refute it: certified (branch decomposition), and the other restarts
       are never swept. The solver's iterates do not depend on its tol, so
       the same run also notes the verdict it gives at feas_tol, for phase
       5. Membership is not asked when tol < MEMBERSHIP_ROUNDING·‖W‖_F, a
       residual it does not reach.
    4. Otherwise the other restarts join the block at the next sweep, and
       the see-saw runs to its stop or end. A restart does not depend on its
       batch, and the objective never increases, so, up to rounding at -tol
       itself, the verdict is the one a run of every restart to convergence
       would give: refuted, with the product pair as witness. A value in
       [-tol - rounding, -tol) stops nothing, and it may be eigh's rounding
       of a value >= -tol (rounding exceeds tol once ‖W‖_F is large): it
       refutes only if <xy|W|xy> < -tol·‖x⊗y‖² holds in exact arithmetic
       on the floats of W and of the pair, and goes on to phase 5 otherwise.
    5. Otherwise membership at feas_tol (relative to ‖W‖_F), noted in phase
       3 or solved now if phase 3 did not run: certified (branch
       decomposition) on a member. Otherwise, on a qubit factor, icosphere
       levels 1 to 3, one stacked eigh each, refute by phase 4's rule; likely else.
    The verdict is the one phases 1, 4 and 5 alone would give, each vertex
    pair counted as one more restart; phase 3 and the stall only save
    sweeps. In 2x2 and 2x3 the positive-on-pure-tensors cone coincides with
    PSD + PSD^Gamma (Størmer, Woronowicz), so there membership settles
    every operator nothing refutes, on the cone's boundary too, unless
    membership_max_iter (a cap on its Newton iterates) runs out.

    min_value is λ_min(W) in the psd branch and None in the ppt branch. In
    the decomposition branch it is the block's lowest see-saw value at its
    stall or end when phase 3 certifies, and the converged see-saw value
    when phase 5 does, which may lie in phase 4's band. refuted reports the
    look's least vertex value (info vertex, 1-based), the picked restart's value at the
    sweep that picked it (info best_restart), the converged value if nothing was picked, or a
    level's least vertex value (info vertex and level); likely reports the converged value and
    records the membership status and, on a qubit factor, level 3 in info. Every branch past
    phase 1 records in info restarts_swept: 0 when the look refutes, the block's size when
    the block decided, restarts else. The decomposition branch and likely also record
    membership_iterations, the iterates of the membership verdict they used:
    phase 3's at its tight tol, or the one at feas_tol of phase 5.
    """
    _check_tolerances(tol=tol, feas_tol=feas_tol)
    counts = {"restarts": restarts, "max_iter": max_iter, "membership_max_iter": membership_max_iter}
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    m = _admit(w, dims)
    # eigh, not eigvalsh: its eigenvalues are those min_eig reports, bit for bit
    least = _least_eigh(np.stack((m, partial_transpose(m, dims, 1))))[0]
    if least[0] >= -tol:
        return ConeVerdict("certified", min_value=float(least[0]), info={"branch": "psd", "psd": True})
    if least[1] >= -tol:
        return ConeVerdict("certified", info={"branch": "ppt", "psd": False})
    membership = None
    norm = frobenius(m)
    asks = tol >= MEMBERSHIP_ROUNDING * norm
    rounding = SEESAW_ROUNDING * max(1.0, norm)
    stop = -tol - rounding
    has_qubit = len(dims) == 2 and 2 in dims
    previous, pair, k = _vertex_look(m, dims, 0) if has_qubit else (np.inf, None, None)
    if previous < stop:
        info = {"psd": False, "restarts_swept": 0, "vertex": k + 1}
        return ConeVerdict("refuted", min_value=previous, witness=pair, info=info)
    # the first block is swept alone until it picks, stalls or ends
    swept = min(restarts, FIRST_BLOCK)
    sweeps = _seesaw_sweeps(m, dims, seed, swept, max_iter, stop)
    alone = True
    for lowest, seesaw in sweeps:
        stalled = seesaw is None and rounding < lowest and previous - lowest <= lowest + tol
        ended = seesaw is not None and lowest >= stop  # without a pick
        if alone and (stalled or ended):
            alone = False
            if asks and rounding < lowest:
                tight = min(feas_tol, tol / norm)
                shortcut, membership = _membership(m, dims, tight, feas_tol, membership_max_iter)
                if shortcut.status == "member":
                    return _decomposition(lowest, shortcut, swept)
            if swept < restarts:
                swept = restarts
                sweeps.send(swept)
        previous = lowest
    info = {"psd": False, "restarts_swept": swept}
    pair = (seesaw.witness_x, seesaw.witness_y)
    if _refutes(m, seesaw.min_value, pair, stop, tol):
        info["best_restart"] = seesaw.best_restart
        return ConeVerdict("refuted", min_value=seesaw.min_value, witness=pair, info=info)
    if membership is None:
        membership = decomposable_sum_membership(m, dims, tol=feas_tol, max_iter=membership_max_iter)
    if membership.status == "member":
        return _decomposition(seesaw.min_value, membership, swept)
    for level in (1, 2, 3) if has_qubit else ():
        info["level"] = level
        value, pair, k = _vertex_look(m, dims, level)
        if _refutes(m, value, pair, stop, tol):
            return ConeVerdict("refuted", min_value=value, witness=pair, info={**info, "vertex": k + 1})
    return ConeVerdict(
        "likely", min_value=seesaw.min_value,
        info={
            **info, "membership": membership.status,
            "membership_iterations": membership.info["iterations"],
        },
    )


def _refutes(w, value: float, pair, stop: float, tol: float) -> bool:
    """A product pair's value refutes below stop. In [stop, -tol) it may be eigh's rounding of a
    value >= -tol: there the pair refutes only if Re⟨xy|W|xy⟩ < -tol·‖x⊗y‖² holds in exact
    arithmetic on the floats of W, x and y."""
    if value < stop or value >= -tol:
        return value < stop

    def exact(a):  # real and imaginary parts as arrays of Fractions
        return (np.vectorize(Fraction, otypes=[object])(part) for part in (a.real, a.imag))

    (xr, xi), (yr, yi), (wr, wi) = (exact(a) for a in (*pair, w))
    vr = (np.outer(xr, yr) - np.outer(xi, yi)).ravel()  # x ⊗ y
    vi = (np.outer(xr, yi) + np.outer(xi, yr)).ravel()
    value = vr @ (wr @ vr - wi @ vi) + vi @ (wr @ vi + wi @ vr)
    return value < -Fraction(tol) * (xr @ xr + xi @ xi) * (yr @ yr + yi @ yi)


def _decomposition(min_value: float, membership: ConeVerdict, swept: int) -> ConeVerdict:
    """is_popt's certified verdict on a member of PSD + PSD^Gamma."""
    return ConeVerdict(
        "certified", min_value=min_value,
        certificate=membership.certificate,
        info={
            "branch": "decomposition", "psd": False, "restarts_swept": swept,
            "membership_iterations": membership.info["iterations"],
        },
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
