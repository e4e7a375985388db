"""Four-party teleportation algebra on a fixed (A1, A2, B2, B1) layout.

Alice holds the first two factors, Bob the last two.  A bipartite operator
``w`` lives on the outer pair (A1, B1); the inner pair (A2, B2) carries a
maximally entangled projector.  Projecting Alice's pair onto an entangled
vector transfers ``w`` onto Bob's pair, up to a constant that equals the
outcome probability of that projection.  One routine builds both sides of
that identity independently for every pivot, and one ``PivotReport`` holds
them and computes the gap when read, rather than assuming it.

The pivots never form the n^4 x n^4 embedding: projecting one pair onto a
vector leaves the other pair's operator as a fixed chain of three matrix
products (``_project``): the vector's coefficient matrix applied to w from
both sides, O(n^5) each, then one n^2 x n^2 product with the inner
operator, O(n^6).  ``embed_with_entangled_pair`` builds the dense embedding
and is kept as the independent definition the tests and the acceptance
criteria compare against.  The Weyl family X^a Z^b is built once, as one
(n^2, n, n) array, and the witness demo's n^2 + 2 effects as one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .choimaps import swap_operator, unnormalized_q
from .linalg import _admit, _hermitian_part, _unitary, frobenius, kron, permute_systems

if TYPE_CHECKING:
    from .cones import ConeVerdict


class PivotReport(NamedTuple):
    """Both sides of a pivot identity: what the projection leaves, and what it should.

    ``alpha`` is the trace of the projected embedding, i.e. the probability
    of the projection outcome.  ``bob_operator`` is the operator the
    projection leaves on the other pair, and ``expected`` is alpha times the
    transferred w, so the identity asserts that the two are equal.
    ``frobenius_gap`` is their Frobenius distance and ``gap`` that distance
    relative to max(1, norm of expected); both are computed when read.
    """

    alpha: float
    bob_operator: np.ndarray
    expected: np.ndarray

    @property
    def frobenius_gap(self) -> float:
        return frobenius(self.bob_operator - self.expected)

    @property
    def gap(self) -> float:
        """Relative to max(1, ‖expected‖_F), a floor kept as α·w is quadratic in w (α = Tr M ∝ Tr w)."""
        return self.frobenius_gap / max(1.0, frobenius(self.expected))


def bell_projector(n: int) -> np.ndarray:
    """Projector onto the uniform maximally entangled vector on n x n."""
    return unnormalized_q(n) / n


def twisted_bell_projector(n: int, v: np.ndarray) -> np.ndarray:
    """Projector onto the entangled vector whose coefficient matrix is conj(v)/sqrt(n).

    The conjugate is chosen so that projecting Alice's pair onto this vector
    leaves Bob's pair carrying (v^T ox 1) w (conj(v) ox 1); see pivot_general.
    With v = identity this reproduces bell_projector exactly.
    """
    return _twisted_bell_projectors(_unitary(v, n)[None])[0]


def _twisted_bell_projectors(vs: np.ndarray) -> np.ndarray:
    """twisted_bell_projector of each unitary in the (k, n, n) stack vs, taken as given."""
    vecs = np.conj(vs).reshape(len(vs), -1)
    return vecs[:, :, None] * vecs.conj()[:, None, :] / vs.shape[-1]


def antisymmetric_projector(n: int) -> np.ndarray:
    return (np.eye(n * n) - swap_operator(n)) / 2.0


def symmetric_projector(n: int) -> np.ndarray:
    return (np.eye(n * n) + swap_operator(n)) / 2.0


def embed_with_entangled_pair(w, n: int) -> np.ndarray:
    """Place w on the outer pair (A1, B1) and a Bell projector on (A2, B2).

    Built as kron(w, T) followed by an explicit factor permutation into the
    (A1, A2, B2, B1) order; no index arithmetic on the formula level.
    """
    m = _hermitian_part(_admit(w, (n, n)))
    return permute_systems(kron(m, bell_projector(n)), (n, n, n, n), (0, 2, 3, 1))


def sandwich_lemma_check(n: int, x: int, y: int, u: int, v: int) -> np.ndarray:
    """Compute Q (|x><y| ox |u><v|) Q by direct matrix multiplication.

    Q is the unnormalized entangled projector on n x n.  The product equals
    Q itself when x == u and y == v, and vanishes otherwise; callers compare
    against that case split.
    """
    for idx in (x, y, u, v):
        if not 0 <= idx < n:
            raise ValueError(f"basis index {idx} out of range for dimension {n}")
    q = unnormalized_q(n)
    a = np.zeros((n * n, n * n), dtype=complex)
    a[x * n + u, y * n + v] = 1.0
    return q @ a @ q


def _weyl_stack(n: int, a=None, b=None) -> np.ndarray:
    """X^a Z^b for index arrays a, b in [0, n) as one (len(a), n, n) array; all n^2 by default, at row a·n + b.

    X|j> = |j+1 mod n> and Z|j> = ω^j|j> with ω = exp(2πi/n), so X^a Z^b sends |j> to
    ω^(jb)|j+a mod n>: one phase per column, at the row one index array gives.
    """
    a, b = np.divmod(np.arange(n * n), n) if a is None else (np.asarray(a), np.asarray(b))
    j = np.arange(n)
    v = np.zeros((len(a), n, n), dtype=complex)
    v[np.arange(len(a))[:, None], (j + a[:, None]) % n, j] = np.exp(2j * np.pi * (j * b[:, None] % n) / n)
    return v


def weyl_operator(n: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b, with a and b reduced mod n as Python ints, so that any integer is accepted."""
    return _weyl_stack(n, [int(a) % n], [int(b) % n])[0]


def weyl_basis(n: int) -> list[np.ndarray]:
    """All n^2 operators X^a Z^b in lexicographic (a, b) order.

    They are pairwise orthogonal in the Hilbert-Schmidt inner product, with
    Tr(V^dag V') = n on the diagonal.
    """
    return list(_weyl_stack(n))


def _project(w: np.ndarray, inner: np.ndarray, n: int, phi: np.ndarray, side: str) -> np.ndarray:
    """Operator left on the other pair when one pair of embed(w ox inner) is projected onto |phi>.

    With G the four-party operator carrying w on (A1, B1) and ``inner`` on
    (A2, B2), and P = |phi><phi| on Alice's pair (side "alice") or on Bob's
    pair (side "bob"), P G P = P ox M with M = <phi|G|phi>.  M is returned as
    an n^2 x n^2 matrix on (B2, B1) or (A1, A2) respectively, computed from
    w and ``inner`` without forming G.  ``phi`` is the n x n coefficient
    matrix of a unit vector on the projected pair, or a stack of them with
    leading axes, in which case one M per vector is returned.

    On Alice's side M is a chain of three matrix products: phi^dag @ w over
    A1, then phi over A1's column index (O(n^5) each), then one
    n^2 x n^2 product with ``inner`` permuted to rows (B2, B2') and columns
    (A2, A2'), O(n^6).  Bob's side is the same chain with the roles of w and
    ``inner`` exchanged and each conjugated by the factor swap: his pair's
    first factor B2 then sits where A1 did, so phi enters unchanged.
    """
    w4, inner4 = w.reshape(n, n, n, n), inner.reshape(n, n, n, n)
    if side == "bob":
        w4, inner4 = inner4.transpose(1, 0, 3, 2), w4.transpose(1, 0, 3, 2)
    # every product comes out in the one result dtype, so the last two can write
    # into buffers of the first two
    phis = phi.reshape(-1, n, n).astype(np.result_type(w, inner, phi), copy=False)
    s = phis.shape[0]
    # index letters: i A1, j A2, k B2, l B1; capitals are the column indices
    # x[s, j, I, (l, L)] = sum_i conj(phi[s, i, j]) w[i, l, I, L], one product for the stack
    w_rows = w4.transpose(0, 2, 1, 3).reshape(n, n**3)
    x = phis.conj().transpose(0, 2, 1).reshape(s * n, n) @ w_rows
    # y[s, j, J, (l, L)] = sum_I phi[s, I, J] x[s, j, I, l, L]
    y = phis.transpose(0, 2, 1)[:, None] @ x.reshape(s, n, n, n * n)
    # m[s, (k, K), (l, L)] = sum_{j, J} inner[j, k, J, K] y[s, j, J, l, L].  It is
    # written over x, and M over y, so a call allocates two stack-sized arrays,
    # not five: for n^2 vectors at n = 6 the page faults on fresh arrays cost
    # about as much as the three products.
    inner_rows = inner4.transpose(1, 3, 0, 2).reshape(n * n, n * n)
    m = np.matmul(inner_rows, y.reshape(s, n * n, n * n), out=x.reshape(s, n * n, n * n))
    np.copyto(y.reshape(s, n, n, n, n), m.reshape(s, n, n, n, n).transpose(0, 1, 3, 2, 4))
    return y.reshape(phi.shape[:-2] + (n * n, n * n))


def _bell_vector(n: int) -> np.ndarray:
    """Coefficient matrix of the uniform maximally entangled unit vector."""
    return np.eye(n) / np.sqrt(n)


def _pivot(w, n: int, side: str = "alice", v=None) -> PivotReport:
    """Both sides of the pivot that projects `side`'s pair onto the Bell vector, or,
    given v, onto the entangled vector whose coefficient matrix is conj(v)/sqrt(n)."""
    m = _hermitian_part(_admit(w, (n, n)))
    v = None if v is None else _unitary(v, n)
    phi = _bell_vector(n) if v is None else np.conj(v) / np.sqrt(n)
    left = _project(m, bell_projector(n), n, phi, side)
    alpha = float(np.real(np.trace(left)))
    if v is None:
        # T ox M against alpha * (T ox w): the gap is ||T||_F ||M - alpha w||_F with ||T||_F = 1
        return PivotReport(alpha, left, alpha * m)
    # (v^T ox 1) w (conj(v) ox 1): v^T on the rows of the first factor, then
    # conj(v) on its columns, one n x n block (l, L) at a time
    twisted = (v.T @ m.reshape(n, n**3)).reshape(n * n, n, n)
    return PivotReport(alpha, left, alpha * (v.conj().T @ twisted).reshape(n * n, n * n))


def pivot_alice(w, n: int) -> PivotReport:
    """Project Alice's pair onto the Bell vector and compare with alpha * (T ox w).

    The projected embedding is T ox M, with M the operator left on Bob's
    pair; the right side places T on Alice's pair and w on Bob's pair, scaled
    by alpha.  alpha itself is recomputed as the trace of the projected
    embedding, Tr M.
    """
    return _pivot(w, n, "alice")


def pivot_bob(w, n: int) -> PivotReport:
    """Mirror of pivot_alice with the projection on Bob's pair.

    Here the comparison operator is alpha * (w ox T): w lands on Alice's
    pair, the Bell projector stays on Bob's, and the report's bob_operator
    is the operator left on Alice's pair.
    """
    return _pivot(w, n, "bob")


def pivot_general(w, n: int, v: np.ndarray) -> PivotReport:
    """Project Alice's pair onto the v-twisted Bell vector and extract Bob's operator.

    Bob's operator is what the projection leaves on his pair, equal to the
    projected embedding traced over Alice's pair.  The comparison operator
    is alpha * (v^T ox 1) w (conj(v) ox 1), with the conjugation acting on
    the factor of w that was teleported; the report's ``gap`` is the
    Frobenius distance between the two, relative to max(1, norm of expected).
    With v = identity the projector, alpha, and sandwich agree exactly with
    pivot_alice.
    """
    return _pivot(w, n, "alice", v)


def corollary_check(w, b, n: int) -> tuple[float, float]:
    """Evaluate the product effect T ox b against the embedding of a trace-one w.

    Returns (lhs, rhs) with lhs = Tr[(T ox b) embed(w)] and
    rhs = alpha * Tr(w b); the two agree whenever Tr w = 1, which is enforced.
    Positivity of lhs for every positive semidefinite b would force w itself
    to be positive semidefinite.
    """
    m = _hermitian_part(_admit(w, (n, n)))
    trace_w = float(np.real(np.trace(m)))
    if abs(trace_w - 1.0) > 1e-10:
        raise ValueError(f"operator trace is {trace_w}, expected 1 within 1e-10")
    bm = _hermitian_part(_admit(b, (n, n)))
    vals = np.linalg.eigvalsh(bm)
    if vals[0] < -1e-9 * frobenius(bm):
        raise ValueError("effect operator is not positive semidefinite")
    bob = _project(m, bell_projector(n), n, _bell_vector(n), "alice")
    # Tr(X b) = <b, X>_HS since b is Hermitian
    lhs = float(np.vdot(bm, bob).real)
    alpha = float(np.real(np.trace(bob)))
    rhs = alpha * float(np.vdot(bm, m).real)
    return lhs, rhs


@dataclass(frozen=True)
class DesideratumReport:
    """Outcome of the product-test negativity demonstration.

    ``negative_value`` is the value the product effect (alice_effect on
    Alice's pair, bob_effect on Bob's pair) assigns to the embedding of w;
    it is strictly negative although w passes the product-vector positivity
    check and the inner pair carries a bona fide state.  The two ``*_min``
    fields record that the negativity disappears when either ingredient is
    replaced by an unentangled counterpart.
    """

    n: int
    alpha: float
    negative_value: float
    alice_effect: np.ndarray
    bob_effect: np.ndarray
    popt_verdict: ConeVerdict
    psd_replacement_min: float
    product_replacement_min: float


def desideratum_violation_demo(n: int = 2, *, seed: int = 2026) -> DesideratumReport:
    """Exhibit a product test with negative value on an otherwise admissible pair.

    w = S/n (S the swap) passes every product-vector positivity check, which
    is certified through its partial transpose; the inner pair carries the
    Bell state.  Yet the product effect (Bell projector on Alice's pair,
    antisymmetric projector on Bob's pair) evaluates to a strictly negative
    number on the embedding.  Replacing w by a positive semidefinite
    operator, or the inner Bell state by a product state, removes every
    negative value over the swept effect family.
    """
    from .cones import is_popt

    w = swap_operator(n) / n
    verdict = is_popt(w, (n, n), seed=seed)
    report = pivot_alice(w, n)
    # Tr[(T ox A) embed(w)] = Tr(M A), as corollary_check computes it on the same projection
    negative_value = float(np.vdot(antisymmetric_projector(n), report.bob_operator).real)

    weyl = _weyl_stack(n)
    bob_effects = np.concatenate(
        [np.stack([antisymmetric_projector(n), symmetric_projector(n)]), _twisted_bell_projectors(weyl)]
    )
    weyl_vectors = np.conj(weyl) / np.sqrt(n)
    # column b is effect b transposed and flattened, so a row M_v times it is Tr(M_v b)
    effect_columns = bob_effects.transpose(0, 2, 1).reshape(len(bob_effects), -1).T

    def product_test_min(w_outer: np.ndarray, inner: np.ndarray) -> float:
        # Tr[(T_v ox b) embed(w_outer ox inner)] = Tr(M_v b) for every Weyl twist v and
        # effect b: one (n², n⁴) @ (n⁴, n² + 2) product
        bob = _project(w_outer, inner, n, weyl_vectors, "alice")
        return float((bob.reshape(len(bob), -1) @ effect_columns).real.min())

    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    random_psd = gauss @ gauss.conj().T
    random_psd /= np.real(np.trace(random_psd))
    pure = np.zeros((n * n, n * n), dtype=complex)
    pure[0, 0] = 1.0
    maximally_mixed = np.eye(n * n) / (n * n)
    bell = bell_projector(n)
    psd_min = min(product_test_min(r, bell) for r in (maximally_mixed, pure, random_psd))
    product_min = min(product_test_min(w, inner) for inner in (maximally_mixed, pure))

    return DesideratumReport(
        n=n,
        alpha=report.alpha,
        negative_value=negative_value,
        alice_effect=bell_projector(n),
        bob_effect=antisymmetric_projector(n),
        popt_verdict=verdict,
        psd_replacement_min=psd_min,
        product_replacement_min=product_min,
    )
