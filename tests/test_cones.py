"""Cone verdicts: PSD/PPT, product see-saw, sum membership, extremality probe."""

import numpy as np
import pytest

from influencefree.choimaps import (
    choi_from_conjugation,
    state_eval,
    swap_operator,
    unnormalized_q,
)
from influencefree.cones import (
    FEAS_TOL,
    SeesawResult,
    decomposable_sum_membership,
    extremality_probe,
    is_popt,
    is_ppt,
    is_psd,
    popt_minimize,
    witness_holds,
)
from influencefree.linalg import frobenius, partial_transpose
from influencefree.sampling import random_hermitian, random_psd, random_rank


def boundary_member() -> np.ndarray:
    """PSD + (PSD)^Gamma rank-one pieces; neither PSD nor PPT itself."""
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    phi = np.zeros(4)
    phi[1] = phi[2] = 1 / np.sqrt(2)
    return np.outer(psi, psi) + partial_transpose(np.outer(phi, phi), (2, 2), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda w: is_psd(w),
        lambda w: is_ppt(w, (2, 2)),
        lambda w: is_popt(w, (2, 2), seed=1),
        lambda w: decomposable_sum_membership(w, (2, 2)),
        lambda w: extremality_probe(w),
        lambda w: popt_minimize(w, (2, 2), seed=1),
    ],
    ids=["is_psd", "is_ppt", "is_popt", "membership", "extremality", "popt_minimize"],
)
def test_entry_points_reject_non_finite_operators(entry, bad):
    w = np.diag([bad, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        entry(w)


def test_is_psd_verdicts():
    member = is_psd(np.diag([1.0, 2.0]))
    assert bool(member) and member.status == "member"
    assert member.min_value == pytest.approx(1.0)
    refuted = is_psd(np.diag([1.0, -0.5]))
    assert not bool(refuted) and refuted.status == "refuted"
    assert refuted.min_value == pytest.approx(-0.5)
    v = refuted.witness
    assert np.real(v.conj() @ np.diag([1.0, -0.5]) @ v) == pytest.approx(-0.5)


def test_is_ppt_verdicts():
    # Q^Gamma is the swap, eigenvalue -1
    refuted = is_ppt(unnormalized_q(2), (2, 2))
    assert refuted.status == "refuted"
    assert refuted.min_value == pytest.approx(-1.0)
    product = np.kron(np.diag([1.0, 2.0]), np.diag([0.5, 3.0]))
    assert bool(is_ppt(product, (2, 2)))


def test_popt_minimize_deterministic_witness():
    rng = np.random.default_rng(42)
    w = random_hermitian(rng, 4)
    r1 = popt_minimize(w, (2, 2), seed=5, restarts=8)
    r2 = popt_minimize(w, (2, 2), seed=5, restarts=8)
    assert r1.min_value == r2.min_value
    assert np.array_equal(r1.witness_x, r2.witness_x)
    assert np.array_equal(r1.witness_y, r2.witness_y)
    assert 1 <= r1.best_restart <= 8
    got = state_eval(w, (2, 2), r1.witness_x, r1.witness_y)
    assert got == pytest.approx(r1.min_value, abs=1e-12)
    with pytest.raises(ValueError):
        popt_minimize(w, (2, 3), seed=5)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_popt_minimize_refuses_an_empty_iteration_budget(max_iter):
    w = random_hermitian(np.random.default_rng(42), 4)
    with pytest.raises(ValueError, match="at least one iteration"):
        popt_minimize(w, (2, 2), seed=5, max_iter=max_iter)


def serial_seesaw(w, dims, seed, restarts, max_iter):
    """The see-saw one restart at a time: the reference for popt_minimize."""
    da, db = dims
    w4 = np.asarray(w, dtype=complex).reshape(da, db, da, db)

    def min_vec(h):
        vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
        return float(vals[0]), vecs[:, 0]

    rng = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        x = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        x /= np.linalg.norm(x)
        value, iterations, converged = np.inf, 0, False
        for _ in range(max_iter):
            iterations += 1
            _, y = min_vec(np.einsum("ijkl,i,k->jl", w4, x.conj(), x))
            new_value, x = min_vec(np.einsum("ijkl,j,l->ik", w4, y.conj(), y))
            assert new_value <= value + 1e-12
            if value - new_value <= 1e-14 * max(1.0, abs(new_value)):
                value, converged = new_value, True
                break
            value = new_value
        if best is None or value < best.min_value:
            best = SeesawResult(value, x, y, r + 1, iterations, converged)
    return best


@pytest.mark.parametrize("max_iter", [3, 200])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_batched_seesaw_matches_serial_reference(dims, max_iter):
    rng = np.random.default_rng(sum(dims) + max_iter)
    d = dims[0] * dims[1]
    # -swap reaches -1 from many restarts, so near-ties test the tie-break
    operators = [random_hermitian(rng, d, trace=1.0) for _ in range(6)]
    operators.append(-swap_operator(dims[0]) if dims[0] == dims[1] else random_psd(rng, d))
    for k, w in enumerate(operators):
        got = popt_minimize(w, dims, seed=k, restarts=16, max_iter=max_iter)
        want = serial_seesaw(w, dims, seed=k, restarts=16, max_iter=max_iter)
        assert got.min_value == want.min_value
        assert np.array_equal(got.witness_x, want.witness_x)
        assert np.array_equal(got.witness_y, want.witness_y)
        assert (got.best_restart, got.iterations, got.converged) == (
            want.best_restart, want.iterations, want.converged
        )


@pytest.mark.parametrize("restarts", [0, -1])
def test_popt_minimize_needs_a_restart(restarts):
    # without a restart there is no witness: is_popt used to fail on None
    with pytest.raises(ValueError, match="restart"):
        popt_minimize(-swap_operator(2), (2, 2), seed=1, restarts=restarts)
    with pytest.raises(ValueError, match="restart"):
        is_popt(-swap_operator(2), (2, 2), seed=1, restarts=restarts)


def test_popt_minimize_swap_floor():
    r = popt_minimize(swap_operator(2), (2, 2), seed=3, restarts=16)
    assert abs(r.min_value) <= 1e-9


def test_is_popt_psd_branch():
    v = is_popt(np.eye(4), (2, 2), seed=1)
    assert bool(v) and v.status == "certified"
    assert v.info["branch"] == "psd" and v.info["psd"] is True


def test_is_popt_ppt_branch():
    v = is_popt(swap_operator(2), (2, 2), seed=1)
    assert v.status == "certified"
    assert v.info["branch"] == "ppt" and v.info["psd"] is False


def test_is_popt_refuted_with_witness():
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    v = is_popt(w, (2, 2), seed=5)
    assert not bool(v) and v.status == "refuted"
    assert v.min_value == pytest.approx(-1.0)
    x, y = v.witness
    assert state_eval(w, (2, 2), x, y) == pytest.approx(v.min_value, abs=1e-12)
    assert v.info["best_restart"] >= 1


def test_is_popt_decomposition_branch():
    w = boundary_member()
    assert np.linalg.eigvalsh(w).min() == pytest.approx(-0.5)
    assert np.linalg.eigvalsh(partial_transpose(w, (2, 2), 1)).min() == pytest.approx(-0.5)
    v = is_popt(w, (2, 2), seed=11)
    assert v.status == "certified"
    assert v.info["branch"] == "decomposition"
    cert = v.certificate
    assert frobenius(w - cert.p - cert.q) <= 1e-6


def test_is_popt_likely_when_membership_is_starved():
    # the starting iterate alone does not split the boundary member, so the
    # verdict degrades to likely with the membership status recorded
    w = boundary_member()
    v = is_popt(w, (2, 2), seed=11, membership_max_iter=1)
    assert v.status == "likely"
    assert v.min_value >= -1e-9
    assert v.info["membership"] == "inconclusive"


def test_membership_psd_is_instant():
    rng = np.random.default_rng(77)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = g @ g.conj().T
    v = decomposable_sum_membership(w, (2, 2))
    assert v.status == "member"
    assert v.info["iterations"] == 1
    assert v.certificate.residual <= 1e-7


def test_membership_refutes_at_an_exact_fixed_point():
    # diag(1,1,1,-1) sits at Frobenius distance exactly 1 from the cone sum:
    # <e1 e1|W|e1 e1> = -1 while every cone element is >= 0 there, so no
    # cone-feasible pair comes closer than 1
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    v = decomposable_sum_membership(w, (2, 2))
    assert v.status == "refuted"
    assert v.residual >= 1.0 - 1e-9
    _assert_dual_witness(v.witness, w, (2, 2))
    _assert_cone_feasible(v.certificate, w)


def test_membership_inconclusive_carries_cone_feasible_pair():
    # one iteration short of the refutation the budget ends inconclusive;
    # the pair must still sit in the cones, no closer than distance 1
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    budget = decomposable_sum_membership(w, (2, 2)).info["iterations"] - 1
    v = decomposable_sum_membership(w, (2, 2), max_iter=budget)
    assert v.status == "inconclusive"
    assert v.info["iterations"] == budget
    assert v.witness is None
    assert v.residual >= 1.0 - 1e-9
    _assert_cone_feasible(v.certificate, w)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 0.3, 1.0, 7.0, 1e4])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_membership_refutation_is_scale_invariant(scale, dims):
    # a PSD part of trace 1/2 minus a product projector |v><v|: <v|W|v> < 0,
    # so W is not decomposable at any positive scale
    rng = np.random.default_rng(sum(dims))
    x, y = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in dims)
    v = np.kron(x / np.linalg.norm(x), y / np.linalg.norm(y))
    w = random_psd(rng, len(v), trace=0.5) - np.outer(v, v.conj())
    verdict = decomposable_sum_membership(scale * w, dims)
    assert verdict.status == "refuted"
    _assert_dual_witness(verdict.witness, scale * w, dims)
    _assert_cone_feasible(verdict.certificate, scale * w, dims)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.3, 1.0, 7.0, 1e4])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_membership_on_the_boundary_is_scale_invariant(scale, dims):
    # P + Q^Gamma with P and Q^Gamma rank one and both vanishing on one
    # product vector: decomposable, but on the boundary of the cone sum
    rng = np.random.default_rng(10 + sum(dims))
    x, y = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in dims)
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)

    def orthogonal_to(u):
        g = rng.standard_normal(len(u)) + 1j * rng.standard_normal(len(u))
        g -= np.vdot(u, g) * u
        return g / np.linalg.norm(g)

    phi, chi = orthogonal_to(np.kron(x, y)), orthogonal_to(np.kron(x, y.conj()))
    w = np.outer(phi, phi.conj()) + partial_transpose(np.outer(chi, chi.conj()), dims, 1)
    assert abs(np.vdot(np.kron(x, y), w @ np.kron(x, y))) <= 1e-12
    verdict = decomposable_sum_membership(scale * w, dims)
    assert verdict.status == "member"
    assert verdict.residual <= FEAS_TOL * frobenius(scale * w)
    _assert_cone_feasible(verdict.certificate, scale * w, dims)


def _assert_dual_witness(z, w, dims):
    """Z and Z^Gamma are PSD and Tr(ZW) < 0: Z separates W from PSD + PSD^Gamma."""
    assert np.array_equal(z, z.conj().T)
    assert np.linalg.eigvalsh(z).min() >= 0.0
    assert np.linalg.eigvalsh(partial_transpose(z, dims, 1)).min() >= 0.0
    assert np.trace(z @ w).real < 0.0


def test_witness_holds_accepts_a_separating_z_and_rejects_each_failure():
    # |11><11| is PSD with a PSD partial transpose, and <11|W|11> = -1
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    z = np.diag([0.0, 0.0, 0.0, 1.0])
    assert witness_holds(w, (2, 2), z)
    _assert_dual_witness(z, w, (2, 2))
    # Tr(ZW) >= 0: the identity is in both cones but Tr(Z·1) = 1, and 0 is not < 0
    assert not witness_holds(np.eye(4), (2, 2), z)
    assert not witness_holds(np.zeros((4, 4)), (2, 2), z)
    # each of the two spectral conditions alone: Tr(-Z) < 0 for both of these
    s, q = swap_operator(2), unnormalized_q(2)
    assert np.linalg.eigvalsh(partial_transpose(s, (2, 2), 1)).min() >= -1e-12
    assert not witness_holds(-np.eye(4), (2, 2), s)  # Z = S has eigenvalue -1
    assert np.linalg.eigvalsh(q).min() >= -1e-12
    assert not witness_holds(-np.eye(4), (2, 2), q)  # Z^Gamma = S has eigenvalue -1


def _assert_cone_feasible(cert, w, dims=(2, 2)):
    assert np.linalg.eigvalsh((cert.p + cert.p.conj().T) / 2).min() >= -1e-10
    q_gamma = partial_transpose(cert.q, dims, 1)
    assert np.linalg.eigvalsh((q_gamma + q_gamma.conj().T) / 2).min() >= -1e-10
    assert frobenius(w - cert.p - cert.q) == pytest.approx(cert.residual, abs=1e-12)


def test_extremality_rank_one_is_decomposable():
    a = 1.5 * np.outer([1.0, 0.0], [1.0, 0.0])
    v = extremality_probe(a)
    assert v.status == "decomposable_nontrivially"
    h = v.certificate
    c_a = choi_from_conjugation(a).choi
    assert np.trace(h).real == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.eigvalsh(partial_transpose(h, (2, 2), 1)).min() >= -2e-7
    assert np.linalg.eigvalsh((c_a - h + (c_a - h).conj().T) / 2).min() >= -2e-7


def test_extremality_identity_conjugation_is_rigid():
    v = extremality_probe(np.eye(2))
    assert v.status == "rigid"
    assert v.info == {"iterations": 0, "min_eig": pytest.approx(-1.0)}
    # sigma1 * sigma2 / ||A||_F^2 for the identity
    assert v.residual == pytest.approx(0.5)
    with pytest.raises(ValueError):
        extremality_probe(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("scale", [1e-3, 0.5, 1.0, 1e3])
def test_extremality_verdict_is_scale_invariant(n, rank, scale):
    a = scale * random_rank(np.random.default_rng(31 + n), n, rank)
    v = extremality_probe(a)
    c_a = choi_from_conjugation(a).choi
    slack = 1e-9 * np.trace(c_a).real
    if rank == 1:
        assert v.status == "decomposable_nontrivially"
        h = v.certificate
        assert np.linalg.eigvalsh(partial_transpose(h, (n, n), 1)).min() >= -slack
        assert np.linalg.eigvalsh(c_a - h).min() >= -slack
        assert frobenius(h) > slack and frobenius(c_a - h) > slack
    else:
        assert v.status == "rigid"
        u = v.witness
        value = np.real(u.conj() @ partial_transpose(c_a, (n, n), 1) @ u)
        sv = np.linalg.svd(a, compute_uv=False)
        assert value == pytest.approx(-sv[0] * sv[1], rel=1e-9)
        assert v.residual == pytest.approx(sv[0] * sv[1] / np.sum(sv**2), rel=1e-9)


def test_extremality_zero_map_is_rigid():
    v = extremality_probe(np.zeros((2, 2)))
    assert v.status == "rigid"
    assert v.witness is None and v.certificate is None
