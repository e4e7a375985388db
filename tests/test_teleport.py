"""Four-party embedding, pivot identities, corollary, and the negativity demo."""

import tracemalloc

import numpy as np
import pytest

from influencefree.choimaps import identity_map, swap_operator, transpose_in_basis, unnormalized_q
from influencefree.linalg import frobenius, kron, partial_trace, permute_systems
from influencefree.sampling import random_hermitian, random_psd
from influencefree.teleport import (
    antisymmetric_projector,
    bell_projector,
    corollary_check,
    desideratum_violation_demo,
    _project,
    _twisted_bell_projectors,
    _weyl_stack,
    embed_with_entangled_pair,
    pivot_alice,
    pivot_bob,
    pivot_general,
    sandwich_lemma_check,
    symmetric_projector,
    twisted_bell_projector,
    weyl_basis,
    weyl_operator,
)


def test_bell_and_twisted_projectors():
    t = bell_projector(2)
    assert np.trace(t) == pytest.approx(1.0)
    assert np.allclose(t @ t, t)
    # the identity twist must reproduce the Bell projector bit for bit
    assert np.array_equal(twisted_bell_projector(2, np.eye(2)), bell_projector(2))
    with pytest.raises(ValueError):
        twisted_bell_projector(2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        twisted_bell_projector(2, np.eye(3))


def test_projector_split():
    n = 2
    assert np.allclose(
        antisymmetric_projector(n) + symmetric_projector(n), np.eye(n * n)
    )
    assert np.allclose(
        symmetric_projector(n) - antisymmetric_projector(n), swap_operator(n)
    )


def test_embed_places_factors_on_outer_and_inner_pairs():
    rng = np.random.default_rng(31)
    w = random_hermitian(rng, 4)
    g = embed_with_entangled_pair(w, 2)
    t = bell_projector(2)
    g8 = g.reshape((2,) * 8)
    w4 = w.reshape(2, 2, 2, 2)
    t4 = t.reshape(2, 2, 2, 2)
    for idx in np.ndindex((2,) * 8):
        i, j, k, l, ip, jp, kp, lp = idx
        expected = w4[i, l, ip, lp] * t4[j, k, jp, kp]
        assert g8[idx] == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValueError):
        embed_with_entangled_pair(np.eye(3), 2)


def test_sandwich_lemma_case_split():
    n = 2
    q = unnormalized_q(n)
    for x in range(n):
        for y in range(n):
            for u in range(n):
                for v in range(n):
                    got = sandwich_lemma_check(n, x, y, u, v)
                    expected = q if (x == u and y == v) else np.zeros_like(q)
                    assert frobenius(got - expected) <= 1e-12
    with pytest.raises(ValueError):
        sandwich_lemma_check(2, 2, 0, 0, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weyl_operator_is_the_matrix_power_product(n):
    shift = np.roll(np.eye(n), 1, axis=0)
    phase = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    for a in range(-n, 2 * n):
        for b in range(-n, 2 * n):
            want = np.linalg.matrix_power(shift, a % n) @ np.linalg.matrix_power(phase, b % n)
            assert np.abs(weyl_operator(n, a, b) - want).max() <= 1e-14


def test_weyl_operators():
    assert np.allclose(weyl_operator(2, 1, 0), np.array([[0, 1], [1, 0]]))
    assert np.allclose(weyl_operator(2, 0, 1), np.diag([1.0, -1.0]))
    basis = weyl_basis(3)
    assert len(basis) == 9
    for a, va in enumerate(basis):
        assert np.allclose(va @ va.conj().T, np.eye(3))
        for b, vb in enumerate(basis):
            inner = np.trace(va.conj().T @ vb)
            assert inner == pytest.approx(3.0 if a == b else 0.0, abs=1e-10)


@pytest.mark.parametrize("n", range(1, 8))
def test_weyl_stack_is_the_per_entry_formula(n):
    # the phase in numpy arithmetic, as the builder computes it, so that bytes can be compared
    want = np.zeros((n * n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for j in range(n):
                want[a * n + b, (j + a) % n, j] = np.exp(2j * np.pi * np.int64(j * b % n) / n)
    stack = _weyl_stack(n)
    assert stack.dtype == want.dtype and stack.tobytes() == want.tobytes()
    assert b"".join(v.tobytes() for v in weyl_basis(n)) == want.tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_weyl_stack_rows_are_unitary(n):
    # the demo does not admit its own Weyl operators through _unitary, so this is where they are checked
    for v in _weyl_stack(n):
        assert frobenius(v.conj().T @ v - np.eye(n)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 5])
def test_weyl_operator_reduces_any_integer_index(n):
    k = 10**25
    for a in range(n):
        for b in range(n):
            want = weyl_operator(n, a, b).tobytes()
            assert weyl_operator(n, a + k * n, b - k * n).tobytes() == want
            assert weyl_operator(n, a - k * n, b + k * n).tobytes() == want
    assert np.array_equal(weyl_operator(2, 10**30, 1), weyl_operator(2, 0, 1))


def test_weyl_operator_builds_only_its_own_row():
    # all 48² operators of size 48 x 48 would take 85 MB
    tracemalloc.start()
    try:
        v = weyl_operator(48, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert np.array_equal(v, np.roll(np.eye(48), 1, axis=0) @ np.diag(np.exp(2j * np.pi * np.arange(48) / 48)))


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_twisted_projectors_are_the_single_ones(n):
    # the demo's n^2 effects, from one product over the Weyl stack
    got = _twisted_bell_projectors(_weyl_stack(n))
    want = np.stack([twisted_bell_projector(n, v) for v in weyl_basis(n)])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# (alpha, negative_value, psd_replacement_min, product_replacement_min), pinned to
# the last bit as the per-operator effect builder gave them
DEMO_VALUES = {
    2: (0.24999999999999994, -0.12499999999999997, 0.0, 0.0),
    3: (0.11111111111111113, -0.11111111111111113, 0.0, 0.0),
    4: (0.0625, -0.09375, 0.0, 0.0),
}


@pytest.mark.parametrize("seed", [7, 2026])
@pytest.mark.parametrize("n", sorted(DEMO_VALUES))
def test_desideratum_demo_values_are_as_recorded(n, seed):
    r = desideratum_violation_demo(n, seed=seed)
    got = (r.alpha, r.negative_value, r.psd_replacement_min, r.product_replacement_min)
    assert got == DEMO_VALUES[n]


@pytest.mark.parametrize("n", [2, 3])
def test_pivot_alpha_for_trace_one_operators(n):
    rng = np.random.default_rng(60 + n)
    w = random_hermitian(rng, n * n, trace=1.0)
    pa = pivot_alice(w, n)
    pb = pivot_bob(w, n)
    assert pa.alpha == pytest.approx(1.0 / n**2, abs=1e-12)
    assert pb.alpha == pytest.approx(1.0 / n**2, abs=1e-12)
    scale = max(1.0, frobenius(w))
    assert pa.frobenius_gap <= 1e-10 * scale
    assert pb.frobenius_gap <= 1e-10 * scale


def test_pivot_alpha_scales_with_trace():
    w = np.diag([2.0, 0.0, 0.0, 0.0])
    assert pivot_alice(w, 2).alpha == pytest.approx(0.5, abs=1e-12)


def test_general_pivot_identity_twist_matches_pivot_alice():
    rng = np.random.default_rng(62)
    w = random_hermitian(rng, 4, trace=1.0)
    r = pivot_general(w, 2, np.eye(2))
    p = pivot_alice(w, 2)
    assert type(r) is type(p)
    # the identity twist is exact, so the two reports agree bit for bit
    assert r.alpha == p.alpha
    assert r.frobenius_gap == p.frobenius_gap
    assert np.array_equal(r.bob_operator, p.bob_operator)
    assert np.array_equal(r.expected, p.expected)
    assert r.gap <= 1e-12


def test_general_pivot_discriminates_the_twist_convention():
    rng = np.random.default_rng(63)
    w = random_hermitian(rng, 9, trace=1.0)
    v = weyl_operator(3, 1, 0)  # cyclic shift; its transpose is a different unitary
    r = pivot_general(w, 3, v)
    assert r.gap <= 1e-9
    right = r.alpha * (kron(v.T, np.eye(3)) @ w @ kron(v.conj(), np.eye(3)))
    assert frobenius(r.bob_operator - right) <= 1e-9
    wrong = r.alpha * (kron(v, np.eye(3)) @ w @ kron(v.conj().T, np.eye(3)))
    assert frobenius(r.bob_operator - wrong) > 1e-3


def test_general_pivot_preserves_the_far_marginal():
    # the projection acts on Alice's pair only, so after normalizing by the
    # outcome probability the reduction onto the untouched factor is the
    # second marginal of w itself
    rng = np.random.default_rng(64)
    w = random_hermitian(rng, 9, trace=1.0)
    v = weyl_operator(3, 1, 2)
    r = pivot_general(w, 3, v)
    far = partial_trace(r.bob_operator, (3, 3), 0) / r.alpha
    assert frobenius(far - partial_trace(w, (3, 3), 0)) <= 1e-9


def test_corollary_agreement_and_frozen_negative_value():
    lhs, rhs = corollary_check(swap_operator(2) / 2.0, antisymmetric_projector(2), 2)
    assert lhs == pytest.approx(-0.125, abs=1e-12)
    assert rhs == pytest.approx(-0.125, abs=1e-12)
    rng = np.random.default_rng(65)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = g @ g.conj().T
    w /= np.trace(w).real
    lhs2, rhs2 = corollary_check(w, symmetric_projector(2), 2)
    assert lhs2 == pytest.approx(rhs2, abs=1e-12)
    assert lhs2 >= 0.0


def test_corollary_input_validation():
    with pytest.raises(ValueError, match="trace"):
        corollary_check(np.eye(4), antisymmetric_projector(2), 2)
    with pytest.raises(ValueError, match="positive semidefinite"):
        corollary_check(swap_operator(2) / 2.0, np.diag([1.0, 1.0, 1.0, -1.0]), 2)
    # the effect's positivity does not depend on its scale
    for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        with pytest.raises(ValueError, match="positive semidefinite"):
            corollary_check(np.eye(4) / 4, scale * np.diag([1.0, 1.0, 1.0, -0.5]), 2)
        lhs, rhs = corollary_check(np.eye(4) / 4, scale * symmetric_projector(2), 2)
        assert lhs == pytest.approx(rhs) and lhs > 0.0


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_corollary_refuses_a_non_psd_effect_whose_plain_norm_overflows(scale):
    # any warning fails the test
    with pytest.raises(ValueError, match="positive semidefinite"):
        corollary_check(np.eye(4) / 4, scale * np.diag([1.0, 1.0, 1.0, -0.5]), 2)


def test_admitted_operators_are_finite_at_the_largest_scale():
    # (W + W†)/2 overflows above about 9e307; any warning fails the test
    w = 1.5e308 * np.diag([1.0, 1.0, 1.0, -1.0])
    embedded = embed_with_entangled_pair(w, 2)
    assert np.isfinite(embedded).all()
    assert embedded.real.max() == 1.5e308 / 2


def test_desideratum_demo_report():
    r = desideratum_violation_demo(2, seed=9)
    assert r.n == 2
    assert r.alpha == pytest.approx(0.25, abs=1e-12)
    assert r.negative_value == pytest.approx(-0.125, abs=1e-12)
    # the demo reads the corollary's value off its one projection, bit for bit
    lhs, _ = corollary_check(swap_operator(2) / 2, antisymmetric_projector(2), 2)
    assert r.negative_value == lhs
    assert r.popt_verdict.status == "certified"
    assert r.popt_verdict.info["psd"] is False
    assert np.array_equal(r.alice_effect, bell_projector(2))
    assert np.array_equal(r.bob_effect, antisymmetric_projector(2))
    # the negativity needs both entangled ingredients
    assert r.psd_replacement_min >= -1e-10
    assert r.product_replacement_min >= -1e-10


def _dense_sandwich(g, n, t, side):
    """P G P for P = t on the projected pair, built with kron on the n^4 space."""
    eye = np.eye(n * n)
    proj = kron(t, eye) if side == "alice" else kron(eye, t)
    return proj @ g @ proj, float(np.real(np.trace(proj @ g)))


@pytest.mark.parametrize("n", [2, 3])
def test_contractions_match_the_dense_embedding(n):
    rng = np.random.default_rng(70 + n)
    w = random_hermitian(rng, n * n)
    g = embed_with_entangled_pair(w, n)
    t = bell_projector(n)
    for side, pivot, shape in (
        ("alice", pivot_alice, kron(t, w)),
        ("bob", pivot_bob, kron(w, t)),
    ):
        sandwich, alpha = _dense_sandwich(g, n, t, side)
        rep = pivot(w, n)
        assert rep.alpha == pytest.approx(alpha, abs=1e-13)
        assert rep.frobenius_gap == pytest.approx(
            frobenius(sandwich - alpha * shape), abs=1e-13
        )
    for v in weyl_basis(n):
        sandwich, alpha = _dense_sandwich(g, n, twisted_bell_projector(n, v), "alice")
        res = pivot_general(w, n, v)
        assert res.alpha == pytest.approx(alpha, abs=1e-13)
        bob = partial_trace(sandwich, (n * n, n * n), 0)
        assert frobenius(res.bob_operator - bob) <= 1e-13

    w1 = random_hermitian(rng, n * n, trace=1.0)
    b = random_psd(rng, n * n)
    g1 = embed_with_entangled_pair(w1, n)
    lhs, rhs = corollary_check(w1, b, n)
    assert lhs == pytest.approx(float(np.real(np.trace(kron(t, b) @ g1))), abs=1e-12)
    _, alpha = _dense_sandwich(g1, n, t, "alice")
    assert rhs == pytest.approx(alpha * float(np.real(np.trace(w1 @ b))), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_project_matches_the_dense_sandwich(n):
    # a non-symmetric phi tells phi from phi^T on either side; the Bell vector cannot
    rng = np.random.default_rng(90 + n)
    w, inner = random_hermitian(rng, n * n), random_hermitian(rng, n * n)
    g = permute_systems(kron(w, inner), (n,) * 4, (0, 2, 3, 1))
    eye = np.eye(n * n)
    phis = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    phis /= np.linalg.norm(phis, axis=(1, 2), keepdims=True)
    assert all(frobenius(phi - phi.T) > 0.1 for phi in phis)
    for side in ("alice", "bob"):
        stacked = _project(w, inner, n, phis, side)
        assert stacked.shape == (3, n * n, n * n)
        for phi, got in zip(phis, stacked):
            ket = phi.reshape(n * n, 1)
            lift = kron(ket, eye) if side == "alice" else kron(eye, ket)
            want = lift.conj().T @ g @ lift
            assert np.abs(_project(w, inner, n, phi, side) - want).max() <= 1e-13
            assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_desideratum_minima_match_dense_traces(n):
    seed = 11
    r = desideratum_violation_demo(n, seed=seed)
    effects = [antisymmetric_projector(n), symmetric_projector(n)]
    effects += [twisted_bell_projector(n, v) for v in weyl_basis(n)]
    tests = [kron(twisted_bell_projector(n, v), b) for v in weyl_basis(n) for b in effects]

    def dense_min(g):
        return min(float(np.real(np.trace(test @ g))) for test in tests)

    pure = np.zeros((n * n, n * n))
    pure[0, 0] = 1.0
    mixed = np.eye(n * n) / (n * n)
    psd = random_psd(np.random.default_rng(seed), n * n, trace=1.0)
    psd_min = min(dense_min(embed_with_entangled_pair(x, n)) for x in (mixed, pure, psd))
    w = swap_operator(n) / n
    product_min = min(
        dense_min(permute_systems(kron(w, inner), (n,) * 4, (0, 2, 3, 1)))
        for inner in (mixed, pure)
    )
    assert r.psd_replacement_min == pytest.approx(psd_min, abs=1e-12)
    assert r.product_replacement_min == pytest.approx(product_min, abs=1e-12)


def test_pivots_at_scale():
    # at n = 8 the dense embedding alone would be a 4096 x 4096 complex matrix
    n = 8
    rng = np.random.default_rng(80)
    w = random_hermitian(rng, n * n, trace=1.0)
    bound = 1e-9 * max(1.0, frobenius(w))
    for rep in (pivot_alice(w, n), pivot_bob(w, n)):
        assert rep.alpha == pytest.approx(1.0 / n**2, abs=1e-12)
        assert rep.frobenius_gap <= bound
    a, b = rng.integers(n, size=2)
    res = pivot_general(w, n, weyl_operator(n, a, b))
    assert res.alpha == pytest.approx(1.0 / n**2, abs=1e-12)
    assert res.gap <= 1e-9
    effect = random_psd(rng, n * n)
    lhs, _ = corollary_check(w, effect, n)
    expected = float(np.real(np.trace(w @ effect))) / n**2
    assert lhs == pytest.approx(expected, abs=1e-9 * frobenius(w) * frobenius(effect))


def test_desideratum_demo_at_scale():
    n = 6
    r = desideratum_violation_demo(n)
    assert r.negative_value == pytest.approx((1 - n) / (2 * n**2), abs=1e-12)
    assert r.popt_verdict.status == "certified"
    assert r.psd_replacement_min >= -1e-10
    assert r.product_replacement_min >= -1e-10


def test_pivots_reject_non_finite_operators():
    w = swap_operator(2) / 2.0
    with pytest.raises(ValueError, match="non-finite"):
        pivot_alice(np.diag([np.nan, 1.0, 1.0, 1.0]), 2)
    with pytest.raises(ValueError, match="non-finite"):
        corollary_check(w, np.diag([np.nan, 1.0, 1.0, 1.0]), 2)


def _non_hermitian_operators():
    """The two non-Hermitian 4x4 operators of the cone admission tests, at every scale."""
    lopsided = np.eye(4)
    lopsided[0, 1] = 5.0
    antisymmetric = np.eye(4)
    antisymmetric[0, 1], antisymmetric[1, 0] = 0.5, -0.5
    scales = (1e-300, 1e-170, 1e-10, 1.0, 1e160, 1e300)
    return [s * w for w in (lopsided, antisymmetric) for s in scales]


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda w: pivot_alice(w, 2), id="pivot_alice"),
        pytest.param(lambda w: pivot_bob(w, 2), id="pivot_bob"),
        pytest.param(lambda w: pivot_general(w, 2, np.eye(2)), id="pivot_general"),
        pytest.param(lambda w: corollary_check(w, np.eye(4), 2), id="corollary_check"),
        pytest.param(lambda w: corollary_check(np.eye(4) / 4, w, 2), id="corollary_effect"),
        pytest.param(lambda w: embed_with_entangled_pair(w, 2), id="embed"),
    ],
)
def test_entry_points_reject_non_hermitian_operators(entry):
    for w in _non_hermitian_operators():
        with pytest.raises(ValueError, match="hermiticity defect"):
            entry(w)


UNITARY_ENTRY_POINTS = (
    lambda v: twisted_bell_projector(2, v),
    lambda v: pivot_general(swap_operator(2) / 2.0, 2, v),
    lambda v: transpose_in_basis(identity_map(2), v),
)


def test_unitaries_reject_non_finite_entries():
    # a NaN fails every comparison, so the unitarity check alone admits it
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
        for entry in UNITARY_ENTRY_POINTS:
            with pytest.raises(ValueError, match="a 2x2 matrix has non-finite entries"):
                entry(bad)


@pytest.mark.parametrize(
    "bad, reason",
    [
        pytest.param(2.0 * np.eye(2), "matrix is not unitary", id="twice-identity"),
        # V†V would overflow
        pytest.param(1e200 * np.eye(2), "matrix is not unitary", id="huge-identity"),
        pytest.param(np.eye(3), r"expected a 2x2 matrix, got shape \(3, 3\)", id="wrong-shape"),
    ],
)
def test_unitaries_share_one_refusal(bad, reason):
    for entry in UNITARY_ENTRY_POINTS:
        with pytest.raises(ValueError, match=f"^{reason}$"):
            entry(bad)
