"""Dense operator helpers: shapes, conventions, and admission rules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from influencefree.choimaps import swap_operator
from influencefree.linalg import (
    _hermitian_part,
    _least_eigh,
    frobenius,
    hermitian,
    hermitian_eig,
    kron,
    min_eig,
    partial_trace,
    partial_transpose,
    permute_systems,
    psd_part,
)


def _random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def test_kron_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    assert np.allclose(kron(a, b), np.kron(a, b))


def test_partial_transpose_hand_value():
    # basis |00>,|01>,|10>,|11>; transposing factor 1 swaps the off-diagonal
    # blocks' internal transposes
    w = np.arange(16, dtype=float).reshape(4, 4)
    g = partial_transpose(w, (2, 2), 1)
    expected = np.array(
        [
            [0.0, 4.0, 2.0, 6.0],
            [1.0, 5.0, 3.0, 7.0],
            [8.0, 12.0, 10.0, 14.0],
            [9.0, 13.0, 11.0, 15.0],
        ]
    )
    assert np.array_equal(g, expected)


def test_partial_transpose_factors_compose_to_full_transpose():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    both = partial_transpose(partial_transpose(w, (2, 3), 0), (2, 3), 1)
    assert np.allclose(both, w.T)


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(3)
    a = _random_hermitian(rng, 2)
    b = _random_hermitian(rng, 3)
    w = np.kron(a, b)
    assert np.allclose(partial_trace(w, (2, 3), 1), a * np.trace(b))
    assert np.allclose(partial_trace(w, (2, 3), 0), b * np.trace(a))


def test_permute_systems_swaps_kron_factors():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    swapped = permute_systems(np.kron(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, np.kron(b, a))


def test_permute_systems_three_factors():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((d, d)) for d in (2, 3, 2)]
    w = np.kron(np.kron(mats[0], mats[1]), mats[2])
    out = permute_systems(w, (2, 3, 2), (2, 0, 1))
    expected = np.kron(np.kron(mats[2], mats[0]), mats[1])
    assert np.allclose(out, expected)


def test_hermitian_operator_admission_and_defect():
    rng = np.random.default_rng(6)
    h = _random_hermitian(rng, 3)
    h /= np.abs(h).max()  # entries of modulus <= 1, so that 1.5e308 * h is finite
    assert np.allclose(hermitian(h), h)

    skewed = h + 1e-3 * (rng.standard_normal((3, 3)) * 1j)
    # the same verdicts at every scale, with no over- or underflow on the way
    for scale in (1e-300, 1e-170, 1e-10, 1.0, 1e160, 1e300, 1.5e308):
        assert np.array_equal(hermitian(scale * h), scale * h)
        with pytest.raises(ValueError, match="hermiticity defect"):
            hermitian(scale * skewed)


def test_hermitian_admission_at_the_subnormal_scale():
    # scaling M / max|M_ij| would overflow on a subnormal peak; any warning fails the test
    with pytest.raises(ValueError, match="hermiticity defect"):
        hermitian(5e-324 * np.array([[1.0, 1j], [0.0, 1.0]]))
    hermitian(5e-324 * np.array([[1.0, 1j], [-1j, 1.0]]))


def test_frobenius_is_the_norm_bit_for_bit_and_finite_wherever_it_can_be():
    rng = np.random.default_rng(9)
    for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
        for _ in range(200):
            m = scale * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
            assert frobenius(m) == np.linalg.norm(m)
    # np.linalg.norm under- or overflows on these; any warning fails the test
    assert frobenius(1e300 * np.ones((2, 2))) == 2e300
    assert frobenius(1e-300j * np.ones((2, 2))) == 2e-300
    assert frobenius(5e-324 * np.ones((2, 2))) == 1e-323
    assert frobenius(1.5e308 * np.ones((3, 3))) == np.inf
    assert frobenius(1e308 * (1 + 1j) * np.ones((2, 2))) == np.inf
    assert frobenius(np.zeros((2, 2))) == 0.0


def test_hermitian_operator_rejects_non_finite_entries():
    # eigh would otherwise answer with a NaN eigenvalue
    for bad in (np.nan, np.inf):
        for entry in (hermitian, min_eig, hermitian_eig):
            with pytest.raises(ValueError, match="non-finite"):
                entry(np.diag([bad, 1.0]))


def test_hermitian_part_is_the_halved_sum_bit_for_bit():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    expected = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
    assert np.array_equal(_hermitian_part(stack), expected)
    assert np.array_equal(_hermitian_part(stack[0]), expected[0])
    vals, vecs = _least_eigh(stack)
    full_vals, full_vecs = np.linalg.eigh(expected)
    assert np.array_equal(vals, full_vals[:, 0])
    assert np.array_equal(vecs, full_vecs[:, :, 0])


def test_hermitian_arithmetic_is_finite_at_the_largest_scale():
    # (M + M†)/2 overflows above about 9e307; any warning fails the test
    w = 1.5e308 * np.array([[1.0, 0.5j], [-0.5j, -1.0]])
    assert np.array_equal(hermitian(w), w)
    lam, vec = min_eig(w)
    assert lam == pytest.approx(-1.5e308 * np.sqrt(1.25))
    assert np.isfinite(vec).all()
    vals, vecs = hermitian_eig(w)
    assert np.isfinite(vals).all() and np.isfinite(vecs).all()
    assert vals[-1] == lam
    positive = psd_part(w)
    assert np.isfinite(positive).all()
    assert np.linalg.eigvalsh(positive / 1.5e308).min() >= -1e-12


def test_min_eig_and_psd_part():
    w = np.diag([3.0, -2.0, 0.5])
    lam, vec = min_eig(w)
    assert lam == pytest.approx(-2.0)
    assert abs(vec[1]) == pytest.approx(1.0)
    pos = psd_part(w)
    assert np.allclose(pos, np.diag([3.0, 0.0, 0.5]))
    # psd_part(w) - psd_part(-w) recovers w
    assert np.allclose(pos - psd_part(-w), w)


def test_hermitian_eig_descending_and_rejects_nonhermitian():
    rng = np.random.default_rng(7)
    h = _random_hermitian(rng, 4)
    vals, vecs = hermitian_eig(h)
    assert all(vals[i] >= vals[i + 1] for i in range(3))
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h)
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eig_is_the_last_pair_of_hermitian_eig():
    # the identity and the swap have degenerate spectra, so the largest
    # magnitude of an eigenvector is reached more than once there
    rng = np.random.default_rng(11)
    cases = [_random_hermitian(rng, d) for d in (1, 2, 3, 4, 6, 9) for _ in range(5)]
    cases += [np.eye(4), np.eye(9), swap_operator(2), swap_operator(3), -swap_operator(3)]
    for m in cases:
        lam, vec = min_eig(m)
        vals, vecs = hermitian_eig(m)
        assert lam == vals[-1]
        assert np.array_equal(vec, vecs[:, -1])
    with pytest.raises(ValueError):
        min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_partial_transpose_is_trace_preserving_involution(seed, dims):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for factor in (0, 1):
        g = partial_transpose(w, dims, factor)
        assert np.allclose(partial_transpose(g, dims, factor), w)
        assert np.trace(g) == pytest.approx(complex(np.trace(w)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_psd_part_is_positive_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    w = _random_hermitian(rng, 4)
    p = psd_part(w)
    assert np.linalg.eigvalsh(p).min() >= -1e-12
    assert np.allclose(psd_part(p), p)
    # a stack is projected matrix by matrix, with the same arithmetic
    stack = np.stack([w, _random_hermitian(rng, 4), -w])
    assert np.array_equal(psd_part(stack), np.stack([psd_part(a) for a in stack]))
