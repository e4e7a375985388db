"""Choi operators, map application, CP/co-CP verdicts, tomography."""

import numpy as np
import pytest

from influencefree.choimaps import (
    LinearMapChoi,
    apply_map,
    choi_from_conjugation,
    compose_maps,
    hk_representation,
    identity_map,
    is_co_cp,
    is_cp,
    reconstruct_operator,
    state_eval,
    swap_operator,
    trace_condition,
    transpose_in_basis,
    transpose_map,
    unnormalized_q,
)
from influencefree.linalg import frobenius
from influencefree.sampling import random_hermitian, random_unitary


def test_unnormalized_q_structure():
    q = unnormalized_q(3)
    assert q.shape == (9, 9)
    assert np.trace(q) == pytest.approx(3.0)
    vals = np.linalg.eigvalsh(q)
    assert vals[-1] == pytest.approx(3.0)
    assert np.abs(vals[:-1]).max() <= 1e-12
    # entries: <ij|Q|kl> = delta_ij delta_kl
    assert q[0, 4] == pytest.approx(1.0)  # |00><11| block for n=3
    assert q[1, 1] == pytest.approx(0.0)


def test_swap_operator_action():
    s = swap_operator(2)
    e = np.eye(2)
    for i in range(2):
        for j in range(2):
            v = np.kron(e[i], e[j])
            assert np.allclose(s @ v, np.kron(e[j], e[i]))
    assert np.allclose(s @ s, np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_swap_operator_entries(n):
    want = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            want[i * n + j, j * n + i] = 1.0
    assert np.array_equal(swap_operator(n), want)


def test_transpose_map_choi_is_swap():
    for n in (2, 3):
        assert np.allclose(transpose_map(n).choi, swap_operator(n))
        assert np.allclose(identity_map(n).choi, unnormalized_q(n))


def test_apply_map_matches_conjugation():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    m = choi_from_conjugation(a)  # a is dout x din
    assert (m.din, m.dout) == (2, 3)
    x = random_hermitian(rng, 2)
    assert np.allclose(apply_map(m, x), a @ x @ a.conj().T)
    with pytest.raises(ValueError):
        apply_map(m, np.eye(3))


def test_identity_and_transpose_application():
    rng = np.random.default_rng(12)
    x = random_hermitian(rng, 3)
    assert np.allclose(apply_map(identity_map(3), x), x)
    assert np.allclose(apply_map(transpose_map(3), x), x.T)


def test_compose_maps():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = choi_from_conjugation(a)
    g = choi_from_conjugation(b)
    x = random_hermitian(rng, 2)
    comp = compose_maps(f, g)
    assert np.allclose(apply_map(comp, x), apply_map(f, apply_map(g, x)))
    with pytest.raises(ValueError):
        compose_maps(identity_map(3), g)


def matrix_unit_compose(f, g):
    """f∘g applied to each matrix unit, one Choi block at a time: the reference for compose_maps."""
    din, dout = g.din, f.dout
    c4 = np.zeros((din, dout, din, dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            e = np.zeros((din, din), dtype=complex)
            e[i, j] = 1.0
            c4[i, :, j, :] = apply_map(f, apply_map(g, e))
    return c4.reshape(din * dout, din * dout)


@pytest.mark.parametrize("chain", [(2, 3, 4), (3, 2, 2), (1, 2, 3), (2, 2, 2)])
def test_compose_maps_matches_matrix_unit_reference(chain):
    d0, d1, d2 = chain
    rng = np.random.default_rng(sum(chain))
    g = LinearMapChoi(random_hermitian(rng, d0 * d1), d0, d1)
    f = LinearMapChoi(random_hermitian(rng, d1 * d2), d1, d2)
    got = compose_maps(f, g)
    want = matrix_unit_compose(f, g)
    assert (got.din, got.dout) == (d0, d2)
    assert frobenius(got.choi - want) <= 1e-12 * max(1.0, frobenius(want))


def test_cp_and_co_cp_verdicts():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    conj = choi_from_conjugation(a)
    assert bool(is_cp(conj))
    t = transpose_map(2)
    v = is_cp(t)
    assert not bool(v)
    assert v.min_value == pytest.approx(-1.0)
    assert v.witness is not None
    assert bool(is_co_cp(t))
    with pytest.raises(ValueError):
        is_co_cp(choi_from_conjugation(np.ones((3, 2))))


def test_transpose_in_basis():
    rng = np.random.default_rng(15)
    u = random_unitary(rng, 3)
    tb = transpose_in_basis(identity_map(3), u)
    x = random_hermitian(rng, 3)
    expected = u @ (u.conj().T @ x @ u).T @ u.conj().T
    assert np.allclose(apply_map(tb, x), expected)
    # with the standard basis this is the plain transpose
    plain = transpose_in_basis(identity_map(3), np.eye(3))
    assert np.allclose(plain.choi, transpose_map(3).choi)
    with pytest.raises(ValueError):
        transpose_in_basis(identity_map(3), np.ones((3, 3)))


def test_hk_representation_rebuilds_choi():
    rng = np.random.default_rng(16)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    choi = g @ g.conj().T
    m = LinearMapChoi(choi, 2, 3)
    ks = hk_representation(m)
    rebuilt = sum(choi_from_conjugation(a).choi for a in ks.operators)
    assert frobenius(rebuilt - choi) <= 1e-10
    x = random_hermitian(rng, 2)
    direct = apply_map(m, x)
    via_kraus = sum(a @ x @ a.conj().T for a in ks.operators)
    assert np.allclose(direct, via_kraus)
    with pytest.raises(ValueError):
        hk_representation(transpose_map(2))


def test_trace_condition():
    tr_choi, tr_phi1 = trace_condition(identity_map(3))
    assert tr_choi == pytest.approx(3.0)
    assert tr_phi1 == pytest.approx(3.0)


def test_state_eval_requires_unit_vectors():
    s = swap_operator(2)
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0]) / np.sqrt(2)
    assert state_eval(s, (2, 2), x, y) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        state_eval(s, (2, 2), 2.0 * x, y)


def test_reconstruct_operator_roundtrip_and_rejection():
    rng = np.random.default_rng(17)
    w = random_hermitian(rng, 6, trace=1.0)
    rec = reconstruct_operator(lambda x, y: state_eval(w, (2, 3), x, y), 2, 3)
    assert frobenius(w - rec) <= 1e-10
    # a non-bilinear evaluator fails the held-out validation
    with pytest.raises(ValueError):
        reconstruct_operator(lambda x, y: float(abs(np.vdot(x, y)) ** 4), 2, 2)


@pytest.mark.parametrize("dims", [(3, 2), (1, 2)])
def test_reconstruct_operator_roundtrip_in_other_shapes(dims):
    da, db = dims
    rng = np.random.default_rng(17 + da)
    w = random_hermitian(rng, da * db, trace=1.0)
    rec = reconstruct_operator(lambda x, y: state_eval(w, dims, x, y), da, db)
    assert frobenius(w - rec) <= 1e-10


def test_reconstruct_operator_rejects_nan_values():
    # a NaN residual compares false with tol, so it must not pass as consistent
    with pytest.raises(ValueError):
        reconstruct_operator(lambda x, y: float("nan"), 2, 2)
