"""Choi operators, map application, CP/co-CP verdicts, tomography."""

import numpy as np
import pytest

from influencefree.choimaps import (
    KrausSet,
    LinearMapChoi,
    apply_map,
    choi_from_conjugation,
    compose_maps,
    hk_representation,
    identity_map,
    is_co_cp,
    is_cp,
    kraus_residual,
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


@pytest.mark.parametrize("k", [-200, -60, -20, 0, 20, 60, 200])
def test_cp_verdicts_read_the_same_at_every_scale(k):
    # the floor -tol·‖C‖_F scales with the map: a conjugation map is CP and
    # the transpose map is not, however large or small either is
    scale = 2.0**k
    rng = np.random.default_rng(300 + k)
    for _ in range(20):
        a = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = choi_from_conjugation(a)
        assert bool(is_cp(m))
        assert kraus_residual(m, hk_representation(m)) <= 1e-12 * frobenius(m.choi)
    t = LinearMapChoi(scale * transpose_map(3).choi, 3, 3)
    assert not bool(is_cp(t)) and bool(is_co_cp(t))
    with pytest.raises(ValueError, match="not completely positive"):
        hk_representation(t)


def test_cp_verdicts_at_large_fixed_scales():
    rng = np.random.default_rng(301)
    for _ in range(50):
        a = 1e4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = choi_from_conjugation(a)
        assert bool(is_cp(m)) and len(hk_representation(m).operators) == 1
    huge = LinearMapChoi(1e300 * identity_map(3).choi, 3, 3)
    assert len(hk_representation(huge).operators) == 1
    assert bool(is_co_cp(LinearMapChoi(1e300 * transpose_map(3).choi, 3, 3)))
    # where ‖C‖_F exceeds the largest float the floor stays finite, so the
    # transpose map is still refuted and the identity map still not co-CP
    t = LinearMapChoi(1e308 * transpose_map(3).choi, 3, 3)
    assert not bool(is_cp(t)) and bool(is_co_cp(t))
    with pytest.raises(ValueError, match="not completely positive"):
        hk_representation(t)
    i = LinearMapChoi(1e308 * identity_map(3).choi, 3, 3)
    assert bool(is_cp(i)) and not bool(is_co_cp(i))


def test_hk_representation_where_the_choi_spectrum_overflows():
    # λ_max = 3e308 is not a float, but the spectrum of C·2^−e is
    m = LinearMapChoi(1e308 * identity_map(3).choi, 3, 3)
    ks = hk_representation(m)
    assert len(ks.operators) == 1
    assert kraus_residual(m, ks) <= 1e-12 * np.finfo(float).max


@pytest.mark.parametrize("k", [-200, -60, 60, 200])
def test_hk_representation_does_not_move_at_a_power_of_two(k):
    # the spectrum is read from the same C·2^−e at every scale, so each
    # operator is scaled by exactly 2^(k/2), and a refusal stays a refusal
    rng = np.random.default_rng(310)
    gs = [rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r)) for r in (1, 3, 6)]
    chois = [(g @ g.conj().T, 2, 3) for g in gs]  # CP maps of Choi rank 1, 3 and 6
    chois += [(transpose_map(3).choi, 3, 3), (random_hermitian(rng, 9), 3, 3)]
    refused = 0
    for choi, din, dout in chois:
        try:
            want = hk_representation(LinearMapChoi(choi, din, dout)).operators
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="not completely positive"):
                hk_representation(LinearMapChoi(2.0**k * choi, din, dout))
            continue
        got = hk_representation(LinearMapChoi(2.0**k * choi, din, dout)).operators
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, 2.0 ** (k // 2) * b)
    assert refused == 2


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


def test_kraus_residual_measures_the_missing_part():
    rng = np.random.default_rng(16)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = LinearMapChoi(g @ g.conj().T, 2, 3)
    ks = hk_representation(m)
    assert kraus_residual(m, ks) <= 1e-10
    # dropping one operator leaves exactly its own Choi operator unexplained
    partial = KrausSet(ks.operators[1:])
    expected = frobenius(choi_from_conjugation(ks.operators[0]).choi)
    assert kraus_residual(m, partial) == pytest.approx(expected, rel=1e-9)
    assert kraus_residual(m, KrausSet(())) == pytest.approx(frobenius(m.choi))


@pytest.mark.parametrize("scale", [1e-200, 1e-13, 1e200])
def test_hk_representation_keeps_its_operators_at_every_scale(scale):
    m = LinearMapChoi(scale * identity_map(2).choi, 2, 2)
    ks = hk_representation(m)
    assert len(ks.operators) == 1
    assert kraus_residual(m, ks) <= 1e-15 * frobenius(m.choi)


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


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 2), (4, 4), (7, 2)])
def test_state_eval_is_bit_identical_to_the_kron_form(dims):
    da, db = dims
    rng = np.random.default_rng(da * 10 + db)
    for _ in range(50):
        w = random_hermitian(rng, da * db)
        x, y = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        v = np.kron(x, y)
        assert state_eval(w, dims, x, y) == float(np.real(v.conj() @ w @ v))


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


@pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e9, 1e12, 1e200])
def test_reconstruct_operator_held_out_check_is_scale_free(scale):
    rng = np.random.default_rng(18)
    for dims in [(2, 2), (2, 3), (1, 3)]:
        w = scale * random_hermitian(rng, dims[0] * dims[1], trace=1.0)
        rec = reconstruct_operator(lambda x, y: state_eval(w, dims, x, y), *dims)
        assert frobenius(w - rec) <= 1e-12 * frobenius(w)
    if scale in (1e-12, 1.0, 1e12):
        with pytest.raises(ValueError, match="held-out residual"):
            reconstruct_operator(lambda x, y: scale * float(abs(np.vdot(x, y)) ** 4), 2, 2)


def test_reconstruct_operator_rejects_nan_values():
    # a NaN residual compares false with tol, so it must not pass as consistent
    with pytest.raises(ValueError):
        reconstruct_operator(lambda x, y: float("nan"), 2, 2)
