"""Cone verdicts: PSD/PPT, product see-saw, sum membership, extremality probe."""

import bisect
import functools
from fractions import Fraction

import numpy as np
import pytest

from influencefree import cones
from influencefree.choimaps import (
    choi_from_conjugation,
    state_eval,
    swap_operator,
    unnormalized_q,
)
from influencefree.cones import (
    FEAS_TOL,
    FIRST_BLOCK,
    MEMBERSHIP_ROUNDING,
    SEESAW_ROUNDING,
    WITNESS_MARGIN,
    SeesawResult,
    _dual_witness,
    _membership,
    _seesaw_sweeps,
    decomposable_sum_membership,
    extremality_probe,
    is_popt,
    is_ppt,
    is_psd,
    popt_minimize,
    split_holds,
    witness_holds,
)
from influencefree.linalg import (
    DEFAULT_TOL as TOL,
    _least_eigh,
    frobenius,
    hermitian_eig,
    min_eig,
    partial_transpose,
)
from influencefree.sampling import random_hermitian, random_psd, random_rank, random_unitary


def boundary_member() -> np.ndarray:
    """PSD + (PSD)^Gamma rank-one pieces; neither PSD nor PPT itself."""
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    phi = np.zeros(4)
    phi[1] = phi[2] = 1 / np.sqrt(2)
    return np.outer(psi, psi) + partial_transpose(np.outer(phi, phi), (2, 2), 1)


def product_boundary_operator(rng, dims) -> np.ndarray:
    """P + Q^Gamma with P and Q^Gamma rank one, both vanishing on one product
    vector |xy>: decomposable, but on the boundary of the cone sum."""
    x, y = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in dims)
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)

    def orthogonal_to(u):
        g = rng.standard_normal(len(u)) + 1j * rng.standard_normal(len(u))
        g -= np.vdot(u, g) * u
        return g / np.linalg.norm(g)

    phi, chi = orthogonal_to(np.kron(x, y)), orthogonal_to(np.kron(x, y.conj()))
    w = np.outer(phi, phi.conj()) + partial_transpose(np.outer(chi, chi.conj()), dims, 1)
    assert abs(np.vdot(np.kron(x, y), w @ np.kron(x, y))) <= 1e-12
    return w


# the entry points that take a Hermitian W on 2 x 2
HERMITIAN_ENTRY_POINTS = [
    pytest.param(lambda w: is_psd(w), id="is_psd"),
    pytest.param(lambda w: is_ppt(w, (2, 2)), id="is_ppt"),
    pytest.param(lambda w: is_popt(w, (2, 2), seed=1), id="is_popt"),
    pytest.param(lambda w: decomposable_sum_membership(w, (2, 2)), id="membership"),
    pytest.param(lambda w: popt_minimize(w, (2, 2), seed=1), id="popt_minimize"),
    pytest.param(min_eig, id="min_eig"),
    pytest.param(hermitian_eig, id="hermitian_eig"),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    HERMITIAN_ENTRY_POINTS + [pytest.param(lambda w: extremality_probe(w), id="extremality")],
)
def test_entry_points_reject_non_finite_operators(entry, bad):
    w = np.diag([bad, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        entry(w)


def lopsided() -> np.ndarray:
    w = np.eye(4)
    w[0, 1] = 5.0  # popt_minimize used to answer min_value -1.5 here
    return w


def antisymmetric_part() -> np.ndarray:
    w = np.eye(4)
    w[0, 1], w[1, 0] = 0.5, -0.5  # membership used to overflow and fail to converge here
    return w


# the refusal must not depend on the scale, nor over- or underflow on the way
SCALES = (1e-300, 1e-170, 1e-10, 1.0, 1e160, 1e300)


# extremality_probe takes the operator of a conjugation map, which need not be Hermitian
@pytest.mark.parametrize("make", [lopsided, antisymmetric_part])
@pytest.mark.parametrize("entry", HERMITIAN_ENTRY_POINTS)
def test_entry_points_reject_non_hermitian_operators(entry, make):
    for scale in SCALES:
        with pytest.raises(ValueError, match="hermiticity defect"):
            entry(scale * make())


def test_is_psd_verdicts():
    member = is_psd(np.diag([1.0, 2.0]))
    assert bool(member) and member.status == "member"
    assert member.min_value == pytest.approx(1.0)
    refuted = is_psd(np.diag([1.0, -0.5]))
    assert not bool(refuted) and refuted.status == "refuted"
    assert refuted.min_value == pytest.approx(-0.5)
    v = refuted.witness
    assert np.real(v.conj() @ np.diag([1.0, -0.5]) @ v) == pytest.approx(-0.5)


def test_spectral_verdicts_are_finite_at_the_largest_scale():
    # (W + W†)/2 overflows above about 9e307; any warning fails the test
    s = 1.5e308
    refuted = is_psd(s * np.diag([1.0, -1.0]))
    assert refuted.status == "refuted" and refuted.min_value == -s
    assert np.array_equal(refuted.witness, [0.0, 1.0])
    not_ppt = is_ppt(s * unnormalized_q(2) / 2, (2, 2))
    assert not_ppt.status == "refuted" and not_ppt.min_value == pytest.approx(-s / 2)
    psd = is_popt(s * np.eye(4), (2, 2), seed=1)
    assert psd.status == "certified" and psd.info["branch"] == "psd"
    assert psd.min_value == s
    ppt = is_popt(s * swap_operator(2) / 2, (2, 2), seed=1)
    assert ppt.status == "certified" and ppt.info["branch"] == "ppt"


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


def serial_restarts(w, dims, seed, restarts, max_iter):
    """The see-saw one restart at a time, each run to its own fixed point."""
    da, db = dims
    w4 = np.asarray(w, dtype=complex).reshape(da, db, da, db)

    def min_vec(h):
        vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
        return float(vals[0]), vecs[:, 0]

    rng = np.random.default_rng(seed)
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
        yield SeesawResult(value, x, y, r + 1, iterations, converged)


def serial_seesaw(w, dims, seed, restarts, max_iter):
    """The reference for popt_minimize: the best restart, ties to the lowest index."""
    best = None
    for result in serial_restarts(w, dims, seed, restarts, max_iter):
        if best is None or result.min_value < best.min_value:
            best = result
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


SEESAW_DIMS = [(2, 2), (2, 3), (3, 3)]


@functools.lru_cache(maxsize=None)
def seesaw_corpus(dims):
    """−swap when the factors match (its many tied restarts test the pick),
    then 40 seeded Hermitian operators, every other one shifted next to the
    product boundary (its see-saw floor moved within ±0.05 of 0)."""
    rng = np.random.default_rng(100 * dims[0] + dims[1])
    d = dims[0] * dims[1]
    operators = [-swap_operator(dims[0])] if dims[0] == dims[1] else []
    for k in range(40):
        h = random_hermitian(rng, d)
        if k % 2:
            floor = popt_minimize(h, dims, seed=k, restarts=16).min_value
            h = h - (floor + rng.uniform(-0.05, 0.05)) * np.eye(d)
        operators.append(h)
    return tuple(operators)


def stopped_seesaw(w, dims, seed, restarts, stop_below, max_iter=200) -> SeesawResult:
    """The result of the see-saw with its early stop below stop_below."""
    return list(_seesaw_sweeps(w, dims, seed, restarts, max_iter, stop_below))[-1][1]


def vertex_look(w, dims, level=0) -> SeesawResult | None:
    """is_popt's vertex look, written out: the least <x_k y|W|x_k y> over the
    level's Bloch vertices x_k on the qubit factor (Alice's if both are
    qubits) and unit y on the other, from one product with the table's outer
    products and one stacked eigh. Returned as a SeesawResult in (Alice, Bob)
    order whose best_restart is the 1-based vertex; None without a qubit."""
    if 2 not in dims:
        return None
    x, outer = cones._bloch_vertices(level)
    d = dims[1] if dims[0] == 2 else dims[0]
    w4 = np.asarray(w, dtype=complex).reshape(dims + dims)
    pair_first = w4.transpose((0, 2, 1, 3) if dims[0] == 2 else (1, 3, 0, 2)).reshape(4, d * d)
    values, ys = _least_eigh((outer @ pair_first).reshape(len(x), d, d))
    k = int(np.argmin(values))
    pair = (x[k], ys[k]) if dims[0] == 2 else (ys[k], x[k])
    return SeesawResult(float(values[k]), *pair, k + 1, 0, False)


def stopped_seesaw_and_stall(w, dims, seed, restarts, max_iter=200):
    """One pass of is_popt's see-saw, with its early stop below -tol by more
    than rounding: the first block of restarts alone until it stalls (a
    sweep that lowered the lowest value seen by no more than its height above
    -tol, while above rounding; before the first sweep that value is the
    vertex look's, or +inf without a qubit factor) or ends, then every
    restart. Returns the result, and the block's lowest value at that stall
    or end if it is above rounding, or None; None too if the block picked or
    tol is below membership's rounding."""
    norm = frobenius(w)
    asks = TOL >= MEMBERSHIP_ROUNDING * norm
    rounding = SEESAW_ROUNDING * max(1.0, norm)
    stop = -TOL - rounding
    sweeps = _seesaw_sweeps(w, dims, seed, min(restarts, FIRST_BLOCK), max_iter, stop)
    look = vertex_look(w, dims)
    stall, alone, previous = None, True, np.inf if look is None else look.min_value
    for lowest, result in sweeps:
        stalled = result is None and rounding < lowest and previous - lowest <= lowest + TOL
        if alone and (stalled or result is not None and lowest >= stop):
            alone = False
            if asks and rounding < lowest:
                stall = lowest
            if restarts > FIRST_BLOCK:
                sweeps.send(restarts)
        previous = lowest
    return result, stall


def is_popt_without_shortcut(w, dims, seed, restarts, max_iter=200, membership_max_iter=20000):
    """is_popt's verdict without the membership shortcut: the vertex look on
    a qubit factor, the whole see-saw, membership at FEAS_TOL, then the finer
    vertex levels before likely. Returns the status, the see-saw result (the
    look's, if it refuted) and the block's stall (both None in the psd and
    ppt branches)."""
    if is_psd(w) or is_ppt(w, dims):
        return "certified", None, None
    look = vertex_look(w, dims)
    if look is not None and look.min_value < -TOL - SEESAW_ROUNDING * max(1.0, frobenius(w)):
        return "refuted", look, None
    full, stall = stopped_seesaw_and_stall(w, dims, seed, restarts, max_iter)
    if full.min_value < -TOL:
        return "refuted", full, stall
    membership = decomposable_sum_membership(w, dims, max_iter=membership_max_iter)
    if membership.status == "member":
        return "certified", full, stall
    for level in (1, 2, 3) if look is not None else ():
        finer = vertex_look(w, dims, level)
        if finer.min_value < -TOL:
            return "refuted", finer, stall
    return "likely", full, stall


def stall_statuses(monkeypatch) -> list:
    """Record the tight status of every membership run that is_popt starts
    at the first block's stall or end, where it asks a tighter tol than the
    FEAS_TOL it notes."""
    statuses = []

    def recorded(w, dims, tol, loose_tol, max_iter):
        tight, loose = _membership(w, dims, tol, loose_tol, max_iter)
        if tol < loose_tol:
            statuses.append(tight.status)
        return tight, loose

    monkeypatch.setattr("influencefree.cones._membership", recorded)
    return statuses


def assert_shortcut_certificate(w, dims, cert):
    """P ⪰ 0, Q^Gamma ⪰ 0 and λ_min(W − P − Q) >= −tol, recomputed."""
    slack = 1e-12 * frobenius(w)
    q_gamma = partial_transpose(cert.q, dims, 1)
    assert np.linalg.eigvalsh(cert.p).min() >= -slack
    assert np.linalg.eigvalsh(q_gamma).min() >= -slack
    assert np.linalg.eigvalsh(w - cert.p - cert.q).min() >= -TOL


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_early_stop_keeps_every_is_popt_verdict(dims, monkeypatch):
    # refuted at some sweep iff the full run ends below -tol, as the
    # objective never increases; a member at absolute residual tol has no
    # product value below -tol, and a member at that residual is a member at
    # FEAS_TOL, as the solver's iterates do not depend on its tol
    rng = np.random.default_rng(7 * dims[0] + dims[1])
    cases = [(w, 200) for w in seesaw_corpus(dims)]
    # with max_iter=2 the first block ends at its second sweep, where
    # membership is asked before the other restarts are swept
    cases += [(w, 2) for w in seesaw_corpus(dims)[:6]]
    if dims != (3, 3):
        boundary = [product_boundary_operator(rng, dims) for _ in range(11)]
        cases += [(w, 200) for w in boundary[:10]]
        # with max_iter=1 the first block ends at its first sweep, before any stall
        d = dims[0] * dims[1]
        cases += [(boundary[10], 1), (np.diag([1.0] * (d - 1) + [-1.0]), 1)]
    calls = stall_statuses(monkeypatch)
    statuses, paths = set(), set()
    starved_left = 4
    for k, (w0, max_iter) in enumerate(cases):
        for scale in (0.1, 1.0, 10.0):
            w = scale * w0
            # the stall's tight tol must be below FEAS_TOL for the recording
            assert TOL / frobenius(w) < FEAS_TOL
            want, full, stall = is_popt_without_shortcut(w, dims, seed=k, restarts=16, max_iter=max_iter)
            calls.clear()
            verdict = is_popt(w, dims, seed=k, restarts=16, max_iter=max_iter)
            assert verdict.status == want, (k, scale)
            if max_iter > 2:
                statuses.add(verdict.status)
            if scale == 1.0:
                # the same verdict as a run of every restart to convergence
                plain = popt_minimize(w, dims, seed=k, restarts=16, max_iter=max_iter)
                assert (verdict.status == "refuted") == (plain.min_value < -TOL), k
            if full is None:
                continue
            # membership is asked at the first block's stall or end and only there
            assert (stall is not None) == bool(calls), (k, scale)
            if calls[:1] == ["member"]:
                paths.add("shortcut")
                assert verdict.info["branch"] == "decomposition"
                assert_shortcut_certificate(w, dims, verdict.certificate)
                assert full.min_value <= verdict.min_value == stall
            else:
                # the vertex look's result is the only one of no sweeps
                paths.add("look" if full.iterations == 0 else "fallback" if calls else "no stall")
                assert verdict.min_value == full.min_value
                if want == "refuted":
                    assert np.array_equal(verdict.witness[0], full.witness_x)
                    assert np.array_equal(verdict.witness[1], full.witness_y)
            # a starved membership falls back to the whole see-saw; a few
            # shortcut operators per shape cover that path
            if scale != 1.0 or calls[:1] != ["member"] or not starved_left:
                continue
            starved_left -= 1
            want, _, _ = is_popt_without_shortcut(w, dims, seed=k, restarts=16, membership_max_iter=1)
            calls.clear()
            starved = is_popt(w, dims, seed=k, restarts=16, membership_max_iter=1)
            assert starved.status == want, k
            assert calls == ["inconclusive"], k
            paths.add("fallback")
            assert starved.min_value == full.min_value
    assert statuses == {"refuted", "certified"}
    assert {"shortcut", "fallback"} <= paths
    assert ("look" in paths) == (2 in dims)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_is_popt_on_the_boundary_at_large_norms(dims, monkeypatch):
    # see-saw values round to within a few ulps of ‖W‖_F, and membership's
    # residual to about 1e-13·‖W‖_F; the verdict holds at every norm, and no
    # stall membership is asked where it could not reach tol
    rng = np.random.default_rng(30 + sum(dims))
    calls = stall_statuses(monkeypatch)
    for k in range(3):
        w0 = product_boundary_operator(rng, dims)
        for scale in (1e2, 1e3, 1e4, 1e5):
            w = scale * w0
            want, full, stall = is_popt_without_shortcut(w, dims, seed=k, restarts=16)
            calls.clear()
            verdict = is_popt(w, dims, seed=k, restarts=16)
            assert verdict.status == want == "certified", (k, scale)
            assert (stall is not None) == bool(calls), (k, scale)
            if TOL < MEMBERSHIP_ROUNDING * frobenius(w):
                assert not calls, (k, scale)
            if calls[:1] == ["member"]:
                assert_shortcut_certificate(w, dims, verdict.certificate)
            else:
                assert verdict.min_value == full.min_value


def exact_value_and_norm(w, x, y) -> tuple[Fraction, Fraction]:
    """Re⟨xy|W|xy⟩ and ‖x⊗y‖², summed entry by entry in Fractions on the
    floats of W, x and y."""
    v = [
        (Fraction(a.real) * Fraction(b.real) - Fraction(a.imag) * Fraction(b.imag),
         Fraction(a.real) * Fraction(b.imag) + Fraction(a.imag) * Fraction(b.real))
        for a in x for b in y
    ]
    # Re(conj(v_i)·W_ij·v_j) with conj(v_i)·v_j = (a_i a_j + b_i b_j) + i(a_i b_j − b_i a_j)
    value = sum(
        (ai * aj + bi * bj) * Fraction(w[i, j].real) - (ai * bj - bi * aj) * Fraction(w[i, j].imag)
        for i, (ai, bi) in enumerate(v) for j, (aj, bj) in enumerate(v)
    )
    return value, sum(a * a + b * b for a, b in v)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_is_popt_at_the_default_tol_refutes_scaled_boundary_operators_only_exactly(dims):
    # at 2^k·W the absolute default tol falls inside eigh's rounding, so a
    # boundary operator's rounded floats may truly leave the cone by more
    # than tol; each refutation must then hold in exact arithmetic
    rng = np.random.default_rng(7)
    refuted = 0
    for _ in range(3):
        w0 = product_boundary_operator(rng, dims)
        for k in (0, 24, 40, 60):
            w = 2.0**k * w0
            for seed in range(2):
                verdict = is_popt(w, dims, seed=seed)
                if verdict.status == "refuted":
                    value, norm = exact_value_and_norm(w, *verdict.witness)
                    assert value < -Fraction(TOL) * norm, (k, seed)
                    refuted += 1
                else:
                    assert verdict.status == "certified", (k, seed)
                assert verdict.status == "certified" or k > 24, (k, seed)
    assert refuted


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_one_membership_run_gives_both_verdicts(dims):
    # the iterates do not depend on tol, so the verdict noted at FEAS_TOL is
    # the one a run at FEAS_TOL returns, bit for bit, whatever the cap
    rng = np.random.default_rng(50 + sum(dims))
    operators = [product_boundary_operator(rng, dims) for _ in range(2)]
    operators += seesaw_corpus(dims)[:4]
    split = False
    for w in operators:
        tight = TOL / frobenius(w)
        ends = [decomposable_sum_membership(w, dims, tol=t).info["iterations"] for t in (FEAS_TOL, tight)]
        for max_iter in (1, sum(ends) // 2, 20000):
            got = _membership(w, dims, tight, FEAS_TOL, max_iter)
            split |= got[0].status == "inconclusive" and got[1].status == "member"
            for verdict, tol in zip(got, (tight, FEAS_TOL)):
                want = decomposable_sum_membership(w, dims, tol=tol, max_iter=max_iter)
                assert (verdict.status, verdict.residual, verdict.info) == (
                    want.status, want.residual, want.info
                )
                assert np.array_equal(verdict.certificate.p, want.certificate.p)
                assert np.array_equal(verdict.certificate.q, want.certificate.q)
                assert (verdict.witness is None) == (want.witness is None)
                assert want.witness is None or np.array_equal(verdict.witness, want.witness)
    assert split


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_a_residual_that_meets_both_tolerances_at_once_gives_one_verdict(dims):
    # a run whose residual meets tol and loose_tol at the same iterate, the
    # first or a later one, returns one verdict object for both
    rng = np.random.default_rng(60 + sum(dims))
    operators = [random_psd(rng, dims[0] * dims[1])] + list(membership_corpus(dims, "interior", count=3))
    for k, w in enumerate(operators):
        tight, loose = _membership(w, dims, FEAS_TOL, FEAS_TOL, 20000)
        assert tight.status == "member" and tight is loose, k
        assert (tight.info["iterations"] == 1) == (k == 0), k


def test_dual_witness_skip_loses_no_witness():
    # with Tr(Z0 W) >= 0 and Tr W >= 0 the shifted Z = Z0 + s·I, s >= 0, has
    # Tr(ZW) = Tr(Z0 W) + s·Tr W >= 0, so it could never separate W; every
    # other pair is turned to meet that condition, the rest are left as drawn
    rng = np.random.default_rng(2024)
    skipped = found = 0
    for k in range(480):
        dims = SEESAW_DIMS[k % 3]
        d = dims[0] * dims[1]
        w, r = random_hermitian(rng, d), random_hermitian(rng, d)
        z0 = -(r + r.conj().T) / 2.0
        if k % 2:
            w = w if np.trace(w).real >= 0.0 else -w
            r, z0 = (r, z0) if np.vdot(z0, w).real >= 0.0 else (-r, -z0)
        # the shifted candidate of _dual_witness, as it is built without the skip
        floor = min(np.linalg.eigvalsh(z0)[0], np.linalg.eigvalsh(partial_transpose(z0, dims, 1))[0])
        z = z0 + (max(0.0, -floor) + WITNESS_MARGIN * np.linalg.norm(z0)) * np.eye(d)
        holds = witness_holds(w, dims, z)
        if np.vdot(z0, w).real >= 0.0 and np.trace(w).real >= 0.0:
            skipped += 1
            assert floor < 0.0 and not holds, k
        got = _dual_witness(w, r, dims)
        assert np.array_equal(got, z) if holds else got is None, k
        found += holds
    assert skipped >= 240 and found >= 40, (skipped, found)


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_early_stop_picks_the_first_restart_below(dims):
    refuted = 0
    for k, w in enumerate(seesaw_corpus(dims)):
        full = popt_minimize(w, dims, seed=k, restarts=8)
        if full.min_value >= -TOL:
            continue
        # a threshold the full minimum never crosses leaves the run as it was
        never = stopped_seesaw(w, dims, k, 8, 2.0 * full.min_value)
        assert never.min_value == full.min_value
        assert np.array_equal(never.witness_x, full.witness_x)
        assert np.array_equal(never.witness_y, full.witness_y)
        assert (never.best_restart, never.iterations, never.converged) == (
            full.best_restart, full.iterations, full.converged
        )
        # the second threshold sits just above the full minimum, so it is
        # crossed late, in some cases by a restart converging in that sweep
        for stop in (-TOL, full.min_value * (1.0 - 1e-12)):
            got = stopped_seesaw(w, dims, k, 8, stop)

            def capped(sweeps):
                return popt_minimize(w, dims, seed=k, restarts=8, max_iter=sweeps)

            # the restart picked is the lowest (ties to the lowest index)
            # after the first sweep whose minimum is below the threshold, and
            # it is returned as that sweep left it: run alone for that many
            first = 1 + bisect.bisect_left(
                range(1, 201), True, key=lambda s: capped(s).min_value < stop
            )
            assert got.best_restart == capped(first).best_restart
            want = list(serial_restarts(w, dims, k, got.best_restart, first))[-1]
            assert got.min_value == want.min_value < stop
            assert np.array_equal(got.witness_x, want.witness_x)
            assert np.array_equal(got.witness_y, want.witness_y)
            assert got.iterations == want.iterations == first
            assert got.converged == want.converged
            # a restart stopped before its fixed point lies above it, up to
            # the rounding an eigh value may rise by (−swap's ties show it)
            assert got.min_value >= full.min_value - SEESAW_ROUNDING * max(1.0, frobenius(w))
            value = state_eval(w, dims, got.witness_x, got.witness_y)
            assert value == pytest.approx(got.min_value, abs=1e-12 * max(1.0, abs(value)))
        refuted += 1
        if refuted == 10:
            break
    assert refuted == 10


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_first_block_refutes_before_the_other_restarts_are_swept(dims, monkeypatch):
    # a restart does not depend on its batch: when the first block's first
    # sweep is below the stop, is_popt picks that block's lowest restart, as
    # its own first sweep left it, and never sweeps the others; otherwise a
    # refuting restart is still a restart's state after some sweep, and
    # either way the status is the one a single batch of all restarts gives
    # on a qubit factor the vertex look refutes most of the corpus before any sweep; the
    # see-saw's pick is pinned on the rest
    picks = whole = looks = 0
    for k, w in enumerate(seesaw_corpus(dims)):
        stop = -TOL - SEESAW_ROUNDING * max(1.0, frobenius(w))
        first = [r.min_value for r in serial_restarts(w, dims, k, FIRST_BLOCK, 1)]
        with monkeypatch.context() as patch:
            patch.setattr(cones, "FIRST_BLOCK", 64)
            one_batch_status = is_popt(w, dims, seed=k).status
        verdict = is_popt(w, dims, seed=k)
        assert verdict.status == one_batch_status, k
        if "vertex" in verdict.info:
            looks += 1
            assert verdict.info["restarts_swept"] == 0 and 2 in dims, k
            assert verdict.min_value < stop and state_eval(w, dims, *verdict.witness) < -TOL, k
            continue
        if min(first) < stop:
            picks += 1
            assert verdict.info["best_restart"] == 1 + first.index(min(first)), k
            assert verdict.info["restarts_swept"] == FIRST_BLOCK, k
            want = list(serial_restarts(w, dims, k, verdict.info["best_restart"], 1))[-1]
        elif verdict.status == "refuted":
            whole += 1
            restart = verdict.info["best_restart"]
            states = (list(serial_restarts(w, dims, k, restart, n))[-1] for n in range(1, 201))
            want = next(r for r in states if r.min_value == verdict.min_value)
        else:
            continue
        assert verdict.min_value == want.min_value < -TOL, k
        assert np.array_equal(verdict.witness[0], want.witness_x)
        assert np.array_equal(verdict.witness[1], want.witness_y)
        assert state_eval(w, dims, *verdict.witness) < -TOL, k
    assert picks and whole, (picks, whole)
    assert looks if 2 in dims else not looks, looks


def eigh_stack_sizes(monkeypatch) -> list:
    """Record the size of every stack given to eigh: is_popt's (W, W^Gamma),
    then on a qubit factor the vertex look's 12, then two per sweep."""
    sizes = []

    def recorded(h):
        sizes.append(len(h))
        return _least_eigh(h)

    monkeypatch.setattr(cones, "_least_eigh", recorded)
    return sizes


def face_centre_operator(dims) -> np.ndarray:
    """0.95·1 − |xy><xy| with the qubit factor's vector at the centre of an
    icosahedron face (Alice's if both are qubits) and the other's the flat
    unit vector. Its product minimum is −0.05, at that pair, and every
    vertex value is 0.95 − cos²(18.69°) ≈ +0.053 or more, so the vertex look
    leaves it to the see-saw."""
    z = 1.0 / np.sqrt(5.0)
    corners = [(0.0, 0.0, 1.0), (2 * z, 0.0, z), (2 * z * np.cos(0.4 * np.pi), 2 * z * np.sin(0.4 * np.pi), z)]
    n = np.sum(corners, axis=0) / np.linalg.norm(np.sum(corners, axis=0))
    x = np.array([np.sqrt((1 + n[2]) / 2), np.exp(1j * np.arctan2(n[1], n[0])) * np.sqrt((1 - n[2]) / 2)])
    other = dims[1] if dims[0] == 2 else dims[0]
    y = np.ones(other) / np.sqrt(other)
    v = np.kron(x, y) if dims[0] == 2 else np.kron(y, x)
    return 0.95 * np.eye(len(v)) - np.outer(v, v.conj())


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_first_sweep_passes_the_other_restarts_only_without_a_refutation(dims, monkeypatch):
    sizes = eigh_stack_sizes(monkeypatch)
    d = dims[0] * dims[1]
    # every restart is at the product minimum (-1, or -0.05 on a qubit factor) after
    # one sweep: the lowest restart is picked and the see-saw ends
    look = [12] if 2 in dims else []
    w = face_centre_operator(dims) if look else np.diag([1.0] * (d - 1) + [-1.0])
    verdict = is_popt(w, dims, seed=1)
    assert verdict.status == "refuted" and verdict.info["restarts_swept"] == FIRST_BLOCK
    assert sizes == [2, *look, FIRST_BLOCK, FIRST_BLOCK], sizes
    sizes.clear()
    # the block sweeps alone to its end; unless membership certifies there,
    # the other restarts are swept after it, every block restart converged
    boundary = product_boundary_operator(np.random.default_rng(sum(dims)), dims)
    verdict = is_popt(boundary, dims, seed=1)
    assert verdict.status == "certified"
    swept = verdict.info["restarts_swept"]
    head = 1 + len(look)
    assert sizes[:head] == [2, *look], sizes
    alone = sizes.index(64 - FIRST_BLOCK) if swept == 64 else len(sizes)
    assert swept in (FIRST_BLOCK, 64) and alone > head + 2, sizes
    assert sizes[head:alone] == [FIRST_BLOCK] * (alone - head), sizes
    assert max(sizes[alone:], default=0) <= 64 - FIRST_BLOCK, sizes


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_a_value_within_rounding_of_the_stop_runs_on_as_popt_minimize(dims, monkeypatch):
    # every restart reaches -1e-7 in one sweep, below -tol but above
    # -tol - rounding (about -2e-6 at this norm): nothing is picked, so the
    # block runs to its end, the other restarts are swept after it, and the
    # run is popt_minimize's, still refuted; on a qubit factor the vertex look reads
    # the same -1e-7 first, which it leaves to the see-saw
    d = dims[0] * dims[1]
    w = np.diag([1e6] * (d - 1) + [-1e-7])
    assert -TOL - SEESAW_ROUNDING * frobenius(w) < -1e-7 < -TOL
    plain = popt_minimize(w, dims, seed=1)
    sizes = eigh_stack_sizes(monkeypatch)
    verdict = is_popt(w, dims, seed=1)
    assert verdict.status == "refuted"
    assert verdict.min_value == plain.min_value
    assert np.array_equal(verdict.witness[0], plain.witness_x)
    assert np.array_equal(verdict.witness[1], plain.witness_y)
    assert verdict.info["best_restart"] == plain.best_restart
    assert verdict.info["restarts_swept"] == 64
    look = [12] if 2 in dims else []
    assert sizes == [2, *look] + [FIRST_BLOCK] * 4 + [64 - FIRST_BLOCK] * 4, sizes


def membership_calls(monkeypatch) -> list:
    """Record the tol of every membership run is_popt starts: phase 3's at
    the first block's stall or end, and phase 5's."""
    calls = []

    def recorded(w, dims, tol, *args):
        calls.append(tol)
        return _membership(w, dims, tol, *args)

    monkeypatch.setattr(cones, "_membership", recorded)
    return calls


def test_a_first_block_miss_still_refutes(monkeypatch):
    # shifted so that popt_minimize's 64 restarts reach -0.02, these two of
    # 300 draws in 3x3 keep every first-block restart above -tol: the block
    # decides nothing, and the other restarts, swept after it, refute
    dims, d = (3, 3), 9
    rng = np.random.default_rng(5)
    draws = [random_hermitian(rng, d) for _ in range(300)]
    calls = membership_calls(monkeypatch)
    for k in (23, 94):
        w = draws[k] - (popt_minimize(draws[k], dims, seed=k).min_value + 0.02) * np.eye(d)
        assert popt_minimize(w, dims, seed=k, restarts=FIRST_BLOCK).min_value >= -TOL, k
        calls.clear()
        verdict = is_popt(w, dims, seed=k)
        assert verdict.status == "refuted", k
        assert verdict.info["restarts_swept"] == 64 and verdict.info["best_restart"] > FIRST_BLOCK, k
        assert state_eval(w, dims, *verdict.witness) < -TOL, k
        assert len(calls) <= 1, k


def entangled(rng, dims) -> np.ndarray:
    """A unit vector with flat Schmidt coefficients in Haar-random local bases."""
    c = np.zeros(dims, dtype=complex)
    c[np.arange(min(dims)), np.arange(min(dims))] = 1.0 / np.sqrt(min(dims))
    return (random_unitary(rng, dims[0]) @ c @ random_unitary(rng, dims[1]).T).ravel()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_a_decomposition_operator_is_certified_by_the_first_block(dims, monkeypatch):
    # P + Q^Gamma plus a quarter of -λ_min(Q^Gamma) on the identity lies
    # inside the cone; of those that are neither PSD nor PPT, membership
    # certifies at the first block's end, and the other restarts are never swept
    rng = np.random.default_rng(sum(dims))
    sizes = eigh_stack_sizes(monkeypatch)
    certified = 0
    for k in range(40):
        phi, chi = entangled(rng, dims), entangled(rng, dims)
        q = partial_transpose(np.outer(chi, chi.conj()), dims, 1)
        w = np.outer(phi, phi.conj()) + q - 0.25 * np.linalg.eigvalsh(q)[0] * np.eye(len(phi))
        if is_psd(w) or is_ppt(w, dims):
            continue
        certified += 1
        sizes.clear()
        verdict = is_popt(w, dims, seed=k)
        assert verdict.status == "certified" and verdict.info["branch"] == "decomposition", k
        assert verdict.info["restarts_swept"] == FIRST_BLOCK, k
        assert 64 - FIRST_BLOCK not in sizes, (k, sizes)
        assert split_holds(w, dims, verdict.certificate.p, verdict.certificate.q), k
    assert certified >= 10, certified


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_every_refutation_re_checks_below_tol_at_every_norm(dims):
    # the stop lies below -tol by the see-saw's rounding, so the witness,
    # evaluated again, is below -tol too
    refuted = 0
    for k, w0 in enumerate(seesaw_corpus(dims)):
        for scale in (1e-3, 1.0, 1e3, 1e5):
            w = scale * w0
            verdict = is_popt(w, dims, seed=k)
            if verdict.status != "refuted":
                continue
            refuted += 1
            assert state_eval(w, dims, *verdict.witness) < -TOL, (k, scale)
            assert verdict.min_value < -TOL - SEESAW_ROUNDING * max(1.0, frobenius(w)), (k, scale)
    assert refuted >= 100, refuted


@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_cone_solvers_refuse_a_tolerance_that_is_negative_or_not_finite(bad, monkeypatch):
    # a negative tol would refute a PSD operator, and nan would compare
    # false everywhere; the check comes before W is even read
    def unread(*args):
        raise AssertionError("the operator was read")

    monkeypatch.setattr(cones, "_admit", unread)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        is_popt(0.5 * np.eye(4), (2, 2), seed=1, tol=bad)
    with pytest.raises(ValueError, match="feas_tol must be a finite number >= 0"):
        is_popt(np.diag([1.0, 1.0, 1.0, -1.0]), (2, 2), seed=1, feas_tol=bad)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        decomposable_sum_membership(np.eye(4), (2, 2), tol=bad)


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_early_stop_refutation_survives_rescaling(dims):
    # tol is absolute, so a rescaled operator may cross it at another sweep
    refuted = 0
    for k, w in enumerate(seesaw_corpus(dims)[:16]):
        if is_popt(w, dims, seed=k, restarts=16).status != "refuted":
            continue
        refuted += 1
        for scale in (0.1, 10.0):
            verdict = is_popt(scale * w, dims, seed=k, restarts=16)
            assert verdict.status == "refuted", (k, scale)
            x, y = verdict.witness
            assert state_eval(scale * w, dims, x, y) == pytest.approx(verdict.min_value, abs=1e-10)
    assert refuted >= 8


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


@pytest.mark.parametrize("w", [np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
def test_is_popt_refuses_dims_that_do_not_match(w):
    # a PSD operator is refused too, not certified before its dims are read
    with pytest.raises(ValueError, match="does not match factor dims"):
        is_popt(w, (2, 3), seed=1)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_is_popt_reads_the_eigenvalues_of_is_psd_and_is_ppt(dims):
    # a tol of exactly minus is_psd's (is_ppt's) least eigenvalue decides the
    # psd (ppt) branch only if is_popt reads that eigenvalue bit for bit
    rng = np.random.default_rng(sum(dims))
    for _ in range(10):
        h = random_hermitian(rng, dims[0] * dims[1])
        for w in (h, partial_transpose(h, dims, 1)):
            lam, lam_gamma = is_psd(w).min_value, is_ppt(w, dims).min_value
            v = is_popt(w, dims, seed=1, tol=-lam)
            assert v.info["branch"] == "psd" and v.min_value == lam
            if lam_gamma > lam:
                assert is_popt(w, dims, seed=1, tol=-lam_gamma).info["branch"] == "ppt"


def test_is_popt_refuted_with_witness():
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    v = is_popt(w, (2, 2), seed=5)
    assert not bool(v) and v.status == "refuted"
    assert v.min_value == pytest.approx(-1.0)
    x, y = v.witness
    assert state_eval(w, (2, 2), x, y) == pytest.approx(v.min_value, abs=1e-12)
    # the south pole |1> is a vertex of the look, which refutes before any sweep
    assert v.info["vertex"] == 2 and v.info["restarts_swept"] == 0


def test_bloch_vertices_are_the_icosahedron():
    x, outer = cones._bloch_vertices()
    assert x.shape == (12, 2) and outer.shape == (12, 4)
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-15
    # |0> and |1> are the poles, exactly
    assert x[0].tolist() == [1.0, 0.0] and x[1].tolist() == [0.0, 1.0]
    # |<x_j|x_k>|² = (1 + cos of their Bloch angle)/2: antipodes, and cosines ∓1/√5
    overlaps = np.abs(x.conj() @ x.T) ** 2
    off = overlaps[~np.eye(12, dtype=bool)]
    want = np.array([0.0, (5 - np.sqrt(5)) / 10, (5 + np.sqrt(5)) / 10])
    nearest = np.abs(off[:, None] - want).argmin(axis=1)
    assert np.abs(off - want[nearest]).max() <= 1e-12
    assert np.bincount(nearest).tolist() == [12, 60, 60]
    assert np.array_equal(outer, (x.conj()[:, :, None] * x[:, None, :]).reshape(12, 4))
    for a in (x, outer):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2.0


def test_finer_vertex_levels_split_every_edge():
    # each level keeps the vertices before it and adds every edge's normalized midpoint
    previous = cones._bloch_vertices(0)[0]
    for level, count in ((1, 42), (2, 162), (3, 642)):
        x, outer = cones._bloch_vertices(level)
        assert x.shape == (count, 2) and outer.shape == (count, 4)
        assert not x.flags.writeable and not outer.flags.writeable
        assert np.array_equal(x[: len(previous)], previous)
        assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-15
        # distinct rays: no two vertices share a Bloch vector
        overlaps = np.abs(x.conj() @ x.T) ** 2
        assert overlaps[~np.eye(count, dtype=bool)].max() < 1.0 - 1e-3
        previous = x


def looped_vertex_values(w, dims) -> np.ndarray:
    """<x_k y|W|x_k y> minimized over y for each of the 12 vertices x_k on the
    qubit factor (Alice's if both are qubits), one einsum and eigvalsh each."""
    w4 = np.asarray(w).reshape(dims + dims)
    values = []
    for x in cones._bloch_vertices()[0]:
        if dims[0] == 2:
            contraction = np.einsum("ijkl,i,k->jl", w4, x.conj(), x)
        else:
            contraction = np.einsum("ijkl,j,l->ik", w4, x.conj(), x)
        values.append(np.linalg.eigvalsh(contraction)[0])
    return np.array(values)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_vertex_look_refutations_match_a_loop_over_the_vertices(dims):
    rng = np.random.default_rng(40 + 10 * dims[0] + dims[1])
    d = dims[0] * dims[1]
    looks = 0
    for k in range(30):
        h = random_hermitian(rng, d)
        w = h - (np.linalg.eigvalsh(h)[0] * rng.uniform(0.2, 1.0)) * np.eye(d) if k % 2 else h
        for scale in (1.0, 2.0**-40, 2.0**40):
            verdict = is_popt(scale * w, dims, seed=k)
            norm = frobenius(scale * w)
            stop = -TOL - SEESAW_ROUNDING * max(1.0, norm)
            values = looped_vertex_values(scale * w, dims)
            vertex = int(np.argmin(values))
            if values[vertex] < stop - 1e-12 * norm:
                assert "vertex" in verdict.info, (k, scale)
            if "vertex" not in verdict.info or verdict.info.get("level"):
                continue
            looks += 1
            assert verdict.status == "refuted" and verdict.info["restarts_swept"] == 0, (k, scale)
            assert verdict.info["vertex"] == vertex + 1, (k, scale)
            assert abs(verdict.min_value - values[vertex]) <= 1e-12 * norm, (k, scale)
            assert verdict.min_value < stop, (k, scale)
            qubit = 0 if dims[0] == 2 else 1
            assert np.array_equal(verdict.witness[qubit], cones._bloch_vertices()[0][vertex]), (k, scale)
            assert state_eval(scale * w, dims, *verdict.witness) < -TOL, (k, scale)
    assert looks >= 30, looks


def swap_factors(w, dims) -> np.ndarray:
    """W on dims with its two factors exchanged, an operator on dims reversed."""
    da, db = dims
    return np.asarray(w).reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


def test_vertex_look_reads_bobs_qubit_when_alice_has_none():
    # 1 - 2|a x_4><a x_4| is -1 at vertex 5 of Bob's qubit and above -0.45 at every
    # other vertex; with the factors exchanged the same vertex is Alice's
    rng = np.random.default_rng(32)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    x4 = cones._bloch_vertices()[0][4]
    v = np.kron(a, x4)
    w = np.eye(6) - 2.0 * np.outer(v, v.conj())
    for dims, op, qubit in (((3, 2), w, 1), ((2, 3), swap_factors(w, (3, 2)), 0)):
        verdict = is_popt(op, dims, seed=1)
        assert verdict.status == "refuted" and verdict.info == {"psd": False, "restarts_swept": 0, "vertex": 5}
        assert verdict.min_value == pytest.approx(-1.0, abs=1e-12)
        assert np.array_equal(verdict.witness[qubit], x4) and verdict.witness[qubit].flags.writeable
        assert abs(np.vdot(a, verdict.witness[1 - qubit])) == pytest.approx(1.0, abs=1e-12)
        assert state_eval(op, dims, *verdict.witness) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_the_face_centre_operator_is_left_to_the_see_saw(dims):
    # a face centre's Bloch vector meets the face's corners at cosine √((5 + 2√5)/15),
    # an overlap of (1 + that)/2 ≈ cos²(18.69°) ≈ 0.897
    w = face_centre_operator(dims)
    corner = (1 + np.sqrt((5 + 2 * np.sqrt(5)) / 15)) / 2
    assert looped_vertex_values(w, dims).min() == pytest.approx(0.95 - corner, abs=1e-12)
    verdict = is_popt(w, dims, seed=3)
    assert verdict.status == "refuted" and "vertex" not in verdict.info
    assert verdict.min_value == pytest.approx(-0.05, abs=1e-12)


@functools.lru_cache(maxsize=None)
def shifted_gaussian_corpus() -> dict:
    """600 operators by (k, dims): for k in 0-299, in 2x2 then 2x3, (G + G†)/2
    plus a uniform(0, 3) multiple of 1, G complex Gaussian, one default_rng(1)
    drawing them all in that order."""
    rng = np.random.default_rng(1)
    corpus = {}
    for k in range(300):
        for dims in ((2, 2), (2, 3)):
            n = dims[0] * dims[1]
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            corpus[k, dims] = (g + g.conj().T) / 2 + rng.uniform(0, 3) * np.eye(n)
    return corpus


# the corpus operators that membership refutes and whose see-saw, seeded k, stays above -tol
# at restarts 1 (and k = 116 at restarts 2): without a vertex they were answered likely
SEESAW_MISSES_AT_ONE_RESTART = [
    (11, (2, 2)), (18, (2, 2)), (49, (2, 3)), (63, (2, 2)), (83, (2, 2)), (116, (2, 3)), (225, (2, 3))
]


@pytest.mark.parametrize("restarts", [1, 2])
def test_no_likely_that_membership_and_a_vertex_disprove(restarts):
    # in 2x2 and 2x3 a PPT witness of non-membership is a mixture of product
    # states, so one of them is negative on W: the status must be refuted
    for k, dims in SEESAW_MISSES_AT_ONE_RESTART:
        w = shifted_gaussian_corpus()[k, dims]
        assert decomposable_sum_membership(w, dims).status == "refuted", k
        verdict = is_popt(w, dims, seed=k, restarts=restarts)
        assert verdict.status == "refuted", (k, restarts)
        assert state_eval(w, dims, *verdict.witness) < -TOL, (k, restarts)
    # this one is positive at every vertex of levels 1 and 2 and negative at level 3
    verdict = is_popt(shifted_gaussian_corpus()[18, (2, 2)], (2, 2), seed=18, restarts=1)
    assert verdict.info["level"] == 3 and verdict.min_value < -0.01


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_a_status_membership_refutes_does_not_depend_on_restarts_or_seed(dims):
    source = (2, 3) if dims == (3, 2) else dims
    keys = [key for key in SEESAW_MISSES_AT_ONE_RESTART if key[1] == source]
    keys += [(k, source) for k in range(20)]
    checked = 0
    for k, _ in keys:
        w = shifted_gaussian_corpus()[k, source]
        w = swap_factors(w, source) if dims == (3, 2) else w
        if decomposable_sum_membership(w, dims).status != "refuted":
            continue
        checked += 1
        for restarts in (1, 2, 8, 64):
            for seed in range(4):
                assert is_popt(w, dims, seed=seed, restarts=restarts).status == "refuted", (k, restarts, seed)
    assert checked >= 10, checked


@pytest.mark.parametrize("count", ["restarts", "max_iter", "membership_max_iter"])
@pytest.mark.parametrize("bad", [0, -1])
def test_is_popt_checks_its_counts_before_phase_1(count, bad, monkeypatch):
    # a PSD operator, certified in phase 1, and one the vertex look refutes, are refused alike
    for w in (np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])):
        with pytest.raises(ValueError, match=f"{count} must be at least 1"):
            is_popt(w, (2, 2), seed=1, **{count: bad})

    def unread(*args):
        raise AssertionError("the operator was read")

    monkeypatch.setattr(cones, "_admit", unread)
    with pytest.raises(ValueError, match=f"{count} must be at least 1"):
        is_popt(np.eye(4), (2, 2), seed=1, **{count: bad})


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_the_vertex_look_seeds_the_stall(dims, monkeypatch):
    # against the least vertex value the block's first sweep can stall, so
    # membership certifies these after one sweep, not two
    rng = np.random.default_rng(sum(dims))
    sizes = eigh_stack_sizes(monkeypatch)
    certified = 0
    for k in range(40):
        phi, chi = entangled(rng, dims), entangled(rng, dims)
        q = partial_transpose(np.outer(chi, chi.conj()), dims, 1)
        w = np.outer(phi, phi.conj()) + q - 0.25 * np.linalg.eigvalsh(q)[0] * np.eye(len(phi))
        if is_psd(w) or is_ppt(w, dims):
            continue
        sizes.clear()
        verdict = is_popt(w, dims, seed=k)
        assert verdict.info["branch"] == "decomposition", k
        assert sizes == [2, 12, FIRST_BLOCK, FIRST_BLOCK], (k, sizes)
        certified += 1
    assert certified >= 10, certified


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


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_is_popt_records_the_iterates_of_the_membership_verdict_it_used(dims):
    # phase 3's certificate comes from its run at the tight tol; phase 5's
    # certificate, and every likely, from the verdict at FEAS_TOL
    operators = list(seesaw_corpus(dims))
    operators += [product_boundary_operator(np.random.default_rng(s), dims) for s in range(4)]
    if dims == (2, 2):
        operators.append(boundary_member())
    seen = set()
    for k, w in enumerate(operators):
        for max_iter in (20000, 3):
            verdict = is_popt(w, dims, seed=k, membership_max_iter=max_iter)
            if verdict.status != "likely" and verdict.info.get("branch") != "decomposition":
                continue
            phase3 = verdict.status == "certified" and verdict.info["restarts_swept"] == FIRST_BLOCK
            tol = min(FEAS_TOL, TOL / frobenius(w)) if phase3 else FEAS_TOL
            want = decomposable_sum_membership(w, dims, tol=tol, max_iter=max_iter)
            assert verdict.info["membership_iterations"] == want.info["iterations"], (k, max_iter)
            seen.add((verdict.status, phase3))
    assert seen == {("certified", True), ("certified", False), ("likely", False)}, seen


def test_membership_psd_is_instant():
    rng = np.random.default_rng(77)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = g @ g.conj().T
    v = decomposable_sum_membership(w, (2, 2))
    assert v.status == "member"
    assert v.info["iterations"] == 1
    assert v.certificate.residual <= 1e-7


def test_membership_ppt_is_instant():
    # the partial transpose of a Bell projector plus a small PSD part is PPT
    # but not PSD: the split (0, W) is a member at the first iterate
    rng = np.random.default_rng(78)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    w = partial_transpose(np.outer(bell, bell) + 0.05 * random_psd(rng, 4, trace=1.0), (2, 2), 1)
    assert np.linalg.eigvalsh(w)[0] < 0.0 <= np.linalg.eigvalsh(partial_transpose(w, (2, 2), 1))[0]
    v = decomposable_sum_membership(w, (2, 2))
    assert v.status == "member"
    assert v.info["iterations"] == 1
    assert split_holds(w, (2, 2), v.certificate.p, v.certificate.q)


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
    w = product_boundary_operator(np.random.default_rng(10 + sum(dims)), dims)
    verdict = decomposable_sum_membership(scale * w, dims)
    assert verdict.status == "member"
    assert verdict.residual <= FEAS_TOL * frobenius(scale * w)
    _assert_cone_feasible(verdict.certificate, scale * w, dims)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_membership_and_popt_refute_at_the_extreme_scales(scale):
    # a plain norm of W under- or overflows here; any warning fails the test
    w = scale * np.diag([1.0, 1.0, 1.0, -1.0])
    verdict = decomposable_sum_membership(w, (2, 2))
    assert verdict.status == "refuted"
    assert verdict.residual >= (1.0 - 1e-9) * scale
    _assert_dual_witness(verdict.witness, w, (2, 2))
    if scale > 1.0:
        assert is_popt(w, (2, 2), seed=1).status == "refuted"


@pytest.mark.parametrize("k", [-300, -100, -1, 1, 100, 300])
def test_membership_at_a_power_of_two_is_the_same_run_scaled(k):
    # the run is made on the binary-scaled W, so 2^k·W repeats it exactly
    rng = np.random.default_rng(2026)
    statuses = set()
    for dims in [(2, 2), (2, 3)]:
        n = dims[0] * dims[1]
        for w in (
            random_hermitian(rng, n, trace=1.0),
            random_hermitian(rng, n, trace=4.0),
            random_psd(rng, n) + partial_transpose(random_psd(rng, n), dims, 1),
            product_boundary_operator(rng, dims),
            random_psd(rng, n, trace=0.5) - 0.2 * np.eye(n),
        ):
            base = decomposable_sum_membership(w, dims)
            scaled = decomposable_sum_membership(w * 2.0**k, dims)
            statuses.add(base.status)
            assert scaled.status == base.status
            assert scaled.info == base.info
            assert scaled.residual == base.residual * 2.0**k
            assert np.array_equal(scaled.certificate.p, base.certificate.p * 2.0**k)
            assert np.array_equal(scaled.certificate.q, base.certificate.q * 2.0**k)
            assert (scaled.witness is None) == (base.witness is None)
            if base.witness is not None:
                assert np.array_equal(scaled.witness, base.witness)
    assert statuses == {"member", "refuted"}


def membership_corpus(dims, kind, count=8):
    """Seeded W = P + Q^Gamma − c·1 with rank-one P and Q, redrawn until W is
    neither PSD nor PPT. interior: c = λ_min(Q^Gamma)/4 < 0, so W is inside
    the cone by a multiple of 1. boundary: c = 0."""
    rng = np.random.default_rng(90 + 10 * dims[0] + dims[1] + (kind == "boundary"))
    n = dims[0] * dims[1]
    while count:
        phi, chi = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        q_gamma = partial_transpose(np.outer(chi, chi.conj()), dims, 1)
        w = np.outer(phi, phi.conj()) + q_gamma
        if kind == "interior":
            w -= np.linalg.eigvalsh(q_gamma)[0] / 4 * np.eye(n)
        if max(np.linalg.eigvalsh(w)[0], np.linalg.eigvalsh(partial_transpose(w, dims, 1))[0]) < 0:
            count -= 1
            yield w


# median iterates on membership_corpus in 2x2, 2x3 and 3x3: interior 3, 2, 3 and boundary
# 16, 21, 21. Each ceiling is the median plus one
ITERATE_CEILINGS = {
    ((2, 2), "interior"): 4, ((2, 3), "interior"): 3, ((3, 3), "interior"): 4,
    ((2, 2), "boundary"): 17, ((2, 3), "boundary"): 22, ((3, 3), "boundary"): 22,
}


@pytest.mark.parametrize("kind", ["interior", "boundary"])
@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_membership_steps_most_of_the_way_to_the_boundary(dims, kind, monkeypatch):
    # a long step goes 0.9 of the way to the nearer cone's boundary and never
    # past it: every iterate keeps X1 = P + tI and X2 = Q^Gamma + tI positive
    # definite, and a run takes fewer iterates than damped steps would
    newton_step = cones._newton_step
    inverses = []

    def recorded(mu, s, gamma):
        inverses.append(s)
        return newton_step(mu, s, gamma)

    monkeypatch.setattr(cones, "_newton_step", recorded)
    iterations = []
    for w in membership_corpus(dims, kind):
        verdict = decomposable_sum_membership(w, dims)
        assert verdict.status == "member"
        assert split_holds(w, dims, verdict.certificate.p, verdict.certificate.q)
        iterations.append(verdict.info["iterations"])
        # at tol 0 the same run goes on past its member, so that iterate is stepped from too
        inverses.clear()
        decomposable_sum_membership(w, dims, tol=0.0, max_iter=iterations[-1] + 1)
        assert len(inverses) == iterations[-1]
        for s in inverses:  # X⁻¹ = V·diag(1/(λ + t))·V† of each block
            assert np.isfinite(s).all() and np.linalg.eigvalsh(s).min() > 0.0
    assert np.median(iterations) <= ITERATE_CEILINGS[dims, kind], iterations


@pytest.mark.parametrize("dims", SEESAW_DIMS)
def test_membership_at_tol_zero_stops_at_the_barrier_floor(dims):
    # no residual meets tol 0 on the cone's boundary, so each run ends when μ
    # falls below its floor, before max_iter, with its clipped pair at
    # membership's rounding of W and inside both cones
    operators = list(membership_corpus(dims, "boundary"))
    if dims == (2, 2):
        operators.append(boundary_member())
    for k, w in enumerate(operators):
        verdict = decomposable_sum_membership(w, dims, tol=0.0, max_iter=100)
        assert verdict.status == "inconclusive", k
        assert verdict.info["iterations"] < 100, k
        assert verdict.residual <= MEMBERSHIP_ROUNDING * frobenius(w), (k, verdict.residual)
        assert split_holds(w, dims, verdict.certificate.p, verdict.certificate.q), k


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


@functools.lru_cache(maxsize=None)
def member_splits(dims) -> tuple:
    """(W, P, Q) for every member certificate of a seeded corpus on dims: the
    see-saw corpus and ten operators on the product boundary."""
    rng = np.random.default_rng(60 + sum(dims))
    operators = [*seesaw_corpus(dims), *(product_boundary_operator(rng, dims) for _ in range(10))]
    verdicts = [(w, decomposable_sum_membership(w, dims)) for w in operators]
    return tuple((w, v.certificate.p, v.certificate.q) for w, v in verdicts if v.status == "member")


def rank_one_splits(n: int):
    """(C, C − H, H) for the extremality split H of rank-1 conjugations on n ⊗ n."""
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        a1 = random_rank(rng, n, 1)
        for norm in (1.5, 0.9, 0.5):
            a = a1 * (norm / frobenius(a1))
            h = extremality_probe(a).certificate
            c = choi_from_conjugation(a).choi
            yield c, c - h, h


def splits_at_the_bounds(dims):
    """(passes, (W, P, Q)) for splits just inside and just past each bound of
    split_holds: the least eigenvalue of P, that of Q^Gamma, and the
    residual, each against its bound times ‖W‖_F."""
    w, p, q = member_splits(dims)[-1]  # on the product boundary
    floor = MEMBERSHIP_ROUNDING * frobenius(w)
    one = np.eye(w.shape[0])  # its own partial transpose
    least_p = np.linalg.eigvalsh(p)[0]
    least_q = np.linalg.eigvalsh(partial_transpose(q, dims, 1))[0]
    # moving ε·1 from one part to the other keeps their sum
    for passes, below in ((True, 0.5 * floor), (False, 10.0 * floor)):
        yield passes, (w, p - (least_p + below) * one, q + (least_p + below) * one)
        yield passes, (w, p + (least_q + below) * one, q - (least_q + below) * one)
    psd = random_psd(np.random.default_rng(80 + sum(dims)), w.shape[0])
    zero = np.zeros_like(psd)
    yield True, (psd, psd, zero)  # a PSD W with Q = 0
    yield True, (psd, (1.0 + FEAS_TOL / 2) * psd, zero)
    yield False, (psd, (1.0 + 2 * FEAS_TOL) * psd, zero)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_split_holds_accepts_every_member_certificate(dims):
    splits = member_splits(dims)
    assert len(splits) >= 15  # the ten boundary operators among them
    for k, (w, p, q) in enumerate(splits):
        assert split_holds(w, dims, p, q), k


@pytest.mark.parametrize("n", [2, 3])
def test_split_holds_accepts_every_rank_one_extremality_split(n):
    for k, (c, p, q) in enumerate(rank_one_splits(n)):
        assert split_holds(c, (n, n), p, q), k


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_split_holds_rejects_each_failure(dims):
    for k, (passes, (w, p, q)) in enumerate(splits_at_the_bounds(dims)):
        assert split_holds(w, dims, p, q) == passes, k
    w, p, q = member_splits(dims)[0]
    with pytest.raises(ValueError, match="does not match"):
        split_holds(w, (3, 3), p, q)
    with pytest.raises(ValueError, match="does not match"):
        split_holds(w, dims, p[:-1, :-1], q)


@pytest.mark.parametrize("k", [-200, -60, 60, 200])
def test_split_and_witness_answers_do_not_move_at_a_power_of_two(k):
    # every quantity either check compares scales with W (and with Z)
    s = 2.0**k
    splits = [(dims, True, split) for dims in ((2, 2), (2, 3)) for split in member_splits(dims)]
    splits += [((n, n), True, split) for n in (2, 3) for split in rank_one_splits(n)]
    splits += [(dims, *case) for dims in ((2, 2), (2, 3)) for case in splits_at_the_bounds(dims)]
    for i, (dims, passes, (w, p, q)) in enumerate(splits):
        assert split_holds(s * w, dims, s * p, s * q) == passes, i
    dims = (2, 2)
    verdicts = [decomposable_sum_membership(w, dims) for w in seesaw_corpus(dims)]
    members = [w for w, p, q in member_splits(dims)]
    cases = [(v.witness, w) for w, v in zip(seesaw_corpus(dims), verdicts) if v.status == "refuted"]
    cases += [(z, w) for z, _ in cases[:5] for w in members[:5]]
    answers = [witness_holds(w, dims, z) for z, w in cases]
    assert True in answers and False in answers
    for i, ((z, w), holds) in enumerate(zip(cases, answers)):
        assert witness_holds(s * w, dims, z) == witness_holds(w, dims, s * z) == holds, i


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
