"""Eleven numbered self-checks with fixed seeds.

Shared by tests/test_acceptance.py and the `influencefree selftest` subcommand.
Each criterion returns a CriterionResult instead of raising on a numerical
failure, so a caller always gets the full scoreboard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .choimaps import (
    LinearMapChoi,
    choi_from_conjugation,
    hk_representation,
    is_cp,
    reconstruct_operator,
    state_eval,
    swap_operator,
    unnormalized_q,
)
from .cones import (
    FEAS_TOL,
    decomposable_sum_membership,
    extremality_probe,
    is_popt,
    popt_minimize,
)
from .coupling import (
    ProductState,
    backward_tests,
    bayes_mixture_check,
    forward_tests,
    is_influence_free,
    is_state_on_two_stage,
    marginal,
    operational_bayes_check,
)
from .linalg import frobenius, kron, min_eig, partial_transpose
from .sampling import (
    product_state_table,
    random_hermitian,
    random_psd,
    random_rank,
    random_test_space,
    signalling_table,
)
from .teleport import (
    antisymmetric_projector,
    bell_projector,
    corollary_check,
    embed_with_entangled_pair,
    pivot_alice,
    pivot_bob,
    pivot_general,
    sandwich_lemma_check,
    weyl_operator,
)


# Wall-clock budget in seconds per criterion number: the gate in
# tests/test_acceptance.py and the budget `selftest` reports.
TIME_BUDGETS = {
    1: 1.0,
    2: 10.0,
    3: 30.0,
    4: 1.0,
    5: 10.0,
    6: 5.0,
    7: 60.0,
    8: 60.0,
    9: 5.0,
    10: 2.0,
    11: 1.0,
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(number: int, name: str, start: float, passed, detail: str) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - start)


def _detail(problems: list[str], ok_text: str) -> str:
    if not problems:
        return ok_text
    shown = "; ".join(problems[:3])
    if len(problems) > 3:
        shown += f"; and {len(problems) - 3} more"
    return shown


def criterion_1() -> CriterionResult:
    """Swap operator: not positive, partial transpose is Q, certified on products."""
    start = time.perf_counter()
    problems = []
    s = swap_operator(2)
    lam, _ = min_eig(s)
    if abs(lam + 1.0) > 1e-9:
        problems.append(f"min eigenvalue {lam:.3e} is not -1")
    gamma_gap = frobenius(partial_transpose(s, (2, 2), 1) - unnormalized_q(2))
    if gamma_gap > 1e-12:
        problems.append(f"partial transpose misses Q by {gamma_gap:.3e}")
    floor = popt_minimize(s, (2, 2), seed=101, restarts=16).min_value
    if floor < -1e-9:
        problems.append(f"see-saw found a negative product value {floor:.3e}")
    verdict = is_popt(s, (2, 2), seed=101, restarts=16)
    if not (verdict.status == "certified" and verdict.info.get("branch") == "ppt"):
        problems.append(
            f"expected a ppt certificate, got {verdict.status}/{verdict.info.get('branch')}"
        )
    if verdict.info.get("psd") is not False:
        problems.append("psd flag should be False for the swap operator")
    detail = _detail(
        problems,
        f"min eig {lam:.6f}, see-saw floor {floor:.1e}, certified via partial transpose",
    )
    return _result(1, "swap-dichotomy", start, not problems, detail)


def criterion_2() -> CriterionResult:
    """Entangled projection on either side rescales the swapped-in operator."""
    start = time.perf_counter()
    problems = []
    common = {}
    worst_gap = 0.0
    for n in (2, 3):
        rng = np.random.default_rng(200 + n)
        proj = kron(bell_projector(n), np.eye(n * n))
        alphas = []
        for _ in range(20):
            w = random_hermitian(rng, n * n, trace=1.0)
            bound = 1e-9 * max(1.0, frobenius(w))
            rep_a = pivot_alice(w, n)
            rep_b = pivot_bob(w, n)
            for rep in (rep_a, rep_b):
                worst_gap = max(worst_gap, rep.frobenius_gap)
                if rep.frobenius_gap > bound:
                    problems.append(f"n={n}: gap {rep.frobenius_gap:.3e} above {bound:.1e}")
                alphas.append(rep.alpha)
            alpha_def = float(np.real(np.trace(proj @ embed_with_entangled_pair(w, n))))
            if abs(rep_a.alpha - alpha_def) > 1e-12:
                problems.append(f"n={n}: alpha drifted from its defining trace")
        spread = max(alphas) - min(alphas)
        if spread > 1e-10:
            problems.append(f"n={n}: alpha spread {spread:.3e} across draws")
        common[n] = alphas[0]
    detail = _detail(
        problems,
        f"alpha(2)={common[2]:.12f}, alpha(3)={common[3]:.12f}, worst gap {worst_gap:.1e}",
    )
    return _result(2, "pivot-identities", start, not problems, detail)


def criterion_3() -> CriterionResult:
    """Twisted projections hand Bob the operator conjugated by the chosen unitary."""
    start = time.perf_counter()
    problems = []
    worst = 0.0
    for n in (2, 3):
        rng = np.random.default_rng(300 + n)
        ws = [random_hermitian(rng, n * n, trace=1.0) for _ in range(5)]
        for a in range(n):
            for b in range(n):
                v = weyl_operator(n, a, b)
                for w in ws:
                    res = pivot_general(w, n, v)
                    worst = max(worst, res.gap)
                    if res.gap > 1e-9:
                        problems.append(f"n={n} weyl({a},{b}): relative gap {res.gap:.3e}")
    detail = _detail(problems, f"worst relative gap {worst:.1e} over the full phase-shift basis")
    return _result(3, "general-pivot", start, not problems, detail)


def criterion_4() -> CriterionResult:
    """Product-effect value equals alpha * Tr(WB) and goes negative on the witness."""
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        w = random_hermitian(rng, 4, trace=1.0)
        b = random_psd(rng, 4)
        lhs, rhs = corollary_check(w, b, 2)
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-10:
        problems.append(f"identity gap {worst:.3e} above 1e-10")
    wit_lhs, wit_rhs = corollary_check(swap_operator(2) / 2.0, antisymmetric_projector(2), 2)
    if not wit_lhs < -1e-6:
        problems.append(f"witness value {wit_lhs:.3e} is not negative")
    if abs(wit_lhs - wit_rhs) > 1e-12:
        problems.append("witness value disagrees with alpha * Tr(WB)")
    detail = _detail(problems, f"worst identity gap {worst:.1e}, witness value {wit_lhs:.6f}")
    return _result(4, "corollary-witness", start, not problems, detail)


@lru_cache(maxsize=1)
def _shared_instances():
    """500 coupled tables, half influence-free mixtures, half signalling."""
    rng = np.random.default_rng(505)
    free, sig = [], []
    attempts = 0
    while (len(free) < 250 or len(sig) < 250) and attempts < 60000:
        attempts += 1
        alice = random_test_space(rng, "a")
        bob = random_test_space(rng, "b")
        want_free = len(sig) >= 250 or (len(free) <= len(sig) and len(free) < 250)
        if want_free:
            table = product_state_table(rng, alice, bob)
            if table is not None:
                free.append((alice, bob, table, "free"))
        else:
            table = signalling_table(rng, alice, bob)
            if table is not None:
                sig.append((alice, bob, table, "signalling"))
    return tuple(free + sig)


def criterion_5() -> CriterionResult:
    """Being a state on one-then-the-other tests matches marginal insensitivity."""
    start = time.perf_counter()
    problems = []
    instances = _shared_instances()
    if len(instances) < 500:
        problems.append(f"generators produced only {len(instances)} instances")
    mismatches = 0
    n_free = 0
    for alice, bob, table, kind in instances:
        omega = ProductState(alice, bob, table)
        fwd = forward_tests(alice, bob)
        bwd = backward_tests(alice, bob)
        verdict = is_influence_free(omega, tol=1e-10)
        fstate = is_state_on_two_stage(omega, fwd, tol=1e-10)
        bstate = is_state_on_two_stage(omega, bwd, tol=1e-10)
        no_b2a = verdict.bob_to_alice.max_deviation <= 1e-10
        no_a2b = verdict.alice_to_bob.max_deviation <= 1e-10
        if fstate != no_b2a or bstate != no_a2b or (fstate and bstate) != verdict.free:
            mismatches += 1
        if kind == "free":
            n_free += 1
            if not verdict.free:
                problems.append("a mixture-of-products table came out influenced")
        elif verdict.free:
            problems.append("a signalling table came out influence-free")
    if mismatches:
        problems.append(f"{mismatches} instances broke the two-stage equivalence")
    detail = _detail(
        problems,
        f"{len(instances)} instances ({n_free} free), equivalence held on all",
    )
    return _result(5, "two-stage-equivalence", start, not problems, detail)


def criterion_6() -> CriterionResult:
    """Complete positivity, Choi positivity, and Kraus extraction agree."""
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(606)
    for k in range(50):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        if k % 2 == 0:
            choi = random_psd(rng, din * dout)
        else:
            choi = random_hermitian(rng, din * dout)
        m = LinearMapChoi(choi, din, dout)
        cp = bool(is_cp(m))
        psd = bool(np.linalg.eigvalsh(m.choi).min() >= -1e-9)
        try:
            ks = hk_representation(m)
            rebuilt = sum(choi_from_conjugation(a).choi for a in ks.operators)
            hk_ok = bool(frobenius(rebuilt - m.choi) <= 1e-10)
        except ValueError:
            hk_ok = False
        if not (cp == psd == hk_ok):
            problems.append(f"map {k} ({din}->{dout}): cp={cp} choi-psd={psd} kraus={hk_ok}")
    detail = _detail(problems, "50 maps, three characterizations agreed on each")
    return _result(6, "chk-kraus", start, not problems, detail)


def criterion_7() -> CriterionResult:
    """Conjugation by a rank-1 operator splits off at every scale; higher rank stays rigid."""
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(707)
    for n in (2, 3):
        for _ in range(5):
            a1 = random_rank(rng, n, 1)
            for norm in (1.5, 0.9, 0.5):
                a = a1 * (norm / frobenius(a1))
                verdict = extremality_probe(a)
                where = f"rank-1 n={n} norm={norm}"
                if verdict.status != "decomposable_nontrivially":
                    problems.append(f"{where}: probe said {verdict.status}")
                    continue
                h = verdict.certificate
                c = choi_from_conjugation(a).choi
                if np.linalg.eigvalsh(partial_transpose(h, (n, n), 0)).min() < -2e-7:
                    problems.append(f"{where}: certificate transpose not positive")
                if np.linalg.eigvalsh(c - h).min() < -2e-7:
                    problems.append(f"{where}: certificate exceeds the Choi operator")
                if abs(np.trace(h).real - min(1.0, norm**2 / 2)) > 1e-6:
                    problems.append(f"{where}: certificate trace {np.trace(h).real:.6f}")
                if frobenius(h) < 1e-3 or frobenius(c - h) < 1e-3:
                    problems.append(f"{where}: certificate is trivial")
        for _ in range(5):
            rank = int(rng.integers(2, n + 1))
            a2 = random_rank(rng, n, rank)
            verdict = extremality_probe(a2)
            if verdict.status != "rigid":
                problems.append(f"rank-{rank} n={n}: probe said {verdict.status}")
                continue
            # the witness must be negative on C^Gamma, by the margin sigma1*sigma2
            u = verdict.witness
            c_gamma = partial_transpose(choi_from_conjugation(a2).choi, (n, n), 1)
            value = float(np.real(u.conj() @ c_gamma @ u))
            sv = np.linalg.svd(a2, compute_uv=False)
            if not value < 0.0:
                problems.append(f"rank-{rank} n={n}: witness value {value:.2e} is not negative")
            if abs(value + sv[0] * sv[1]) > 1e-9 * sv[0] ** 2:
                problems.append(
                    f"rank-{rank} n={n}: witness value {value:.6f}, -s1*s2 {-sv[0] * sv[1]:.6f}"
                )
            if abs(verdict.residual - sv[0] * sv[1] / np.sum(sv**2)) > 1e-9:
                problems.append(f"rank-{rank} n={n}: margin {verdict.residual:.6f}")
    detail = _detail(
        problems,
        "rank-1 split off at norms 0.5-1.5 with valid certificates, "
        "rank>=2 rigid with witnesses at -s1*s2",
    )
    return _result(7, "extremality-probe", start, not problems, detail)


def _split_holds(w, cert) -> bool:
    """P and Q^Gamma are PSD and P + Q is W within FEAS_TOL, recomputed."""
    q_gamma = partial_transpose(cert.q, (2, 2), 1)
    return bool(
        np.linalg.eigvalsh(cert.p).min() >= -1e-10
        and np.linalg.eigvalsh(q_gamma).min() >= -1e-10
        and frobenius(w - cert.p - cert.q) <= FEAS_TOL
    )


def _witness_holds(w, z) -> bool:
    """Z and Z^Gamma are PSD and Tr(ZW) < 0, recomputed: Z separates W from
    PSD + PSD^Gamma."""
    return bool(
        np.linalg.eigvalsh(z).min() >= 0.0
        and np.linalg.eigvalsh(partial_transpose(z, (2, 2), 1)).min() >= 0.0
        and np.trace(z @ w).real < 0.0
    )


def criterion_8() -> CriterionResult:
    """On two qubits each operator is split or refuted with a checked
    certificate, and the see-saw agrees with every verdict."""
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(808)
    center = np.eye(4) / 4.0
    counts = {"member": 0, "refuted": 0, "inconclusive": 0}
    for k in range(200):
        w0 = random_hermitian(rng, 4, trace=1.0)
        scale = float(rng.uniform(0.05, 1.0))
        w = center + scale * (w0 - center)
        floor = popt_minimize(w, (2, 2), seed=8000 + k, restarts=32).min_value
        mem = decomposable_sum_membership(w, (2, 2), max_iter=2000)
        counts[mem.status] += 1
        if mem.status == "member":
            if not _split_holds(w, mem.certificate):
                problems.append(f"k={k}: the member certificate fails its re-check")
            if floor < -2e-7:
                problems.append(f"k={k}: member with product value {floor:.3e}")
        elif mem.status == "refuted":
            if not _witness_holds(w, mem.witness):
                problems.append(f"k={k}: the refutation witness fails its re-check")
            if floor >= -1e-9:
                problems.append(f"k={k}: refuted but the see-saw floor is {floor:.3e}")
        else:
            problems.append(f"k={k}: {mem.status} after {mem.info['iterations']} iterations")
    detail = _detail(
        problems,
        f"{counts['member']} members, {counts['refuted']} refuted, both with checked "
        f"certificates, {counts['inconclusive']} inconclusive, no conflicts",
    )
    return _result(8, "seesaw-membership-agreement", start, not problems, detail)


def criterion_9() -> CriterionResult:
    """Product-vector values determine the operator; the overlap rule gives swap."""
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(909)
    worst = 0.0
    for d in (2, 3):
        for _ in range(10):
            w = random_hermitian(rng, d * d, trace=1.0)
            rec = reconstruct_operator(lambda x, y: state_eval(w, (d, d), x, y), d, d)
            worst = max(worst, frobenius(w - rec))
    if worst > 1e-8:
        problems.append(f"roundtrip gap {worst:.3e} above 1e-8")
    swap_worst = 0.0
    for d in (2, 3):
        rec = reconstruct_operator(lambda x, y: float(abs(np.vdot(x, y)) ** 2), d, d)
        swap_worst = max(swap_worst, frobenius(rec - swap_operator(d)))
    if swap_worst > 1e-8:
        problems.append(f"overlap-squared rule missed swap by {swap_worst:.3e}")
    detail = _detail(
        problems, f"roundtrip gap {worst:.1e}, overlap rule gave swap within {swap_worst:.1e}"
    )
    return _result(9, "gleason-roundtrip", start, not problems, detail)


def criterion_10() -> CriterionResult:
    """Mixture and symmetric Bayes identities hold on every influence-free table."""
    start = time.perf_counter()
    problems = []
    worst = 0.0
    count = 0
    for alice, bob, table, kind in _shared_instances():
        if kind != "free":
            continue
        count += 1
        omega = ProductState(alice, bob, table)
        for i in range(len(alice.tests)):
            worst = max(worst, bayes_mixture_check(omega, i))
        flipped = ProductState(bob, alice, {(y, x): v for (x, y), v in table.items()})
        for i in range(len(bob.tests)):
            worst = max(worst, bayes_mixture_check(flipped, i))
        wa = marginal(omega, "alice", 0)
        wb = marginal(omega, "bob", 0)
        for x in alice.outcomes:
            for y in bob.outcomes:
                if wa[x] > 1e-9 and wb[y] > 1e-9:
                    worst = max(worst, operational_bayes_check(omega, x, y))
    if count == 0:
        problems.append("no influence-free instances to check")
    if worst > 1e-12:
        problems.append(f"worst Bayes residual {worst:.3e} above 1e-12")
    detail = _detail(problems, f"{count} influence-free tables, worst residual {worst:.1e}")
    return _result(10, "bayes-identities", start, not problems, detail)


def criterion_11() -> CriterionResult:
    """Compressing a matrix unit between the pair projectors keeps only the diagonal."""
    start = time.perf_counter()
    problems = []
    worst = 0.0
    for n in (2, 3):
        q = unnormalized_q(n)
        zero = np.zeros_like(q)
        for x in range(n):
            for y in range(n):
                for u in range(n):
                    for v in range(n):
                        got = sandwich_lemma_check(n, x, y, u, v)
                        expected = q if (x == u and y == v) else zero
                        gap = frobenius(got - expected)
                        worst = max(worst, gap)
                        if gap > 1e-12:
                            problems.append(f"n={n} unit ({x},{y},{u},{v}): gap {gap:.3e}")
    detail = _detail(problems, f"all matrix units for n in (2, 3), worst gap {worst:.1e}")
    return _result(11, "sandwich-lemma", start, not problems, detail)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(progress=None) -> list[CriterionResult]:
    """Run every criterion in order, optionally logging one line each to a stream."""
    results = []
    for fn in CRITERIA:
        res = fn()
        if progress is not None:
            tag = "PASS" if res.passed else "FAIL"
            print(
                f"criterion {res.number:2d} {tag} {res.name} "
                f"({res.elapsed:.2f}s): {res.detail}",
                file=progress,
                flush=True,
            )
        results.append(res)
    return results
