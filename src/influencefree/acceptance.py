"""Eleven numbered self-checks with fixed seeds.

Shared by tests/test_acceptance.py and the `influencefree selftest` subcommand.
Each criterion returns a CriterionResult instead of raising on a numerical
failure, so a caller always gets the full scoreboard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .choimaps import (
    LinearMapChoi,
    choi_from_conjugation,
    hk_representation,
    is_cp,
    kraus_residual,
    reconstruct_operator,
    state_eval,
    swap_operator,
    unnormalized_q,
)
from .cones import (
    decomposable_sum_membership,
    extremality_probe,
    is_popt,
    popt_minimize,
    split_holds,
    witness_holds,
)
from .coupling import (
    ProductState,
    backward_tests,
    bayes_residuals,
    forward_tests,
    is_influence_free,
    is_state_on_two_stage,
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
    weyl_basis,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


# Filled by @_criterion in definition order: the zero-argument runs, and the
# wall-clock budget in seconds per criterion number (the gate in
# tests/test_acceptance.py and the budget `selftest` reports).
CRITERIA = []
TIME_BUDGETS = {}


def _criterion(number: int, name: str, budget: float):
    """Register a check returning (problems, ok_text) as a timed criterion.

    The registered run passes when the check reports no problems; its detail
    is ok_text then, and the first problems otherwise.
    """

    def register(check):
        @wraps(check)
        def run() -> CriterionResult:
            start = time.perf_counter()
            problems, ok_text = check()
            detail = _detail(problems, ok_text)
            return CriterionResult(number, name, not problems, detail, time.perf_counter() - start)

        CRITERIA.append(run)
        TIME_BUDGETS[number] = budget
        return run

    return register


def _detail(problems: list[str], ok_text: str) -> str:
    if not problems:
        return ok_text
    shown = "; ".join(problems[:3])
    if len(problems) > 3:
        shown += f"; and {len(problems) - 3} more"
    return shown


@_criterion(1, "swap-dichotomy", budget=1.0)
def criterion_1():
    """Swap operator: not positive, partial transpose is Q, certified on products."""
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
    return problems, (
        f"min eig {lam:.6f}, see-saw floor {floor:.1e}, certified via partial transpose"
    )


@_criterion(2, "pivot-identities", budget=10.0)
def criterion_2():
    """Entangled projection on either side rescales the swapped-in operator."""
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
    return problems, (
        f"alpha(2)={common[2]:.12f}, alpha(3)={common[3]:.12f}, worst gap {worst_gap:.1e}"
    )


@_criterion(3, "general-pivot", budget=30.0)
def criterion_3():
    """Twisted projections hand Bob the operator conjugated by the chosen unitary."""
    problems = []
    worst = 0.0
    for n in (2, 3):
        rng = np.random.default_rng(300 + n)
        ws = [random_hermitian(rng, n * n, trace=1.0) for _ in range(5)]
        for k, v in enumerate(weyl_basis(n)):
            a, b = divmod(k, n)
            for w in ws:
                res = pivot_general(w, n, v)
                worst = max(worst, res.gap)
                if res.gap > 1e-9:
                    problems.append(f"n={n} weyl({a},{b}): relative gap {res.gap:.3e}")
    return problems, f"worst relative gap {worst:.1e} over the full phase-shift basis"


@_criterion(4, "corollary-witness", budget=1.0)
def criterion_4():
    """Product-effect value equals alpha * Tr(WB) and goes negative on the witness."""
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
    return problems, f"worst identity gap {worst:.1e}, witness value {wit_lhs:.6f}"


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


@_criterion(5, "two-stage-equivalence", budget=10.0)
def criterion_5():
    """Being a state on one-then-the-other tests matches marginal insensitivity."""
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
    return problems, f"{len(instances)} instances ({n_free} free), equivalence held on all"


@_criterion(6, "chk-kraus", budget=5.0)
def criterion_6():
    """Complete positivity, Choi positivity, and Kraus extraction agree."""
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
            hk_ok = kraus_residual(m, hk_representation(m)) <= 1e-10
        except ValueError:
            hk_ok = False
        if not (cp == psd == hk_ok):
            problems.append(f"map {k} ({din}->{dout}): cp={cp} choi-psd={psd} kraus={hk_ok}")
    return problems, "50 maps, three characterizations agreed on each"


@_criterion(7, "extremality-probe", budget=60.0)
def criterion_7():
    """Conjugation by a rank-1 operator splits off at every scale; higher rank stays rigid."""
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
                # C = (C − H) + H is itself a decomposable split
                if not split_holds(c, (n, n), c - h, h):
                    problems.append(f"{where}: certificate fails its split re-check")
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
    return problems, (
        "rank-1 split off at norms 0.5-1.5 with valid certificates, "
        "rank>=2 rigid with witnesses at -s1*s2"
    )


@_criterion(8, "seesaw-membership-agreement", budget=60.0)
def criterion_8():
    """On two qubits each operator is split or refuted with a checked
    certificate, and the see-saw agrees with every verdict."""
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
            if not split_holds(w, (2, 2), mem.certificate.p, mem.certificate.q):
                problems.append(f"k={k}: the member certificate fails its re-check")
            if floor < -2e-7:
                problems.append(f"k={k}: member with product value {floor:.3e}")
        elif mem.status == "refuted":
            if not witness_holds(w, (2, 2), mem.witness):
                problems.append(f"k={k}: the refutation witness fails its re-check")
            if floor >= -1e-9:
                problems.append(f"k={k}: refuted but the see-saw floor is {floor:.3e}")
        else:
            problems.append(f"k={k}: {mem.status} after {mem.info['iterations']} iterations")
    return problems, (
        f"{counts['member']} members, {counts['refuted']} refuted, both with checked "
        f"certificates, {counts['inconclusive']} inconclusive, no conflicts"
    )


@_criterion(9, "gleason-roundtrip", budget=5.0)
def criterion_9():
    """Product-vector values determine the operator; the overlap rule gives swap."""
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
    return problems, f"roundtrip gap {worst:.1e}, overlap rule gave swap within {swap_worst:.1e}"


@_criterion(10, "bayes-identities", budget=2.0)
def criterion_10():
    """Both sides' Bayes mixture identities hold on every influence-free table."""
    problems = []
    worst = 0.0
    count = 0
    for alice, bob, table, kind in _shared_instances():
        if kind != "free":
            continue
        count += 1
        worst = max(worst, *bayes_residuals(ProductState(alice, bob, table)))
    if count == 0:
        problems.append("no influence-free instances to check")
    if worst > 1e-12:
        problems.append(f"worst Bayes residual {worst:.3e} above 1e-12")
    return problems, f"{count} influence-free tables, worst residual {worst:.1e}"


@_criterion(11, "sandwich-lemma", budget=1.0)
def criterion_11():
    """Compressing a matrix unit between the pair projectors keeps only the diagonal."""
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
    return problems, f"all matrix units for n in (2, 3), worst gap {worst:.1e}"

