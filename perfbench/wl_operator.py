"""operator-algebra: teleport pivots and the witness demo, plus Choi-map algebra.

Dense n^4 x n^4 products in `teleport` dominate: one operator grows from
4 KiB at n = 2 to 27 MB at n = 6, past any L2 cache, so a contraction rewrite
moves both time and peak_rss_mb. Each cycle runs the same calls:

- pivot_alice, pivot_bob, pivot_general (random Weyl twist) and
  corollary_check on trace-one Hermitian w: two of each at n = 2 and 3,
  60 at n = 4, four at n = 5 and one at n = 6, plus 60 more corollary checks
  at n = 4;
- desideratum_violation_demo six times at n = 2, eight times at n = 3 and
  once at n = 4;
- compose_maps, transpose_in_basis and hk_representation twice each at
  d = 2, 3, 4; reconstruct_operator 1, 7 and 4 times at d = 2, 3, 4.
"""

from __future__ import annotations

import numpy as np

import refmath as R
from common import Digest, Op, Verdict

# A cycle sorts into four bands: 35 calls under 3 ms (n = 2, 3 and the maps),
# 313 calls of 7-16 ms (n = 4, n = 2 witness demos, d = 3 reconstructions),
# 28 calls of 35-210 ms (n = 5, n = 3 witness demos, d = 4 reconstructions)
# and 5 that take seconds. The median then sits in the middle of the second
# band and the 95th percentile in the middle of the third, never on the edge
# between two bands, and each is set by many calls spread over the cycle.
PIVOT_COUNTS = {2: 2, 3: 2, 4: 60, 5: 4, 6: 1}
EXTRA_COROLLARIES = {4: 60}
WITNESS_COUNTS = {2: 6, 3: 8, 4: 1}
RECONSTRUCT_COUNTS = {2: 1, 3: 7, 4: 4}
MAP_COUNT = 2
ORDER_SEED = 3


def _gap_ok(gap: float, scale: float) -> bool:
    return gap <= 1e-9 * max(1.0, scale)


def _pivot_op(F, side: str, w: np.ndarray, n: int) -> Op:
    fn = F.pivot_alice if side == "alice" else F.pivot_bob
    wn = R.fro(w)

    def run():
        rep = fn(w, n)
        return rep.alpha, rep.frobenius_gap

    def check(res) -> Verdict:
        alpha, gap = res
        out = Verdict()
        if not _gap_ok(gap, wn):
            out.fail(f"pivot_{side}: gap above 1e-9 max(1, ||w||)")
        if not abs(alpha - 1.0 / n**2) <= 1e-12:
            out.fail(f"pivot_{side}: alpha is not 1/n^2")
        return out

    return Op(f"pivot_{side}/n{n}", run, check)


def _general_op(F, w: np.ndarray, n: int, a: int, b: int) -> Op:
    v = R.weyl(n, a, b)
    left = np.kron(v.T, np.eye(n))
    expected = left @ w @ left.conj().T / n**2

    def run():
        res = F.pivot_general(w, n, v)
        return res.alpha, res.gap, np.asarray(res.bob_operator)

    def check(res) -> Verdict:
        alpha, gap, bob = res
        out = Verdict()
        if not gap <= 1e-9:
            out.fail("pivot_general: relative gap above 1e-9")
        if not abs(alpha - 1.0 / n**2) <= 1e-12:
            out.fail("pivot_general: alpha is not 1/n^2")
        if not _gap_ok(R.fro(bob - expected), R.fro(expected)):
            out.fail("pivot_general: Bob's operator is not alpha (v^T x 1) w (v^T x 1)^dag")
        return out

    return Op(f"pivot_general/n{n}", run, check)


def _corollary_op(F, w: np.ndarray, bm: np.ndarray, n: int) -> Op:
    expected = float(np.real(np.trace(w @ bm))) / n**2
    scale = R.fro(w) * R.fro(bm)

    def run():
        return F.corollary_check(w, bm, n)

    def check(res) -> Verdict:
        lhs, rhs = res
        out = Verdict()
        if not (_gap_ok(abs(lhs - expected), scale) and _gap_ok(abs(rhs - expected), scale)):
            out.fail("corollary: product-effect value is not Tr(wb)/n^2")
        return out

    return Op(f"corollary/n{n}", run, check)


def _witness_op(F, n: int) -> Op:
    def run():
        rep = F.desideratum_violation_demo(n)
        return (
            rep.negative_value, rep.popt_verdict.status,
            rep.psd_replacement_min, rep.product_replacement_min,
        )

    def check(res) -> Verdict:
        value, status, psd_min, product_min = res
        out = Verdict()
        # Tr[(T x A)(S/n embedded)] = Tr(S (1 - S) / 2) / n^3 = (1 - n) / (2 n^2)
        if not abs(value - (1 - n) / (2 * n**2)) <= 1e-9:
            out.fail("witness_demo: negative value is not (1 - n) / (2 n^2)")
        if status != "certified":
            out.fail("witness_demo: swap/n not certified positive on products")
        if not (psd_min >= -1e-10 and product_min >= -1e-10):
            out.fail("witness_demo: a replacement went negative")
        return out

    return Op(f"witness_demo/n{n}", run, check)


def _map_ops(F, rng, d: int, digest: Digest) -> list[Op]:
    ops = []
    cf, cg = R.hermitian_trace_one(rng, d * d), R.hermitian_trace_one(rng, d * d)
    u = R.unitary(rng, d)
    cp = R.psd(rng, d * d)
    digest.add(cf, cg, u, cp)

    composed = R.choi_of(lambda x: R.apply_choi(cf, d, d, R.apply_choi(cg, d, d, x)), d)

    def sigma(x):
        return u @ (u.conj().T @ x @ u).T @ u.conj().T

    in_basis = R.choi_of(lambda x: R.apply_choi(cf, d, d, sigma(x)), d)

    def compose_run():
        return np.asarray(F.compose_maps(F.LinearMapChoi(cf, d, d), F.LinearMapChoi(cg, d, d)).choi)

    def tib_run():
        return np.asarray(F.transpose_in_basis(F.LinearMapChoi(cf, d, d), u).choi)

    def hk_run():
        return [np.asarray(a) for a in F.hk_representation(F.LinearMapChoi(cp, d, d)).operators]

    def close_to(reference, what):
        def check(got) -> Verdict:
            out = Verdict()
            if not _gap_ok(R.fro(got - reference), R.fro(reference)):
                out.fail(f"{what}: Choi operator differs from the reference")
            return out
        return check

    def hk_check(ops_) -> Verdict:
        out = Verdict()
        rebuilt = sum((R.choi_conj(a) for a in ops_), np.zeros_like(cp))
        if not _gap_ok(R.fro(rebuilt - cp), R.fro(cp)):
            out.fail("hk_representation: Kraus operators do not rebuild the Choi operator")
        return out

    ops.append(Op(f"compose_maps/d{d}", compose_run, close_to(composed, "compose_maps")))
    ops.append(Op(f"transpose_in_basis/d{d}", tib_run, close_to(in_basis, "transpose_in_basis")))
    ops.append(Op(f"hk_representation/d{d}", hk_run, hk_check))
    return ops


def _reconstruct_op(F, w: np.ndarray, d: int) -> Op:
    def evaluate(x, y):
        v = np.kron(x, y)
        return float(np.real(v.conj() @ w @ v))

    def run():
        return np.asarray(F.reconstruct_operator(evaluate, d, d))

    def check(rec) -> Verdict:
        out = Verdict()
        if not R.fro(rec - w) <= 1e-8 * max(1.0, R.fro(w)):
            out.fail("reconstruct_operator: rebuilt operator differs")
        return out

    return Op(f"reconstruct_operator/d{d}", run, check)


def build(F, seed: int, n_cycles: int, digest: Digest) -> list[list[Op]]:
    cycles = []
    for k in range(n_cycles):
        rng = np.random.default_rng([seed, k, 3])
        ops: list[Op] = []
        for n, count in PIVOT_COUNTS.items():
            for _ in range(count):
                ws = [R.hermitian_trace_one(rng, n * n) for _ in range(4)]
                bm = R.psd(rng, n * n)
                a, b = (int(t) for t in rng.integers(0, n, size=2))
                digest.add(*ws, bm, a, b)
                ops.append(_pivot_op(F, "alice", ws[0], n))
                ops.append(_pivot_op(F, "bob", ws[1], n))
                ops.append(_general_op(F, ws[2], n, a, b))
                ops.append(_corollary_op(F, ws[3], bm, n))
        for n, count in EXTRA_COROLLARIES.items():
            for _ in range(count):
                w, bm = R.hermitian_trace_one(rng, n * n), R.psd(rng, n * n)
                digest.add(w, bm)
                ops.append(_corollary_op(F, w, bm, n))
        for n, count in WITNESS_COUNTS.items():
            ops.extend(_witness_op(F, n) for _ in range(count))
        for d in (2, 3, 4):
            for _ in range(MAP_COUNT):
                ops.extend(_map_ops(F, rng, d, digest))
        for d, count in RECONSTRUCT_COUNTS.items():
            for _ in range(count):
                w = R.hermitian_trace_one(rng, d * d)
                digest.add(w)
                ops.append(_reconstruct_op(F, w, d))
        # The largest calls go first, so every later call runs with the memory
        # allocator in the state it keeps from then on: n = 4 calls issued before
        # the first 27 MB operator was freed took 14 ms instead of 10. The rest
        # follow in one fixed shuffled order, the same for every seed.
        big = [op for op in ops if op.kind.endswith("/n6") or op.kind == "witness_demo/n4"]
        rest = [op for op in ops if op not in big]
        order = np.random.default_rng(ORDER_SEED).permutation(len(rest))
        cycles.append(big + [rest[i] for i in order])
    return cycles
