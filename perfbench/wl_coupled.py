"""coupled-tables: influence, two-stage enumeration, conditioning and Bayes.

Pure-Python dict work in `coupling` and `testspace`, with no `linalg` at all.
Cheap verdicts sit beside expensive enumeration, so a change that speeds one
and slows the other shows.

Thirteen fixed pairs of test-space shapes (4-16 outcomes and 1-5 tests a side,
disjoint and chained tests) span two-stage enumerations from about 10 to
about 4 400 tests. Each shape carries one influence-free table (a mixture of
three products of strictly positive states) and one signalling table (that
mixture plus a perturbation that moves one side's marginal with the other
side's test choice by 1e-6 up to about 0.1, log-uniformly). The seed changes the numbers, never the
shapes or which entries are perturbed, so every cycle does the same work.

Per table: build both TestSpaces and the ProductState and ask
is_influence_free; enumerate forward, backward and fns tests and ask
is_state_on_two_stage on each; condition (refused exactly when the table is
influenced); and, on influence-free tables, both Bayes checks.
"""

from __future__ import annotations

import numpy as np

from common import Digest, Op, Verdict

# (alice shape, bob shape, signalling directions); a shape is
# (structure, test sizes) with chained tests sharing one outcome in sequence
CATALOGUE = (
    (("disjoint", (2, 2)), ("disjoint", (2, 2)), ("b2a",)),
    (("chain", (3, 3, 3)), ("disjoint", (3, 3)), ("a2b",)),
    (("disjoint", (4, 4)), ("chain", (3, 3, 3)), ("b2a",)),
    (("chain", (4, 4, 4, 4)), ("disjoint", (2, 2, 2)), ("b2a",)),
    (("disjoint", (5, 5)), ("chain", (4, 4, 4)), ("a2b",)),
    (("disjoint", (4, 4, 4)), ("disjoint", (3, 3, 3, 3)), ("b2a",)),
    (("chain", (5, 5, 5)), ("disjoint", (2, 2, 2, 2)), ("b2a",)),
    (("disjoint", (6, 6)), ("chain", (3, 3, 3)), ("a2b",)),
    (("disjoint", (4,)), ("chain", (3, 3, 3, 3, 3)), ("b2a",)),
    (("chain", (3, 3, 3, 3, 3)), ("disjoint", (4, 4, 4)), ("a2b",)),
    (("disjoint", (8, 8)), ("disjoint", (3, 3)), ("b2a", "a2b")),
    (("disjoint", (7, 7)), ("chain", (4, 4, 4)), ("b2a",)),
    (("disjoint", (5, 5, 5)), ("chain", (3, 3, 3, 3)), ("b2a",)),
)
# The two shapes with 3 072 forward tests and the one with 4 374 give the six
# slowest operations of a cycle, so the 95th percentile falls inside that
# block rather than on the edge below it.


def side_tests(shape) -> list[list[int]]:
    """Tests as lists of outcome indices."""
    structure, sizes = shape
    tests, nxt = [], 0
    for i, size in enumerate(sizes):
        if structure == "chain" and i > 0:
            t = [tests[-1][-1]] + list(range(nxt, nxt + size - 1))
            nxt += size - 1
        else:
            t = list(range(nxt, nxt + size))
            nxt += size
        tests.append(t)
    return tests


def n_outcomes(tests) -> int:
    return 1 + max(max(t) for t in tests)


def positive_state(rng: np.random.Generator, tests) -> np.ndarray:
    """Strictly positive state: every test sums to 1 (chains share one outcome)."""
    m = n_outcomes(tests)
    f = np.zeros(m)
    owners: dict[int, list[int]] = {}
    for i, t in enumerate(tests):
        for x in t:
            owners.setdefault(x, []).append(i)
    for x, who in owners.items():
        if len(who) > 1:
            f[x] = rng.uniform(0.05, 0.45)
    for t in tests:
        private = [x for x in t if len(owners[x]) == 1]
        rest = 1.0 - sum(f[x] for x in t if len(owners[x]) > 1)
        f[private] = rest * rng.dirichlet(np.full(len(private), 2.0))
    return f


def private_outcomes(tests, i) -> list[int]:
    others = {x for j, t in enumerate(tests) if j != i for x in t}
    return [x for x in tests[i] if x not in others]


def signalling_perturbation(rng, table, recv_tests, send_tests):
    """delta(x, y) = u(x) v(y): u sums to 0 on every receiving test, and v sums
    to 1 on the sender's first test and 0 on its second, so every product
    test still sums to 1 while the receiver's marginal follows the sender's
    test choice. Rows index the receiving side."""
    x1, x2 = private_outcomes(recv_tests, 0)[:2]
    y1 = [y for y in send_tests[0] if y not in send_tests[1]][0]
    # from 1e-6 up to 0.9 of the entry it is taken from, log-uniformly
    eps = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.9 * table[x2, y1]))))
    delta = np.zeros_like(table)
    delta[x1, y1], delta[x2, y1] = eps, -eps
    return delta, eps


def influence(table, a_tests, b_tests) -> tuple[float, float]:
    """(bob->alice, alice->bob) worst marginal deviation, recomputed."""
    ma = np.stack([table[:, f].sum(axis=1) for f in b_tests], axis=1)
    mb = np.stack([table[e, :].sum(axis=0) for e in a_tests], axis=1)
    return float(np.ptp(ma, axis=1).max()), float(np.ptp(mb, axis=1).max())


def make_table(rng, a_tests, b_tests, directions):
    weights = rng.dirichlet(np.full(3, 2.0))
    table = sum(
        p * np.outer(positive_state(rng, a_tests), positive_state(rng, b_tests))
        for p in weights
    )
    for d in directions:
        if d == "b2a":
            delta, eps = signalling_perturbation(rng, table, a_tests, b_tests)
            table = table + delta
        else:
            delta, eps = signalling_perturbation(rng, table.T, b_tests, a_tests)
            table = table + delta.T
        if eps < 1e-6:
            raise ValueError("signalling perturbation below 1e-6")
    return table


def _instance_ops(F, a_tests, b_tests, table, directions, on: int, side: str) -> list[Op]:
    a_labels = [f"a{i}" for i in range(n_outcomes(a_tests))]
    b_labels = [f"b{j}" for j in range(n_outcomes(b_tests))]
    a_spec = [[a_labels[i] for i in t] for t in a_tests]
    b_spec = [[b_labels[j] for j in t] for t in b_tests]
    pairs = {
        (x, y): float(table[i, j])
        for i, x in enumerate(a_labels)
        for j, y in enumerate(b_labels)
    }
    free = not directions
    b2a, a2b = influence(table, a_tests, b_tests)
    if (b2a > 1e-12) != ("b2a" in directions) or (a2b > 1e-12) != ("a2b" in directions):
        raise ValueError("table does not have the intended influence")
    shape = f"{len(a_labels)}x{len(b_labels)}"
    held: dict = {}

    def verdict_run():
        alice = F.TestSpace(a_labels, a_spec)
        bob = F.TestSpace(b_labels, b_spec)
        omega = F.ProductState(alice, bob, pairs)
        held.update(alice=alice, bob=bob, omega=omega)
        return F.is_influence_free(omega).free

    def verdict_check(res) -> Verdict:
        out = Verdict()
        if res != free:
            out.fail("influence: verdict contradicts how the table was generated")
        return out

    n_cart = len(a_tests) * len(b_tests)
    n_fwd = sum(len(b_tests) ** len(e) for e in a_tests)
    n_bwd = sum(len(a_tests) ** len(f) for f in b_tests)

    def two_stage_run():
        alice, bob, omega = held["alice"], held["bob"], held["omega"]
        fwd = F.forward_tests(alice, bob)
        bwd = F.backward_tests(alice, bob)
        fns = F.fns_tests(alice, bob)
        return (
            len(fwd), len(bwd), len(fns),
            F.is_state_on_two_stage(omega, fwd),
            F.is_state_on_two_stage(omega, bwd),
            F.is_state_on_two_stage(omega, fns),
        )

    def two_stage_check(res) -> Verdict:
        out = Verdict()
        nf, nb, nn, sf, sb, sn = res
        # tests within a side are pairwise incomparable here, so forward and
        # backward tests coincide exactly on the Cartesian ones
        if (nf, nb, nn) != (n_fwd, n_bwd, n_fwd + n_bwd - n_cart):
            out.fail("two-stage: enumeration count wrong")
        if (sf, sb, sn) != ("b2a" not in directions, "a2b" not in directions, free):
            out.fail("two-stage: state verdict contradicts the table's influence")
        return out

    def condition_run():
        try:
            return F.condition(held["omega"], on=(a_labels if side == "alice" else b_labels)[on], side=side)
        except ValueError:
            return None

    def condition_check(res) -> Verdict:
        out = Verdict()
        if res is None:
            if free:
                out.fail("condition: refused an influence-free table")
            return out
        if not free:
            out.fail("condition: conditioned an influenced table")
            return out
        if side == "alice":
            row = table[on, :]
            expect = row / row[b_tests[0]].sum()
            got = np.array([res[y] for y in b_labels])
        else:
            col = table[:, on]
            expect = col / col[a_tests[0]].sum()
            got = np.array([res[x] for x in a_labels])
        if np.abs(got - expect).max() > 1e-12:
            out.fail("condition: conditional state wrong")
        return out

    def bayes_run():
        alice, bob, omega = held["alice"], held["bob"], held["omega"]
        worst = max(F.bayes_mixture_check(omega, i) for i in range(len(a_tests)))
        flipped = F.ProductState(bob, alice, {(y, x): v for (x, y), v in pairs.items()})
        worst = max(worst, max(F.bayes_mixture_check(flipped, i) for i in range(len(b_tests))))
        for x in a_labels:
            for y in b_labels:
                worst = max(worst, F.operational_bayes_check(omega, x, y))
        return worst

    def bayes_check(res) -> Verdict:
        out = Verdict()
        if not res <= 1e-12:
            out.fail("bayes: residual above 1e-12 on an influence-free table")
        return out

    tag = "free" if free else "signalling"
    ops = [
        Op(f"influence/{tag}/{shape}", verdict_run, verdict_check),
        Op(f"two-stage/{tag}/{n_fwd}+{n_bwd}", two_stage_run, two_stage_check),
        Op(f"condition/{tag}/{shape}", condition_run, condition_check),
    ]
    if free:
        ops.append(Op(f"bayes/{tag}/{shape}", bayes_run, bayes_check))
    return ops


def build(F, seed: int, n_cycles: int, digest: Digest) -> list[list[Op]]:
    cycles = []
    for k in range(n_cycles):
        rng = np.random.default_rng([seed, k, 2])
        ops: list[Op] = []
        for i, (a_shape, b_shape, directions) in enumerate(CATALOGUE):
            a_tests, b_tests = side_tests(a_shape), side_tests(b_shape)
            for dirs in ((), directions):
                table = make_table(rng, a_tests, b_tests, dirs)
                side = "alice" if i % 2 == 0 else "bob"
                on = int(rng.integers(n_outcomes(a_tests if side == "alice" else b_tests)))
                digest.add(table, dirs, side, on)
                ops.extend(_instance_ops(F, a_tests, b_tests, table, dirs, on, side))
        cycles.append(ops)
    return cycles
