"""Coupled test spaces: products, influence, conditioning, Bayes residuals."""

import math
from itertools import chain
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from influencefree import acceptance
from influencefree.coupling import (
    DirectionReport,
    InfluenceVerdict,
    ProductState,
    TwoStageTest,
    TwoStageTests,
    backward_tests,
    bayes_mixture_check,
    bayes_residuals,
    condition,
    fns_tests,
    forward_tests,
    is_influence_free,
    is_state_on_two_stage,
    marginal,
    operational_bayes_check,
)
from influencefree.linalg import CapExceededError
from influencefree.sampling import product_state_table, random_test_space, signalling_table
from influencefree.testspace import TestSpace, _vertices


def pr_box():
    """Uniform-marginal box: outputs of test i on one side and j on the other
    anti-correlate exactly when i = j = 1."""
    alice = TestSpace(
        ["a00", "a01", "a10", "a11"], [("a00", "a01"), ("a10", "a11")]
    )
    bob = TestSpace(
        ["b00", "b01", "b10", "b11"], [("b00", "b01"), ("b10", "b11")]
    )
    table = {}
    for i in range(2):
        for a in range(2):
            for j in range(2):
                for b in range(2):
                    hit = (a ^ b) == (i & j)
                    table[(f"a{i}{a}", f"b{j}{b}")] = 0.5 if hit else 0.0
    return ProductState(alice, bob, table)


FNS_ALICE = TestSpace(["x1", "x2"], [("x1", "x2")])
FNS_BOB = TestSpace(["y1", "y2", "y3"], [("y1", "y2"), ("y1", "y3")])


def test_product_state_validates_table():
    alice = TestSpace(["p", "q"], [("p", "q")])
    bob = TestSpace(["r", "s"], [("r", "s")])
    good = {("p", "r"): 0.5, ("p", "s"): 0.0, ("q", "r"): 0.25, ("q", "s"): 0.25}
    omega = ProductState(alice, bob, good)
    assert omega("p", "r") == 0.5
    assert np.array_equal(omega.values, [[0.5, 0.0], [0.25, 0.25]])
    assert not omega.values.flags.writeable
    assert not hasattr(omega, "table")
    with pytest.raises(ValueError):
        ProductState(alice, bob, {("p", "r"): 1.0})
    bad_sum = {**good, ("q", "s"): 0.35}
    with pytest.raises(ValueError):
        ProductState(alice, bob, bad_sum)
    negative = {**good, ("p", "s"): -0.2, ("q", "s"): 0.45}
    with pytest.raises(ValueError):
        ProductState(alice, bob, negative)
    # a value at a pair outside X x Y is refused, not dropped
    with pytest.raises(ValueError, match=r"outside X x Y \[\('p', 'zz'\)\]"):
        ProductState(alice, bob, {**good, ("p", "zz"): 5.0})


def test_product_state_rejects_nan_table_value():
    alice = TestSpace(["p", "q"], [("p", "q")])
    bob = TestSpace(["r", "s"], [("r", "s")])
    table = {("p", "r"): np.nan, ("p", "s"): 0.5, ("q", "r"): 0.25, ("q", "s"): 0.25}
    with pytest.raises(ValueError, match="outside"):
        ProductState(alice, bob, table)


def test_two_stage_enumeration_counts_and_dedup():
    fwd = forward_tests(FNS_ALICE, FNS_BOB)
    bwd = backward_tests(FNS_ALICE, FNS_BOB)
    fns = fns_tests(FNS_ALICE, FNS_BOB)
    # one Alice test, two response choices per outcome
    assert len(fwd) == 4
    # two Bob tests, a single Alice response
    assert len(bwd) == 2
    # both backward tests coincide with constant-assignment forward tests
    assert len(fns) == 4
    assert all(t.direction == "forward" for t in fns)
    pair_sets = {t.outcome_pairs() for t in fns}
    assert len(pair_sets) == 4


def test_two_stage_test_validation():
    with pytest.raises(ValueError):
        TwoStageTest("sideways", ("x1",), (("x1", ("y1",)),))
    with pytest.raises(ValueError):
        TwoStageTest("forward", ("x1", "x2"), (("x1", ("y1",)),))
    with pytest.raises(ValueError):
        TwoStageTest("forward", ("x1",), (("x1", ("y1",)), ("x2", ("y2",))))
    t = TwoStageTest("backward", ("y1", "y2"), (("y1", ("x1",)), ("y2", ("x2",))))
    assert t.outcome_pairs() == frozenset({("x1", "y1"), ("x2", "y2")})
    # enumeration builds its tests without the check: each passes it anyway
    # and equals the test built by hand from the same fields
    for e in chain(forward_tests(FNS_ALICE, FNS_BOB), backward_tests(FNS_ALICE, FNS_BOB)):
        assert TwoStageTest(e.direction, e.first, e.assignment) == e


@pytest.mark.parametrize("enumerate_tests", [forward_tests, backward_tests, fns_tests])
def test_enumerators_refuse_a_multiplicity_above_one(enumerate_tests):
    multiset = TestSpace(["u", "v"], [(("u", 2), ("v", 1))])
    for a, b in ((multiset, FNS_BOB), (FNS_ALICE, multiset), (multiset, multiset)):
        with pytest.raises(ValueError, match="coupled test spaces need set tests, not multisets"):
            enumerate_tests(a, b)
    # multiplicity 1 written as a pair is a set test
    ones = TestSpace(["x1", "x2"], [(("x1", 1), ("x2", 1))])
    assert len(enumerate_tests(ones, FNS_BOB)) == len(enumerate_tests(FNS_ALICE, FNS_BOB))


def test_product_state_weights_a_multiset_side():
    # Alice's test counts u twice: 2·w(u, y) + w(v, y) must sum to 1 per Bob test
    alice = TestSpace(["u", "v"], [(("u", 2), "v")])
    bob = TestSpace(["r", "s"], [("r", "s")])
    good = {("u", "r"): 0.125, ("u", "s"): 0.125, ("v", "r"): 0.25, ("v", "s"): 0.25}
    omega = ProductState(alice, bob, good)
    assert is_influence_free(omega).free
    assert marginal(omega, "bob", 0) == {"r": 0.5, "s": 0.5}
    set_alice = TestSpace(["u", "v"], [("u", "v")])
    with pytest.raises(ValueError, match="sums to 0.75"):
        ProductState(set_alice, bob, good)
    with pytest.raises(ValueError, match="sums to 1.25"):
        ProductState(alice, bob, {**good, ("v", "r"): 0.5})


def test_enumeration_cap():
    big_bob = TestSpace(
        [f"y{i}" for i in range(6)],
        [(f"y{i}", f"y{(i + 1) % 6}") for i in range(6)],
    )
    with pytest.raises(CapExceededError) as exc:
        forward_tests(FNS_ALICE, big_bob, cap=10)
    assert exc.value.required > 10


def test_enumeration_caps_each_direction():
    # six Alice tests of two outcomes against one Bob test of two: forward
    # needs 6 * 1**2 tests, backward 6**2
    big_alice = TestSpace(
        [f"x{i}" for i in range(6)],
        [(f"x{i}", f"x{(i + 1) % 6}") for i in range(6)],
    )
    bob = TestSpace(["y1", "y2"], [("y1", "y2")])
    assert len(forward_tests(big_alice, bob, cap=10)) == 6
    for enumerate_tests in (backward_tests, fns_tests):
        with pytest.raises(CapExceededError) as exc:
            enumerate_tests(big_alice, bob, cap=10)
        assert exc.value.required == 36
    assert len(fns_tests(big_alice, bob, cap=36)) == 6 + 36 - 6


def test_pr_box_is_influence_free_with_uniform_marginals():
    omega = pr_box()
    verdict = is_influence_free(omega)
    assert verdict.free
    assert verdict.max_deviation <= 1e-15
    for j in range(2):
        wa = marginal(omega, "alice", j)
        assert all(v == pytest.approx(0.5) for v in wa.values())
    fwd = forward_tests(omega.alice, omega.bob)
    bwd = backward_tests(omega.alice, omega.bob)
    assert is_state_on_two_stage(omega, fwd)
    assert is_state_on_two_stage(omega, bwd)


def test_pr_box_conditionals_are_point_masses():
    omega = pr_box()
    cond = condition(omega, "a00", side="alice")
    assert cond["b00"] == pytest.approx(1.0)
    assert cond["b01"] == pytest.approx(0.0)
    # conditioning on Bob's output 1 of his second test: Alice's second test
    # must anti-correlate, her first must agree
    cond_b = condition(omega, "b11", side="bob")
    assert cond_b["a10"] == pytest.approx(1.0)
    assert cond_b["a11"] == pytest.approx(0.0)
    assert cond_b["a01"] == pytest.approx(1.0)


def signalling_box():
    """Bob's marginal depends on which test Alice performs."""
    alice = TestSpace(["a1", "a2", "a3"], [("a1", "a2"), ("a1", "a3")])
    bob = TestSpace(["b1", "b2"], [("b1", "b2")])
    table = {
        ("a1", "b1"): 0.5, ("a1", "b2"): 0.1,
        ("a2", "b1"): 0.2, ("a2", "b2"): 0.2,
        ("a3", "b1"): 0.0, ("a3", "b2"): 0.4,
    }
    return ProductState(alice, bob, table)


def three_test_box():
    """Bob's marginal on b1 is 0.5, 0.4 and 0.8 under Alice's tests 0, 1 and 2.

    The worst gap from the marginal under test 0 is 0.3; from test 1 or 2 it
    is 0.4, so a Bayes residual tells which test the marginal is summed over.
    """
    alice = TestSpace(
        ["a1", "a2", "a3", "a4", "a5", "a6"], [("a1", "a2"), ("a3", "a4"), ("a5", "a6")]
    )
    bob = TestSpace(["b1", "b2"], [("b1", "b2")])
    table = {}
    for (x1, x2), b1 in zip(alice.tests, (0.5, 0.4, 0.8)):
        for x in (x1, x2):
            table[(x, "b1")], table[(x, "b2")] = b1 / 2, (1 - b1) / 2
    return ProductState(alice, bob, table)


def test_signalling_detected_with_direction():
    omega = signalling_box()
    verdict = is_influence_free(omega)
    assert not verdict.free
    # Bob's b1 mass moves 0.7 -> 0.5 as Alice switches tests
    assert verdict.alice_to_bob.max_deviation == pytest.approx(0.2)
    assert verdict.bob_to_alice.max_deviation == 0.0
    assert verdict.direction == "alice->bob"
    assert verdict.alice_to_bob.outcome in ("b1", "b2")

    fwd = forward_tests(omega.alice, omega.bob)
    bwd = backward_tests(omega.alice, omega.bob)
    # Alice's marginal ignores Bob, so every forward test still sums to one
    assert is_state_on_two_stage(omega, fwd)
    assert not is_state_on_two_stage(omega, bwd)


def test_condition_refuses_influenced_and_null_outcomes():
    omega = signalling_box()
    with pytest.raises(ValueError, match="alice->bob"):
        condition(omega, "b1", side="bob")
    # the table is influenced, yet a bad argument is named first
    with pytest.raises(ValueError, match="^side must be 'alice' or 'bob', got 'carol'$"):
        condition(omega, "a1", side="carol")
    with pytest.raises(ValueError, match="^unknown outcome 'a1'$"):
        condition(omega, "a1", side="bob")
    # conditioning on a zero-probability outcome is refused
    alice = TestSpace(["p", "q"], [("p", "q")])
    bob = TestSpace(["r", "s"], [("r", "s")])
    omega0 = ProductState(
        alice, bob,
        {("p", "r"): 1.0, ("p", "s"): 0.0, ("q", "r"): 0.0, ("q", "s"): 0.0},
    )
    with pytest.raises(ValueError):
        condition(omega0, "q", side="alice")


def test_marginal_semantics():
    omega = signalling_box()
    # Alice's marginal at Bob's only test
    wa = marginal(omega, "alice", 0)
    assert wa["a1"] == pytest.approx(0.6)
    # Bob's marginal depends on the Alice test chosen
    wb0 = marginal(omega, "bob", 0)
    wb1 = marginal(omega, "bob", 1)
    assert wb0["b1"] == pytest.approx(0.7)
    assert wb1["b1"] == pytest.approx(0.5)
    # a test is named by its incidence row index only
    assert marginal(omega, "bob", 0)["b2"] == pytest.approx(0.3)
    for test in (("a1", "a2"), 2, -1):
        with pytest.raises(ValueError):
            marginal(omega, "bob", test)
    with pytest.raises(ValueError, match="incidence row index"):
        bayes_mixture_check(omega, ("a1", "a2"))


def test_a_test_index_is_any_integer_but_not_a_bool():
    omega = signalling_box()
    for i in (1, np.int64(1), np.intp(1), np.uint8(1)):
        assert marginal(omega, "bob", i) == marginal(omega, "bob", 1)
        assert bayes_mixture_check(omega, i) == bayes_mixture_check(omega, 1)
    for test in (True, False, np.True_, 1.0, np.float64(0.0)):
        with pytest.raises(ValueError, match="incidence row index"):
            marginal(omega, "bob", test)
        with pytest.raises(ValueError, match="incidence row index"):
            bayes_mixture_check(omega, test)
    with pytest.raises(ValueError, match="out of range"):
        marginal(omega, "alice", np.int64(1))


def test_bayes_residuals_vanish_on_pr_box():
    omega = pr_box()
    for i in range(2):
        assert bayes_mixture_check(omega, i) <= 1e-15
    assert operational_bayes_check(omega, "a00", "b00") <= 1e-15
    # zero joint mass is fine; a zero marginal is the refusal
    alice = TestSpace(["p", "q"], [("p", "q")])
    bob = TestSpace(["r", "s"], [("r", "s")])
    omega0 = ProductState(
        alice, bob,
        {("p", "r"): 1.0, ("p", "s"): 0.0, ("q", "r"): 0.0, ("q", "s"): 0.0},
    )
    with pytest.raises(ValueError):
        operational_bayes_check(omega0, "q", "r")


def test_marginals_are_computed_once_and_read_only():
    omega = three_test_box()
    wa, wb = omega.marginals
    assert omega.marginals is omega.marginals
    assert not wa.flags.writeable and not wb.flags.writeable
    assert wa.tolist() == list(marginal(omega, "alice", 0).values())
    assert wb.tolist() == list(marginal(omega, "bob", 0).values())
    # the per-pair check is plain float arithmetic on one cell and the two marginals
    v, a, b = omega("a3", "b1"), wa[2], wb[0]
    got = operational_bayes_check(omega, "a3", "b1")
    assert type(got) is float and got == abs(v / a * a - v / b * b)


def loop_bayes_residuals(omega, tol):
    """The two Bayes mixture residuals as explicit loops over each side's tests."""
    table = {(x, y): omega(x, y) for x in omega.alice.outcomes for y in omega.bob.outcomes}
    flipped = ProductState(omega.bob, omega.alice, {(y, x): v for (x, y), v in table.items()})
    mixture_alice = max(bayes_mixture_check(omega, i, tol) for i in range(len(omega.alice.tests)))
    mixture_bob = max(bayes_mixture_check(flipped, i, tol) for i in range(len(omega.bob.tests)))
    return mixture_alice, mixture_bob


def label_bayes_residuals(alice, bob, table, tol):
    """The two Bayes mixture residuals by their formula, from the label table alone.

    Each side's marginal sums table[(x, y)] over the other side's test 0. The
    mixture residual of a side is the worst |sum_a w(a)·(cell(a, y) / w(a)) -
    w'(y)| over its tests and the other side's outcomes y, with a running over
    the test's outcomes of marginal above tol.
    """
    wa = {x: sum(table[(x, y)] for y in bob.tests[0]) for x in alice.outcomes}
    wb = {y: sum(table[(x, y)] for x in alice.tests[0]) for y in bob.outcomes}

    def mixture(tests, w, others, w_other, cell):
        return max(
            abs(sum(w[a] * (cell(a, y) / w[a]) for a in test if w[a] > tol) - w_other[y])
            for test in tests
            for y in others
        )

    mixture_alice = mixture(alice.tests, wa, bob.outcomes, wb, lambda x, y: table[(x, y)])
    mixture_bob = mixture(bob.tests, wb, alice.outcomes, wa, lambda y, x: table[(x, y)])
    return mixture_alice, mixture_bob


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_bayes_residuals_match_the_loops(tol):
    rng = np.random.default_rng(210)
    alice, bob = random_test_space(rng, "a"), random_test_space(rng, "b")
    table = None
    while table is None:
        table = signalling_table(rng, alice, bob)
    # a point mass: outcomes of zero marginal on both sides are skipped
    point = ProductState(
        TestSpace(["p", "q"], [("p", "q")]),
        TestSpace(["r", "s"], [("r", "s")]),
        {("p", "r"): 1.0, ("p", "s"): 0.0, ("q", "r"): 0.0, ("q", "s"): 0.0},
    )
    boxes = (pr_box(), signalling_box(), three_test_box())
    for omega in (*boxes, ProductState(alice, bob, table), point):
        got = bayes_residuals(omega, tol)
        assert got == loop_bayes_residuals(omega, tol)
        labels = {(x, y): omega(x, y) for x in omega.alice.outcomes for y in omega.bob.outcomes}
        want = label_bayes_residuals(omega.alice, omega.bob, labels, tol)
        assert got == pytest.approx(want, abs=1e-15)
    assert max(bayes_residuals(pr_box())) <= 1e-15
    assert max(bayes_residuals(signalling_box())) > 1e-3
    assert bayes_residuals(three_test_box())[0] == pytest.approx(0.3, abs=1e-15)


def test_worst_direction_takes_bob_to_alice_on_a_tie():
    small = DirectionReport(0.1, "a1", (0, 1))
    large = DirectionReport(0.3, "b2", (0, 1))
    tied = DirectionReport(0.3, "a2", (1, 2))
    assert InfluenceVerdict(False, small, large, 0.3).worst is large
    assert InfluenceVerdict(False, large, small, 0.3).worst is large
    verdict = InfluenceVerdict(False, tied, large, 0.3)
    assert verdict.worst is tied and verdict.direction == "bob->alice"
    assert InfluenceVerdict(False, small, large, 0.3).direction == "alice->bob"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_product_mixture_tables_are_influence_free(seed):
    rng = np.random.default_rng(seed)
    alice = random_test_space(rng, "a", max_outcomes=4, max_tests=2, max_test_size=2)
    bob = random_test_space(rng, "b", max_outcomes=4, max_tests=2, max_test_size=2)
    table = product_state_table(rng, alice, bob)
    if table is None:
        return
    omega = ProductState(alice, bob, table)
    verdict = is_influence_free(omega, tol=1e-10)
    assert verdict.free


def brute_direction(outcomes, other_tests, cell):
    """Worst |marginal under test i - under test j| by scanning label pairs.

    Returns every (gap, outcome, (i, j)) candidate in scan order and the
    first one with the largest gap (strictly larger replaces).
    """
    candidates, best = [], (0.0, None, None)
    for x in outcomes:
        sums = [sum(cell(x, y) for y in f) for f in other_tests]
        for i in range(len(sums)):
            for j in range(i + 1, len(sums)):
                candidates.append((abs(sums[i] - sums[j]), x, (i, j)))
                if candidates[-1][0] > best[0]:
                    best = candidates[-1]
    return candidates, best


def assert_matches_brute_force(report, candidates, best):
    assert report.max_deviation == pytest.approx(best[0], rel=0, abs=1e-12)
    # "no witness" is one more candidate, at gap 0: when every gap is within
    # 1e-12 of 0 it ties with the largest, like any other rounding-level tie
    gap = {(x, ij): g for g, x, ij in candidates}
    gap[(None, None)] = 0.0
    # the reported witness attains the maximum up to rounding, and is the
    # brute-force witness whenever no other candidate comes that close
    assert gap[(report.outcome, report.tests)] >= best[0] - 1e-12
    if sum(g >= best[0] - 1e-12 for g in gap.values()) == 1:
        assert (report.outcome, report.tests) == best[1:]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
# influence-free tables whose every marginal gap is at rounding level (on
# 1469 and 25716 exactly 0); on 1498, 63, 3193 and 799 the library and the
# label scan disagree on whether the largest gap is exactly 0, in each
# direction and each way round
@example(1035, True)
@example(1469, True)
@example(1498, True)
@example(25716, True)
@example(63, True)
@example(3193, True)
@example(799, True)
def test_array_verdicts_match_label_brute_force(seed, free):
    rng = np.random.default_rng(seed)
    alice = random_test_space(rng, "a", max_outcomes=5, max_tests=3, max_test_size=3)
    bob = random_test_space(rng, "b", max_outcomes=5, max_tests=3, max_test_size=3)
    table = (product_state_table if free else signalling_table)(rng, alice, bob)
    if table is None:
        return
    omega = ProductState(alice, bob, table)
    verdict = is_influence_free(omega)
    to_alice = brute_direction(alice.outcomes, bob.tests, lambda x, y: table[(x, y)])
    to_bob = brute_direction(bob.outcomes, alice.tests, lambda y, x: table[(x, y)])
    assert_matches_brute_force(verdict.bob_to_alice, *to_alice)
    assert_matches_brute_force(verdict.alice_to_bob, *to_bob)

    fwd, bwd = forward_tests(alice, bob), backward_tests(alice, bob)
    fns = fns_tests(alice, bob)
    pair_sets = [t.outcome_pairs() for t in chain(fwd, bwd)]
    assert len(fns) == len(set(pair_sets))
    for tests in (fwd, bwd, fns):
        sums = [sum(table[p] for p in t.outcome_pairs()) for t in tests]
        expected = all(abs(s - 1.0) <= 1e-10 for s in sums)
        assert is_state_on_two_stage(omega, tests) == expected


def test_influence_witness_tie_break():
    """Exact ties pick the first outcome, then the lexicographically first (i, j)."""
    alice = TestSpace(["a1", "a2"], [("a1", "a2")])
    bob = TestSpace(
        ["b1", "b2", "b3", "b4", "b5", "b6"], [("b1", "b2"), ("b3", "b4"), ("b5", "b6")]
    )
    # Alice's marginal at a1 is 1/4, 3/4, 1/4 under Bob's tests (at a2: 3/4, 1/4, 3/4),
    # so the gap 1/2 occurs at (0, 1) and (1, 2) for both outcomes
    rows = {"a1": [0.25, 0.0, 0.5, 0.25, 0.25, 0.0], "a2": [0.5, 0.25, 0.25, 0.0, 0.25, 0.5]}
    table = {(x, y): v for x, row in rows.items() for y, v in zip(bob.outcomes, row)}
    verdict = is_influence_free(ProductState(alice, bob, table))
    assert verdict.bob_to_alice == DirectionReport(0.5, "a1", (0, 1))
    assert verdict.alice_to_bob == DirectionReport(0.0, None, None)
    flipped = ProductState(bob, alice, {(y, x): v for (x, y), v in table.items()})
    assert is_influence_free(flipped).alice_to_bob == DirectionReport(0.5, "a1", (0, 1))


def reference_two_stage(direction, a, b):
    """The per-object enumeration: one (TwoStageTest, mask over X x Y) per
    choice of responses, in itertools.product order within each initiating test."""
    first, second = (a, b) if direction == "forward" else (b, a)
    index = {x: i for i, x in enumerate(first.outcomes)}
    responses = second.incidence.astype(bool)
    out = []
    for e in first.tests if second.tests else ():  # no responding test, no two-stage test
        choices = list(iproduct(range(len(second.tests)), repeat=len(e)))
        masks = np.zeros((len(choices), len(first.outcomes), len(second.outcomes)), bool)
        masks[:, [index[x] for x in e], :] = responses[np.array(choices)]
        if direction == "backward":
            masks = masks.transpose(0, 2, 1)
        masks = masks.reshape(len(choices), -1)
        for choice, mask in zip(choices, masks):
            assignment = tuple(zip(e, map(second.tests.__getitem__, choice)))
            out.append((TwoStageTest(direction, e, assignment), mask))
    return out


def reference_fns(a, b):
    """Forward then backward reference pairs, the first of each mask kept."""
    unique = {}
    for t, mask in reference_two_stage("forward", a, b) + reference_two_stage("backward", a, b):
        unique.setdefault(mask.tobytes(), (t, mask))
    return list(unique.values())


CHAIN_ALICE = TestSpace([f"a{i}" for i in range(5)], [("a0", "a1", "a2"), ("a2", "a3", "a4")])
CHAIN_BOB = TestSpace([f"b{i}" for i in range(4)], [("b0", "b1"), ("b1", "b2"), ("b2", "b3")])
# Alice repeats her first test, so forward rows repeat within one direction
REPEAT_ALICE = TestSpace(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3"), ("x1", "x2")])
# each side's singletons nest inside its pair, so the forward row x1 -> {y1},
# x2 -> {y2} is the backward row y1 -> {x1}, y2 -> {x2}, and not Cartesian
NESTED_ALICE = TestSpace(["x1", "x2"], [("x1", "x2"), ("x1",), ("x2",)])
NESTED_BOB = TestSpace(["y1", "y2"], [("y1", "y2"), ("y1",), ("y2",)])


def whole_and_singletons(side, n):
    """One test of all n outcomes, then each outcome alone."""
    outcomes = [f"{side}{i}" for i in range(n)]
    return TestSpace(outcomes, [outcomes] + [[x] for x in outcomes])


# the same nesting at 5 and 4 outcomes: 3 150 forward and 1 320 backward rows
WIDE_ALICE, WIDE_BOB = whole_and_singletons("a", 5), whole_and_singletons("b", 4)


def space_pairs():
    pairs = [
        (FNS_ALICE, FNS_BOB),
        (pr_box().alice, pr_box().bob),
        (signalling_box().alice, signalling_box().bob),
        (CHAIN_ALICE, CHAIN_BOB),
        (CHAIN_BOB, FNS_BOB),
    ]
    rng = np.random.default_rng(1010)
    pairs += [(random_test_space(rng, "a"), random_test_space(rng, "b")) for _ in range(20)]
    pairs += [(REPEAT_ALICE, CHAIN_BOB), (NESTED_ALICE, NESTED_BOB)]
    return pairs


def test_space_pairs_cover_repeated_tests_and_shared_non_cartesian_rows():
    pairs = space_pairs()
    assert any(len(set(s.tests)) < len(s.tests) for pair in pairs for s in pair)
    shared = False
    for a, b in pairs:
        cartesian = {np.outer(e > 0, f > 0).tobytes() for e in a.incidence for f in b.incidence}
        forward = {m.tobytes() for _, m in reference_two_stage("forward", a, b)} - cartesian
        shared |= any(m.tobytes() in forward for _, m in reference_two_stage("backward", a, b))
    assert shared


@pytest.mark.parametrize("alice, bob", space_pairs())
def test_mask_matrix_enumeration_matches_per_object_reference(alice, bob):
    axes = (alice.outcomes, bob.outcomes)
    fwd = forward_tests(alice, bob)
    cases = (
        (fwd, reference_two_stage("forward", alice, bob)),
        (backward_tests(alice, bob), reference_two_stage("backward", alice, bob)),
        (fns_tests(alice, bob), reference_fns(alice, bob)),
    )
    for tests, reference in cases:
        ref_tests = [t for t, _ in reference]
        assert isinstance(tests, TwoStageTests)
        assert len(tests) == len(reference)
        assert tests.axes == axes
        assert list(tests) == ref_tests
        for i, ref in enumerate(ref_tests):
            assert tests[i - len(tests)] == ref
    forward_sets = {t.outcome_pairs() for t in fwd}
    for t in fns_tests(alice, bob):
        if t.outcome_pairs() in forward_sets:
            assert t.direction == "forward"


def test_two_stage_tests_as_a_sequence():
    fwd, bwd = forward_tests(FNS_ALICE, FNS_BOB), backward_tests(FNS_ALICE, FNS_BOB)
    assert len(fwd) == 4 and fwd[-1] == fwd[3] and bwd[-2] == bwd[0]
    assert list(fwd) == [fwd[i] for i in range(4)]
    for i in (4, -5):
        with pytest.raises(IndexError):
            fwd[i]
    # a side with no tests initiates nothing and answers nothing, and a
    # state is a state on no tests at all
    empty = TestSpace([], [])
    for enumerate_tests in (forward_tests, backward_tests, fns_tests):
        for alice, bob in ((empty, FNS_BOB), (FNS_ALICE, empty)):
            assert len(enumerate_tests(alice, bob)) == 0
            omega = ProductState(alice, bob, {})
            assert is_state_on_two_stage(omega, enumerate_tests(alice, bob))


def test_a_side_without_tests_is_influence_free():
    # no test on a side leaves no marginal to move, and criterion 5's
    # equivalence holds; marginals, which read each side's test 0, are refused
    empty = TestSpace([], [])
    for alice, bob in ((empty, FNS_BOB), (FNS_ALICE, empty), (empty, empty)):
        omega = ProductState(alice, bob, {})
        verdict = is_influence_free(omega)
        assert verdict == InfluenceVerdict(True, *[DirectionReport(0.0, None, None)] * 2, 0.0)
        fstate, bstate = (
            is_state_on_two_stage(omega, f(alice, bob)) for f in (forward_tests, backward_tests)
        )
        assert fstate == (verdict.bob_to_alice.max_deviation <= 1e-10)
        assert bstate == (verdict.alice_to_bob.max_deviation <= 1e-10)
        assert (fstate and bstate) == verdict.free
        assert is_state_on_two_stage(omega, fns_tests(alice, bob))
        side = "alice" if alice is empty else "bob"
        for read in (lambda: omega.marginals, lambda: bayes_residuals(omega)):
            with pytest.raises(ValueError, match=f"{side} has no tests"):
                read()


def test_two_stage_tests_are_read_only():
    alice = TestSpace(["x1", "x2"], [("x1",), ("x2",)])
    bob = TestSpace(["y1", "y2"], [("y1",), ("y2",)])
    fwd = forward_tests(alice, bob)
    second = fwd[1]
    for tests in (fwd, backward_tests(alice, bob), fns_tests(alice, bob)):
        for array in (tests.block, tests.code):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[1] = 0
    # a block or code rewritten alone would name another test
    assert fwd[1] == second


def test_rows_held_by_hand_are_written_from_their_heads():
    fns = fns_tests(REPEAT_ALICE, CHAIN_BOB)
    # rows held out of order, repeated, and of both directions
    assert [fns.heads[h][0] for h in fns.block[[5, 20]]] == ["forward", "backward"]
    for rows in ([20, 5, 0, 5], range(3, 9), [], range(len(fns))):
        rows = np.array(rows, np.intp)
        held = TwoStageTests(fns.axes, fns.heads, fns.block[rows], fns.code[rows])
        assert list(held) == [fns[i] for i in rows]
    with pytest.raises(ValueError, match="2 blocks and 1 codes"):
        TwoStageTests(fns.axes, fns.heads, fns.block[:2], fns.code[:1])


# The benchmark's coupled-tables shapes, (structure, test sizes) a side; a
# chain's tests share one outcome in sequence
CATALOGUE = (
    (("disjoint", (2, 2)), ("disjoint", (2, 2))),
    (("chain", (3, 3, 3)), ("disjoint", (3, 3))),
    (("disjoint", (4, 4)), ("chain", (3, 3, 3))),
    (("chain", (4, 4, 4, 4)), ("disjoint", (2, 2, 2))),
    (("disjoint", (5, 5)), ("chain", (4, 4, 4))),
    (("disjoint", (4, 4, 4)), ("disjoint", (3, 3, 3, 3))),
    (("chain", (5, 5, 5)), ("disjoint", (2, 2, 2, 2))),
    (("disjoint", (6, 6)), ("chain", (3, 3, 3))),
    (("disjoint", (4,)), ("chain", (3, 3, 3, 3, 3))),
    (("chain", (3, 3, 3, 3, 3)), ("disjoint", (4, 4, 4))),
    (("disjoint", (8, 8)), ("disjoint", (3, 3))),
    (("disjoint", (7, 7)), ("chain", (4, 4, 4))),
    (("disjoint", (5, 5, 5)), ("chain", (3, 3, 3, 3))),
)


def catalogue_space(side, shape):
    structure, sizes = shape
    tests, n = [], 0
    for i, size in enumerate(sizes):
        lo = n - (structure == "chain" and i > 0)
        tests.append([f"{side}{j}" for j in range(lo, lo + size)])
        n = lo + size
    return TestSpace([f"{side}{j}" for j in range(n)], tests)


CATALOGUE_PAIRS = [(catalogue_space("a", a), catalogue_space("b", b)) for a, b in CATALOGUE]


def eager_block_code(direction, a, b):
    """Each row's head and code as an eager enumeration writes them: head h's
    r**|E| rows in turn, coded 0 up."""
    first, second = (a, b) if direction == "forward" else (b, a)
    sizes = [len(second.tests) ** len(e) for e in first.tests]
    block = [h for h, n in enumerate(sizes) for _ in range(n)]
    return np.array(block, np.intp), np.array([c for n in sizes for c in range(n)], np.intp)


def test_catalogue_pairs_have_the_benchmark_sizes():
    sizes = [(len(forward_tests(a, b)), len(backward_tests(a, b))) for a, b in CATALOGUE_PAIRS]
    assert sizes == [
        (8, 8), (24, 54), (162, 24), (324, 48), (486, 48), (768, 108), (3072, 36),
        (1458, 24), (625, 5), (135, 1875), (512, 16), (4374, 48), (3072, 108),
    ]


@pytest.mark.parametrize(
    "alice, bob",
    space_pairs()
    + CATALOGUE_PAIRS
    + [(TestSpace([], []), FNS_BOB), (FNS_ALICE, TestSpace([], []))]
    + [(WIDE_ALICE, WIDE_BOB), (WIDE_BOB, WIDE_ALICE)],
)
def test_block_and_code_match_the_eager_build(alice, bob):
    fwd, bwd, fns = forward_tests(alice, bob), backward_tests(alice, bob), fns_tests(alice, bob)
    eager = [eager_block_code(d, alice, bob) for d in ("forward", "backward")]
    for tests, (block, code) in zip((fwd, bwd), eager):
        for got, want in ((tests.block, block), (tests.code, code)):
            assert got.dtype == np.intp and np.array_equal(got, want)
    # fns keeps the first row of each outcome set, forward before backward
    reference = [r for d in ("forward", "backward") for r in reference_two_stage(d, alice, bob)]
    first = {}
    for i, (_, mask) in enumerate(reference):
        first.setdefault(mask.tobytes(), i)
    kept = list(first.values())
    block = np.concatenate([eager[0][0], eager[1][0] + len(fwd.heads)])
    code = np.concatenate([eager[0][1], eager[1][1]])
    assert fns.heads == fwd.heads + bwd.heads
    for got, want in ((fns.block, block[kept]), (fns.code, code[kept])):
        assert got.dtype == np.intp and np.array_equal(got, want)


def signalled_table(direction=None, eps=0.01) -> ProductState:
    """The uniform product on two disjoint Alice tests of 6 outcomes and a
    Bob chain of three tests of 3, plus eps·(e_a0 - e_a5) ⊗ e_b0 for
    "bob->alice" or eps·e_a0 ⊗ (e_b0 - e_b1) for "alice->bob". a0, a5 lie in
    Alice's first test only and b0, b1 in Bob's, so every product test still
    sums to 1."""
    labels = [f"a{i}" for i in range(12)]
    alice = TestSpace(labels, [labels[:6], labels[6:]])
    bob = TestSpace(
        [f"b{j}" for j in range(7)], [("b0", "b1", "b2"), ("b2", "b3", "b4"), ("b4", "b5", "b6")]
    )
    values = np.full((12, 7), 1 / 18)
    if direction is not None:
        values[0, 0] += eps
        values[(0, 1) if direction == "alice->bob" else (5, 0)] -= eps
    cells = iproduct(alice.outcomes, bob.outcomes)
    return ProductState(alice, bob, dict(zip(cells, values.ravel().tolist())))


def full_sums(omega, tests):
    """Every held row's sum of table cells over its outcome_pairs(), rounded
    once: the reference a two-stage verdict is checked against."""
    pairs = iproduct(omega.alice.outcomes, omega.bob.outcomes)
    cells = dict(zip(pairs, omega.values.ravel().tolist()))
    return np.array([math.fsum(map(cells.__getitem__, t.outcome_pairs())) for t in tests])


def mask_verdict(omega, tests, tol=1e-10):
    return bool(np.all(np.abs(full_sums(omega, tests) - 1.0) <= tol))


def test_two_stage_verdicts_on_the_signalled_tables():
    free, to_alice, to_bob = (signalled_table(d) for d in (None, "bob->alice", "alice->bob"))
    fwd, bwd = forward_tests(free.alice, free.bob), backward_tests(free.alice, free.bob)
    fns = fns_tests(free.alice, free.bob)
    # Bob to Alice shows at forward row 1 of 1 458, Alice to Bob only past every forward row of fns
    first_off = [
        np.flatnonzero(np.abs(full_sums(omega, tests) - 1.0) > 1e-10)[0]
        for omega, tests in ((to_alice, fwd), (to_bob, fns))
    ]
    assert (len(fwd), len(fns), *first_off) == (1458, 1476, 1, 1459)
    empty = TestSpace([], [])
    cases = [(omega, tests) for omega in (free, to_alice, to_bob) for tests in (fwd, bwd, fns)]
    cases.append((ProductState(empty, FNS_BOB, {}), fns_tests(empty, FNS_BOB)))
    answers = [mask_verdict(omega, tests) for omega, tests in cases]
    # an influence shows on the tests its receiving side starts, and on fns
    assert answers == [True, True, True, False, True, False, True, False, False, True]
    assert [is_state_on_two_stage(omega, tests) for omega, tests in cases] == answers


def test_rows_held_by_hand_answer_for_their_directions_full_enumeration():
    free, to_alice = signalled_table(), signalled_table("bob->alice")
    fwd = forward_tests(free.alice, free.bob)
    ok = np.flatnonzero(np.abs(full_sums(to_alice, fwd) - 1.0) <= 1e-10)

    def held(rows):
        return TwoStageTests(fwd.axes, fwd.heads, fwd.block[rows], fwd.code[rows])

    # a forward test is off when exactly one of a0, a5 takes Bob's first test: 2·2·3**4 of them
    assert len(ok) == 1458 - 324 and mask_verdict(to_alice, held(ok))
    for rows in (slice(0, 2), ok, ok[:0]):
        assert is_state_on_two_stage(free, held(rows))
        # the forward tests left out are still asked about
        assert not is_state_on_two_stage(to_alice, held(rows))
    # heads name no direction, so no test is asked about
    none = np.zeros(0, np.intp)
    assert is_state_on_two_stage(to_alice, TwoStageTests(fwd.axes, (), none, none))


@pytest.mark.parametrize("d", [2.0**-20, 2.0**-19])
@pytest.mark.parametrize("moved", ["both", "low", "high"])
def test_two_stage_boundary_is_decided_exactly(moved, d):
    # dyadic cells make every sum exact in any order, and the state admits
    # product tests off by up to 2**-18: "both" moves the least forward test
    # to 1 - d and the greatest to 1 + d, "low" only the least and "high"
    # only the greatest, each tested against tol = 2**-20
    # Alice's rows over b1, b2, b3, and the sorted sums of the four forward tests
    a1, a2, sums = {
        "both": ([0.25 + d, 0.25, 0.5], [0.25, 0.25 - d, 0.5], [1 - d, 1, 1, 1 + d]),
        "low": ([0.25, 0.25, 0.5 - d], [0.25, 0.25, 0.5], [1 - d, 1 - d, 1, 1]),
        "high": ([0.25, 0.25, 0.5 + d], [0.25, 0.25, 0.5], [1, 1, 1 + d, 1 + d]),
    }[moved]
    alice = TestSpace(["a1", "a2"], [("a1", "a2")])
    bob = TestSpace(["b1", "b2", "b3"], [("b1", "b2"), ("b3",)])
    table = {(x, y): v for x, row in (("a1", a1), ("a2", a2)) for y, v in zip(bob.outcomes, row)}
    omega = ProductState(alice, bob, table, tolerance=2**-18)
    fwd, bwd = forward_tests(alice, bob), backward_tests(alice, bob)
    assert sorted(full_sums(omega, fwd).tolist()) == sums
    accepted = d <= 2**-20
    # the backward tests see the "both" cells only through Bob's first test, which sums to 1
    answers = ((fwd, accepted), (bwd, accepted or moved == "both"), (fns_tests(alice, bob), accepted))
    for tests, answer in answers:
        assert mask_verdict(omega, tests, tol=2**-20) == answer
        assert is_state_on_two_stage(omega, tests, tol=2**-20) == answer


def vertex_states(space):
    """The vertices of the space's state polytope, one row each."""
    a = space.incidence
    states = [np.linalg.lstsq(a * s, np.ones(len(a)), rcond=None)[0] for s in _vertices(a) > 0]
    return np.reshape(states, (-1, len(space.outcomes)))


def reference_tables(alice, bob, seed):
    """{"free": ..., "signalling": ...} states on alice x bob, or None when a
    side admits no state. The free one mixes products of random states. The
    signalling one is half f1 ⊗ g·s + f2 ⊗ g·(1 - s), whose Alice marginal
    moves with how Bob's test splits g between f1 and f2, and half its mirror."""
    va, vb = vertex_states(alice), vertex_states(bob)
    if not (len(va) and len(vb)):
        return None
    rng = np.random.default_rng(seed)

    def state(vertices):
        return rng.dirichlet(np.ones(len(vertices))) @ vertices

    free = sum(w * np.outer(state(va), state(vb)) for w in rng.dirichlet(np.ones(3)))
    g, s = state(vb), rng.random(len(bob.outcomes))
    f, t = state(va), rng.random(len(alice.outcomes))
    to_alice = np.outer(state(va), g * s) + np.outer(state(va), g * (1 - s))
    to_bob = np.outer(f * t, state(vb)) + np.outer(f * (1 - t), state(vb))
    cells = list(iproduct(alice.outcomes, bob.outcomes))
    return {
        kind: ProductState(alice, bob, dict(zip(cells, values.ravel().tolist())))
        for kind, values in (("free", free), ("signalling", (to_alice + to_bob) / 2))
    }


def test_vertices_are_the_least_squares_solutions_on_their_supports():
    rng = np.random.default_rng(1013)
    spaces = [side for pair in space_pairs() for side in pair]
    spaces += [TestSpace(["u", "v", "w"], [[("u", 2), "v"], ["v", ("w", 3)]])]
    spaces += [random_test_space(rng, "o", max_outcomes=7, max_tests=5, max_test_size=5) for _ in range(100)]
    for space in spaces:
        vertices = _vertices(space.incidence)
        assert vertices.shape == vertex_states(space).shape
        assert np.abs(vertices - vertex_states(space)).max(initial=0.0) <= 1e-12, space


def test_generated_tables_sum_to_one_on_every_product_test():
    # criterion 5's 500 tables, then draws of both kinds on the pairs here and on multiset sides
    tables = [(a, b, t) for a, b, t, _ in acceptance._shared_instances()]
    multiset = TestSpace(["u", "v", "w"], [[("u", 2), "v"], ["v", ("w", 3)]])
    pairs = space_pairs() + [(multiset, CHAIN_BOB), (FNS_ALICE, multiset)]
    rng = np.random.default_rng(1014)
    for (alice, bob), draw in iproduct(pairs, (product_state_table, signalling_table) * 3):
        table = draw(rng, alice, bob)
        if table is not None:
            tables.append((alice, bob, table))
    assert len(tables) > 550
    for alice, bob, table in tables:
        values = np.reshape(list(table.values()), (len(alice.outcomes), len(bob.outcomes)))
        assert values.min() > 0
        assert np.abs(alice.incidence @ values @ bob.incidence.T - 1.0).max() <= 1e-14


ENUMERATORS = (forward_tests, backward_tests, fns_tests)


@pytest.mark.parametrize("kind", ["free", "signalling"])
@pytest.mark.parametrize("enumerate_tests", ENUMERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("k", range(len(space_pairs())))
def test_two_stage_verdict_matches_the_mask_sum(k, enumerate_tests, kind):
    alice, bob = space_pairs()[k]
    tables = reference_tables(alice, bob, seed=[1012, k])
    if tables is None:
        # only the nested pair, whose sides each admit no state, has no table
        assert (alice, bob) == (NESTED_ALICE, NESTED_BOB)
        return
    omega, tests = tables[kind], enumerate_tests(alice, bob)
    assert is_state_on_two_stage(omega, tests) == mask_verdict(omega, tests)
    # an influence-free table is a state on every two-stage test
    assert is_state_on_two_stage(omega, tests) or kind == "signalling"


def test_signalling_reference_tables_are_refused_in_each_direction():
    refused = {f: 0 for f in ENUMERATORS}
    for k, (alice, bob) in enumerate(space_pairs()):
        tables = reference_tables(alice, bob, seed=[1012, k])
        for f in ENUMERATORS if tables else ():
            refused[f] += not is_state_on_two_stage(tables["signalling"], f(alice, bob))
    assert all(refused.values()), refused


def test_two_stage_verdict_reads_only_tests_enumerated_on_the_states_axes():
    rng = np.random.default_rng(1011)
    omegas = [pr_box(), signalling_box()]
    while len(omegas) < 8:
        alice, bob = random_test_space(rng, "a"), random_test_space(rng, "b")
        table = (product_state_table if len(omegas) % 2 else signalling_table)(rng, alice, bob)
        # reversing Bob's outcomes below must give other axes, so Bob needs two
        if table is not None and len(bob.outcomes) > 1:
            omegas.append(ProductState(alice, bob, table))
    verdicts = set()
    for omega in omegas:
        # the same tests enumerated on Bob's outcomes in reverse order mark
        # cells of other axes, so they are refused like a list of the tests
        reordered = TestSpace(omega.bob.outcomes[::-1], omega.bob.tests)
        for enumerate_tests in (forward_tests, backward_tests, fns_tests):
            tests = enumerate_tests(omega.alice, omega.bob)
            verdicts.add(is_state_on_two_stage(omega, tests))
            by_hand = [TwoStageTest(t.direction, t.first, t.assignment) for t in tests]
            for other in (list(tests), by_hand, enumerate_tests(omega.alice, reordered)):
                with pytest.raises(ValueError, match="enumerated on the state's axes"):
                    is_state_on_two_stage(omega, other)
    assert verdicts == {True, False}
    omega = pr_box()
    none = np.zeros(0, np.intp)
    axes = (omega.alice.outcomes, omega.bob.outcomes)
    empty = TwoStageTests(axes, (), none, none)
    assert len(empty) == 0 and list(empty) == []
    assert is_state_on_two_stage(omega, empty)
    with pytest.raises(ValueError, match="1 blocks and 0 codes"):
        TwoStageTests(axes, (), np.zeros(1, np.intp), none)
    with pytest.raises(ValueError):
        is_state_on_two_stage(omega, [])



def label_two_stage(direction, a, b):
    """Every two-stage test from the labels alone: each initiating test with
    every assignment of responding tests, in itertools.product order."""
    first, second = (a, b) if direction == "forward" else (b, a)
    return [
        TwoStageTest(direction, e, tuple(zip(e, picks)))
        for e in first.tests
        for picks in iproduct(second.tests, repeat=len(e))
    ]


def label_distinct(tests):
    """Each outcome set at its first occurrence, in order."""
    seen, kept = set(), []
    for t in tests:
        if t.outcome_pairs() not in seen:
            seen.add(t.outcome_pairs())
            kept.append(t)
    return kept


def seeded_space_pairs(seed, count):
    """Random small space pairs; every third side repeats one of its tests
    and every other side adds a test nested inside one of its tests."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        sides = []
        for prefix, salt in (("a", 0), ("b", 1)):
            ts = random_test_space(rng, prefix, max_outcomes=5, max_tests=3, max_test_size=3)
            tests = list(ts.tests)
            if (k + salt) % 3 == 0:
                tests.append(tests[int(rng.integers(len(tests)))])
            big = max(tests, key=len)
            if (k + salt) % 2 == 0 and len(big) > 1:
                tests.insert(int(rng.integers(len(tests) + 1)), big[: int(rng.integers(1, len(big)))])
            sides.append(TestSpace(ts.outcomes, tests))
        pairs.append(tuple(sides))
    return pairs


@pytest.mark.parametrize("alice, bob", seeded_space_pairs(1517, 24))
def test_enumeration_matches_label_reference(alice, bob):
    forward = label_two_stage("forward", alice, bob)
    backward = label_two_stage("backward", alice, bob)
    cases = (
        (forward_tests, forward),
        (backward_tests, backward),
        (fns_tests, label_distinct(forward + backward)),
    )
    for enumerate_tests, reference in cases:
        tests = enumerate_tests(alice, bob)
        assert [repr(t) for t in tests] == [repr(t) for t in reference]


# fns_tests against the label reference on ten seeds' pairs, run in one test
FNS_REFERENCE_PAIRS = [pair for seed in range(1517, 1527) for pair in seeded_space_pairs(seed, 24)]


def test_fns_matches_label_reference_on_ten_seeds():
    for alice, bob in FNS_REFERENCE_PAIRS:
        forward, backward = (label_two_stage(d, alice, bob) for d in ("forward", "backward"))
        reference = label_distinct(forward + backward)
        fns = fns_tests(alice, bob)
        assert [repr(t) for t in fns] == [repr(t) for t in reference]


def test_label_reference_pairs_cover_duplicated_and_nested_tests():
    pairs = FNS_REFERENCE_PAIRS
    sides = [side for pair in pairs for side in pair]
    assert any(len(set(s.tests)) < len(s.tests) for s in sides)
    assert any(set(e) < set(f) for s in sides for e in s.tests for f in s.tests)
    # rows repeat within one direction, and the Cartesian tests across the two
    assert any(
        len(label_distinct(forward)) < len(forward)
        for forward in (label_two_stage("forward", a, b) for a, b in pairs)
    )
    assert all(len(fns_tests(a, b)) < len(forward_tests(a, b)) + len(backward_tests(a, b)) for a, b in pairs)
    # and in some pairs (66 of them) a backward row that is not Cartesian is a forward row
    shared = False
    for a, b in pairs:
        cartesian = {frozenset(iproduct(e, f)) for e in a.tests for f in b.tests}
        forward = {t.outcome_pairs() for t in label_two_stage("forward", a, b)} - cartesian
        shared |= any(t.outcome_pairs() in forward for t in label_two_stage("backward", a, b))
    assert shared
