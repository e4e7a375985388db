"""Test spaces, states, and the small-polytope dimension helper."""

import math
from itertools import combinations

import numpy as np
import pytest

from influencefree.linalg import CapExceededError
from influencefree.sampling import _positive_vertices, random_test_space
from influencefree.testspace import TestSpace, _vertices, state_check, weight_space_dimension

CHAIN = TestSpace(["a", "x", "b"], [("a", "x"), ("x", "b")])
FIREFLY = TestSpace(["l", "r", "f", "b", "d"], [("l", "r", "d"), ("f", "b", "d")])


def test_constructor_canonicalizes_and_validates():
    ts = TestSpace(["q", "p"], [("q", "p")])
    assert ts.outcomes == ("q", "p")
    assert ts.tests == (("q", "p"),)

    with pytest.raises(ValueError):
        TestSpace(["a", "a"], [("a",)])
    with pytest.raises(ValueError):
        TestSpace(["a"], [()])
    with pytest.raises(ValueError):
        TestSpace(["a"], [("a", "zz")])
    # a repeated label counts twice: tests hold each outcome once, incidence the count
    repeated = TestSpace(["a", "b"], [("a", "a"), ("b", "a")])
    assert repeated.tests == (("a",), ("a", "b"))
    assert np.array_equal(repeated.incidence, [[2, 0], [1, 1]])
    with pytest.raises(ValueError, match="cover"):
        TestSpace(["a", "b", "c"], [("a", "b")])
    # multiset spaces must cover their outcomes too
    with pytest.raises(ValueError, match=r"tests do not cover outcomes \['c'\]"):
        TestSpace(["a", "b", "c"], [(("a", 2), "b")])
    with pytest.raises(ValueError, match=r"unknown outcomes \['zz', 'yy'\]"):
        TestSpace(["a"], [("a", "zz", ("yy", 2))])
    with pytest.raises(ValueError):
        CHAIN.outcome_index("nope")
    assert CHAIN.outcome_index("x") == 1


def test_incidence_matrices():
    assert np.array_equal(CHAIN.incidence, [[1, 1, 0], [0, 1, 1]])
    assert not CHAIN.incidence.flags.writeable
    ets = TestSpace(["u", "v", "w"], [(("w", 1), ("u", 2)), (("v", 3),)])
    assert np.array_equal(ets.incidence, [[2, 0, 1], [0, 3, 0]])
    assert TestSpace([], []).incidence.shape == (0, 0)


PAIR = TestSpace(["a", "b"], [("a", "b")])
EPAIR = TestSpace(["a", "b"], [(("a", 1), ("b", 1))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "check",
    [
        lambda f: state_check(PAIR, f),
        lambda f: state_check(EPAIR, f),
    ],
    ids=["is_state", "is_state_multiset"],
)
def test_table_checks_reject_non_finite_values(check, bad):
    with pytest.raises(ValueError, match="finite"):
        check({"a": bad, "b": 0.5})


def test_is_state_on_chain():
    assert state_check(CHAIN, {"a": 0.25, "x": 0.75, "b": 0.25})[0]
    assert not state_check(CHAIN, {"a": 0.25, "x": 0.75, "b": 0.3})[0]
    assert not state_check(CHAIN, {"a": -0.1, "x": 1.1, "b": -0.1})[0]
    # tolerance is respected
    assert state_check(CHAIN, {"a": 0.25 + 5e-10, "x": 0.75, "b": 0.25}, tol=1e-9)[0]
    with pytest.raises(ValueError):
        state_check(CHAIN, {"a": 1.0, "x": 0.0})


def test_table_values_outside_the_space_are_refused():
    # the surplus value is named, not dropped, whatever it holds
    for space in (CHAIN, TestSpace(["a", "x", "b"], [(("a", 2), ("x", 1)), (("x", 1), ("b", 1))])):
        with pytest.raises(ValueError, match=r"unknown outcomes \['zzz'\]"):
            state_check(space, {"a": 0.25, "x": 0.75, "b": 0.25, "zzz": 7})


def test_state_check_reports_residual_and_worst():
    assert state_check(CHAIN, {"a": 0.25, "x": 0.75, "b": 0.25}) == (True, 0.0, None)
    ok, residual, worst = state_check(CHAIN, {"a": 0.25, "x": 0.75, "b": 0.3})
    assert not ok and residual == pytest.approx(0.05) and worst == ("test", 1, 1.05)
    # every test sums to 1, so the outcome furthest outside [0, 1] is named
    ok, residual, worst = state_check(CHAIN, {"a": -0.1, "x": 1.1, "b": -0.1})
    assert not ok and residual == pytest.approx(0.1) and worst == ("outcome", "x", 1.1)
    # within tol: ok, with the gap still reported
    ok, residual, worst = state_check(CHAIN, {"a": 0.25 + 5e-10, "x": 0.75, "b": 0.25}, tol=1e-9)
    assert ok and 0 < residual <= 1e-9 and worst is None
    assert state_check(TestSpace([], []), {}) == (True, 0.0, None)


def test_estate_weights_multiplicities():
    ets = TestSpace(["u", "v"], [(("u", 2), ("v", 1))])
    assert ets.tests == (("u", "v"),)
    assert np.array_equal(ets.incidence, [[2, 1]])
    assert state_check(ets, {"u": 0.25, "v": 0.5})[0]
    assert not state_check(ets, {"u": 0.5, "v": 0.5})[0]
    with pytest.raises(ValueError, match="positive multiplicity"):
        TestSpace(["u"], [(("u", 0),)])
    with pytest.raises(ValueError, match="positive multiplicity"):
        TestSpace(["u"], [()])
    with pytest.raises(ValueError, match="non-negative"):
        TestSpace(["u"], [(("u", -1),)])
    # an outcome of multiplicity 0 is not in the test, so it must be covered elsewhere
    zero = TestSpace(["u", "v"], [(("u", 1), ("v", 0)), ("v",)])
    assert zero.tests == (("u",), ("v",))


def test_a_multiplicity_is_an_integer_but_not_a_bool():
    # int() made 1.5 a set space and dropped u at 0.9, and True counted once
    for m in (1.5, 0.9, True):
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            TestSpace(["u", "v"], [(("u", m), "v")])
    space = TestSpace(["u", "v"], [(("u", np.int64(2)), "v")])
    assert space == TestSpace(["u", "v"], [(("u", 2), "v")])
    assert np.array_equal(space.incidence, [[2, 1]])


def test_repeated_outcomes_sum_in_the_constructor_as_in_the_decoder():
    from influencefree.jsonio import testspace_from_document

    built = TestSpace(["u", "v"], [(("u", 1), ("u", 1), ("v", 1))])
    doc = {"outcomes": ["u", "v"], "tests": [["u", {"outcome": "u", "multiplicity": 1}, "v"]]}
    decoded = testspace_from_document(doc)
    assert np.array_equal(built.incidence, [[2, 1]])
    assert np.array_equal(decoded.incidence, built.incidence)
    assert decoded.tests == built.tests == (("u", "v"),)
    assert decoded == built == TestSpace(["u", "v"], [["u", "u", "v"]])
    # a negative item is refused even when a repeat would make the sum positive
    with pytest.raises(ValueError, match="multiplicities must be non-negative"):
        TestSpace(["u"], [(("u", 2), ("u", -1))])


def test_spaces_that_differ_in_a_multiplicity_differ():
    plain = TestSpace(["u", "v"], [("u", "v")])
    assert plain == TestSpace(["u", "v"], [(("v", 1), "u")])
    assert hash(plain) == hash(TestSpace(["u", "v"], [(("v", 1), "u")]))
    doubled = TestSpace(["u", "v"], [(("u", 2), "v")])
    assert doubled.tests == plain.tests
    assert doubled != plain
    assert doubled != TestSpace(["u", "v"], [(("u", 3), "v")])
    assert doubled == TestSpace(["u", "v"], [("u", "v", "u")])


def test_multiset_space_polytope():
    # 2·f(u) + f(v) = 1: the segment from (1/2, 0) to (0, 1)
    space = TestSpace(["u", "v"], [[("u", 2), "v"]])
    assert weight_space_dimension(space) == (2, 2)
    vertices = _vertices(space.incidence)
    assert sorted(map(tuple, vertices.round(12).tolist())) == [(0.0, 1.0), (0.5, 0.0)]
    assert state_check(space, {"u": 0.5, "v": 0.0})[0]
    assert state_check(space, {"u": 0.0, "v": 1.0})[0]
    assert _positive_vertices(space) is not None


def test_weight_space_dimension_frozen_values():
    # chain: constant-sum space {f(a)=f(b)} has dimension 2; the state
    # segment w(x) in [0,1] has endpoints (1,0,1) and (0,1,0)
    assert weight_space_dimension(CHAIN) == (2, 2)
    # firefly pair sharing the dark outcome: one difference constraint on 5
    # outcomes leaves dimension 4; vertices are d=1 plus the four corners
    # of the d=0 square
    assert weight_space_dimension(FIREFLY) == (4, 5)


def test_weight_space_dimension_single_test():
    ts = TestSpace(["a", "b"], [("a", "b")])
    assert weight_space_dimension(ts) == (2, 2)


def test_weight_space_dimension_cap():
    labels = [f"o{i}" for i in range(16)]
    # one test of 16 outcomes: every point mass is a vertex
    assert weight_space_dimension(TestSpace(labels, [tuple(labels)])) == (16, 16)
    labels.append("o16")
    with pytest.raises(CapExceededError) as exc:
        weight_space_dimension(TestSpace(labels, [tuple(labels)]))
    assert exc.value.required == 17


def brute_force_dimension(ts):
    """Vertex count by basic feasible solutions: every support of at most
    rank-many independent columns, solved on its own by least squares, with
    the distinct rounded vertices counted."""
    a = ts.incidence
    m = len(ts.outcomes)
    if len(ts.tests) <= 1:
        dim_constant = m
    else:
        dim_constant = m - int(np.linalg.matrix_rank(a[1:] - a[0], tol=1e-9))
    ones = np.ones(len(ts.tests))
    vertices = set()
    for size in range(1, int(np.linalg.matrix_rank(a, tol=1e-9)) + 1):
        for support in combinations(range(m), size):
            cols = a[:, support]
            if np.linalg.matrix_rank(cols, tol=1e-9) < size:
                continue
            x, *_ = np.linalg.lstsq(cols, ones, rcond=None)
            if np.linalg.norm(cols @ x - ones) > 1e-9 or np.any(x <= 1e-9):
                continue
            full = np.zeros(m)
            full[list(support)] = x
            vertices.add(tuple(np.round(full, 9)))
    return dim_constant, len(vertices)


def test_weight_space_dimension_matches_brute_force():
    rng = np.random.default_rng(1616)
    counts = set()
    for k in range(300):
        size = 2 + k % 7
        ts = random_test_space(
            rng, "o", max_outcomes=size, max_tests=int(rng.integers(1, 6)),
            max_test_size=int(rng.integers(1, size + 1)),
        )
        want = brute_force_dimension(ts)
        assert weight_space_dimension(ts) == want, ts
        counts.add(want[1])
    # empty polytopes, single points and many-vertex polytopes all occur
    assert {0, 1} < counts and max(counts) >= 8


def test_outcome_index_reads_labels():
    assert [FIREFLY.outcome_index(x) for x in FIREFLY.outcomes] == list(range(5))
    for bad in ("nope", 1, ["l"]):
        with pytest.raises(ValueError, match="unknown outcome"):
            FIREFLY.outcome_index(bad)


@pytest.mark.parametrize(
    "tests, expected",
    [
        ([("a", "x"), ("x", "b")], True),  # the chain: (1/2, 1/2, 1/2)
        ([("a", "b"), ("a", "b", "c")], False),  # c is 0 in every state
        ([("a", "b", "c"), ("a", "b", "c")], True),  # a repeated test
        ([("a", "b"), ("b", "c"), ("a", "c"), ("a", "b", "c")], False),  # 2·(a+b+c) = 3
        ([("a", "b"), ("b", "c"), ("a", "c")], True),  # (1/2, 1/2, 1/2)
        ([("a",), ("a", "b", "c")], False),  # a = 1 leaves nothing for b and c
        ([("a", "b"), ("c",), ("a", "c"), ("b",)], False),  # c = 1 forces a = 0
    ],
)
def test_admits_positive_state_on_small_spaces(tests, expected):
    # the generators' rule: the vertices' supports must cover every outcome
    outcomes = sorted({x for t in tests for x in t})
    assert (_positive_vertices(TestSpace(outcomes, tests)) is not None) is expected


def test_admits_positive_state_matches_a_linear_program():
    # the generators' rule on the vertices, checked by a linear program: the
    # largest t with incidence · f = 1 and f >= t on every outcome is
    # positive exactly when a strictly positive state exists
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(77)
    answers = set()
    for _ in range(150):
        ts = random_test_space(rng, "o", max_outcomes=6, max_tests=4, max_test_size=4)
        a = ts.incidence
        m = a.shape[1]
        res = linprog(
            np.r_[np.zeros(m), -1.0],
            A_ub=np.c_[-np.eye(m), np.ones(m)],
            b_ub=np.zeros(m),
            A_eq=np.c_[a, np.zeros(len(a))],
            b_eq=np.ones(len(a)),
            bounds=[(0, None)] * m + [(0, 1)],
        )
        feasible = res.status == 0 and -res.fun > 1e-9
        answers.add(feasible)
        assert (_positive_vertices(ts) is not None) is feasible, ts
    assert answers == {True, False}


def test_vertices_are_states_zero_off_their_support():
    rng = np.random.default_rng(1717)
    spaces = [CHAIN, FIREFLY, TestSpace(["u", "v", "w"], [[("u", 2), "v"], ["v", ("w", 3)]])]
    spaces += [random_test_space(rng, "o", max_outcomes=7, max_tests=5, max_test_size=5) for _ in range(150)]
    for space in spaces:
        a, vertices = space.incidence, _vertices(space.incidence)
        assert vertices.shape[1] == len(space.outcomes)
        assert np.all(vertices >= 0), space
        assert np.abs(vertices @ a.T - 1.0).max(initial=0.0) <= 1e-12, space
        # distinct supports, so distinct vertices
        assert len({row.tobytes() for row in vertices > 0}) == len(vertices)
