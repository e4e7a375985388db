"""Products of two test spaces and influence-freedom analysis.

Covers the Cartesian product (simultaneous tests E x F), the two-stage
products where one side measures first and the other side's test may depend
on the first outcome, their union (two-stage tests in either direction,
deduplicated as outcome sets), marginals, conditional states, and the Bayes
consistency identities. The central equivalence: a table is a state on every
forward two-stage test exactly when Alice's marginal does not depend on
Bob's choice of test (and mirrored).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence

from .linalg import DEFAULT_TOL, CapExceededError
from .testspace import TestSpace, is_state

Pair = tuple[str, str]


@dataclass(frozen=True)
class TwoStageTest:
    """One two-stage experiment.

    `first` is the initiating side's test; `assignment` maps each of its
    outcomes to the test the responding side then performs. Outcome pairs are
    always stored as (alice outcome, bob outcome) regardless of direction.
    """

    direction: str  # "forward" (Alice first) or "backward" (Bob first)
    first: tuple[str, ...]
    assignment: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward/backward, got {self.direction!r}")
        assigned = {k for k, _ in self.assignment}
        if assigned != set(self.first):
            raise ValueError("assignment must cover exactly the initiating test's outcomes")

    def outcome_pairs(self) -> frozenset[Pair]:
        pairs = []
        lookup = dict(self.assignment)
        for first_outcome in self.first:
            for second_outcome in lookup[first_outcome]:
                if self.direction == "forward":
                    pairs.append((first_outcome, second_outcome))
                else:
                    pairs.append((second_outcome, first_outcome))
        return frozenset(pairs)


class ProductState:
    """A table on X x Y that is a state on the Cartesian product A x B."""

    def __init__(
        self,
        alice: TestSpace,
        bob: TestSpace,
        table: Mapping[Pair, float],
        tolerance: float = DEFAULT_TOL,
    ):
        for x in alice.outcomes:
            for y in bob.outcomes:
                if (x, y) not in table:
                    raise ValueError(f"table is missing the pair ({x!r}, {y!r})")
                v = table[(x, y)]
                # negated so that NaN, which fails every comparison, is refused too
                if not -tolerance <= v <= 1.0 + tolerance:
                    raise ValueError(f"table value {v} at ({x!r}, {y!r}) outside [0, 1]")
        for ea in alice.tests:
            for eb in bob.tests:
                s = sum(table[(x, y)] for x in ea for y in eb)
                if abs(s - 1.0) > tolerance:
                    raise ValueError(
                        f"product test {ea} x {eb} sums to {s}, not 1 within {tolerance}"
                    )
        self.alice = alice
        self.bob = bob
        self.table = {
            (x, y): float(table[(x, y)]) for x in alice.outcomes for y in bob.outcomes
        }
        self.tolerance = tolerance

    def __call__(self, x: str, y: str) -> float:
        return self.table[(x, y)]


def cartesian_tests(a: TestSpace, b: TestSpace) -> list[list[Pair]]:
    """All product tests E x F, one per pair of component tests."""
    return [[(x, y) for x in e for y in f] for e in a.tests for f in b.tests]


def _count_assignments(initiator: TestSpace, responder: TestSpace) -> int:
    return sum(len(responder.tests) ** len(e) for e in initiator.tests)


def forward_tests(a: TestSpace, b: TestSpace, cap: int = 20000) -> list[TwoStageTest]:
    """All two-stage tests where Alice initiates: every E and every map E -> B."""
    required = _count_assignments(a, b)
    if required > cap:
        raise CapExceededError(
            f"forward enumeration needs {required} tests, cap is {cap}", required=required
        )
    out = []
    for e in a.tests:
        for choice in iproduct(range(len(b.tests)), repeat=len(e)):
            assignment = tuple((x, b.tests[choice[i]]) for i, x in enumerate(e))
            out.append(TwoStageTest("forward", e, assignment))
    return out


def backward_tests(a: TestSpace, b: TestSpace, cap: int = 20000) -> list[TwoStageTest]:
    """All two-stage tests where Bob initiates: every F and every map F -> A."""
    required = _count_assignments(b, a)
    if required > cap:
        raise CapExceededError(
            f"backward enumeration needs {required} tests, cap is {cap}", required=required
        )
    out = []
    for f in b.tests:
        for choice in iproduct(range(len(a.tests)), repeat=len(f)):
            assignment = tuple((y, a.tests[choice[i]]) for i, y in enumerate(f))
            out.append(TwoStageTest("backward", f, assignment))
    return out


def fns_tests(a: TestSpace, b: TestSpace, cap: int = 20000) -> list[TwoStageTest]:
    """Two-stage tests in both directions, deduplicated by outcome set.

    Constant assignments reproduce the Cartesian tests, which therefore appear
    exactly once; the forward representative is kept on collisions.
    """
    seen: dict[frozenset[Pair], TwoStageTest] = {}
    out = []
    for t in forward_tests(a, b, cap) + backward_tests(a, b, cap):
        key = t.outcome_pairs()
        if key not in seen:
            seen[key] = t
            out.append(t)
    return out


def _resolve_test(space: TestSpace, test) -> tuple[str, ...]:
    if isinstance(test, int):
        if not 0 <= test < len(space.tests):
            raise ValueError(f"test index {test} out of range")
        return space.tests[test]
    t = tuple(test)
    for candidate in space.tests:
        if set(candidate) == set(t):
            return candidate
    raise ValueError(f"{t} is not a test of the given side")


def marginal(omega: ProductState, side: str, test) -> dict[str, float]:
    """Marginal of one side, summing the other side over one of its tests.

    `side` names the side the marginal lives on; `test` (index or outcome
    collection) must be a test of the *other* side.
    """
    if side == "alice":
        f = _resolve_test(omega.bob, test)
        return {x: sum(omega.table[(x, y)] for y in f) for x in omega.alice.outcomes}
    if side == "bob":
        e = _resolve_test(omega.alice, test)
        return {y: sum(omega.table[(x, y)] for x in e) for y in omega.bob.outcomes}
    raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")


@dataclass(frozen=True)
class DirectionReport:
    """Worst marginal deviation attributable to one direction of influence."""

    max_deviation: float
    outcome: str | None
    tests: tuple[int, int] | None


@dataclass(frozen=True)
class InfluenceVerdict:
    free: bool
    bob_to_alice: DirectionReport  # Alice's marginal moved by Bob's test choice
    alice_to_bob: DirectionReport
    max_deviation: float

    @property
    def direction(self) -> str | None:
        """Direction of the worst influence, None when free."""
        if self.free:
            return None
        if self.bob_to_alice.max_deviation >= self.alice_to_bob.max_deviation:
            return "bob->alice"
        return "alice->bob"


def _direction_report(
    outcomes: Sequence[str], sums_by_test: Mapping[str, list[float]]
) -> DirectionReport:
    worst, where = 0.0, None
    for x in outcomes:
        sums = sums_by_test[x]
        for i in range(len(sums)):
            for j in range(i + 1, len(sums)):
                d = abs(sums[i] - sums[j])
                if d > worst:
                    worst, where = d, (x, (i, j))
    if where is None:
        return DirectionReport(0.0, None, None)
    return DirectionReport(worst, where[0], where[1])


def is_influence_free(omega: ProductState, tol: float = 1e-10) -> InfluenceVerdict:
    """Check that each side's marginal ignores the other side's choice of test."""
    alice_sums = {
        x: [sum(omega.table[(x, y)] for y in f) for f in omega.bob.tests]
        for x in omega.alice.outcomes
    }
    bob_sums = {
        y: [sum(omega.table[(x, y)] for x in e) for e in omega.alice.tests]
        for y in omega.bob.outcomes
    }
    to_alice = _direction_report(omega.alice.outcomes, alice_sums)
    to_bob = _direction_report(omega.bob.outcomes, bob_sums)
    worst = max(to_alice.max_deviation, to_bob.max_deviation)
    return InfluenceVerdict(worst <= tol, to_alice, to_bob, worst)


def is_state_on_two_stage(
    omega: ProductState, tests: Iterable[TwoStageTest], tol: float = 1e-10
) -> bool:
    """True iff the table sums to 1 over every given two-stage test's outcomes."""
    for t in tests:
        s = sum(omega.table[pair] for pair in t.outcome_pairs())
        if abs(s - 1.0) > tol:
            return False
    return True


def condition(
    omega: ProductState, on: str, side: str = "alice", tol: float = DEFAULT_TOL
) -> dict[str, float]:
    """Conditional state of the other side given one observed outcome.

    Requires an influence-free input (otherwise the conditioning marginal
    depends on the other side's test and the quotient is ill-defined) and a
    conditioning outcome of probability above tol.
    """
    verdict = is_influence_free(omega, tol=max(tol, 1e-10))
    if not verdict.free:
        raise ValueError(
            f"conditioning needs an influence-free state; deviation "
            f"{verdict.max_deviation:.3e} ({verdict.direction})"
        )
    if side == "alice":
        p = marginal(omega, "alice", 0)[on]
        if p <= tol:
            raise ValueError(f"cannot condition on zero-probability outcome {on!r}")
        return {y: omega.table[(on, y)] / p for y in omega.bob.outcomes}
    if side == "bob":
        p = marginal(omega, "bob", 0)[on]
        if p <= tol:
            raise ValueError(f"cannot condition on zero-probability outcome {on!r}")
        return {x: omega.table[(x, on)] / p for x in omega.alice.outcomes}
    raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")


def bayes_mixture_check(
    omega: ProductState, alice_test, tol: float = DEFAULT_TOL
) -> float:
    """Largest gap in  sum_a w^A(a) w_a^B(y) = w^B(y)  over the given Alice test.

    Zero-probability Alice outcomes contribute 0 to the mixture by convention.
    """
    e = _resolve_test(omega.alice, alice_test)
    wa = marginal(omega, "alice", 0)
    wb = marginal(omega, "bob", 0)
    worst = 0.0
    for y in omega.bob.outcomes:
        mix = 0.0
        for a in e:
            p = wa[a]
            if p > tol:
                mix += p * (omega.table[(a, y)] / p)
        worst = max(worst, abs(mix - wb[y]))
    return worst


def operational_bayes_check(omega: ProductState, a: str, b: str) -> float:
    """Symmetric Bayes consistency |w_a(b)·w^A(a) − w_b(a)·w^B(b)|.

    Both sides equal w(a,b) for an influence-free state, so the residual is a
    pure floating-point quantity there.
    """
    wa = marginal(omega, "alice", 0)[a]
    wb = marginal(omega, "bob", 0)[b]
    if wa <= 0 or wb <= 0:
        raise ValueError("operational Bayes check needs strictly positive marginals")
    cond_b_given_a = omega.table[(a, b)] / wa
    cond_a_given_b = omega.table[(a, b)] / wb
    return abs(cond_b_given_a * wa - cond_a_given_b * wb)
