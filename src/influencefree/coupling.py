"""Products of two test spaces and influence-freedom analysis.

Covers the Cartesian product (simultaneous tests E x F), the two-stage
products where one side measures first and the other side's test may depend
on the first outcome, their union (two-stage tests in either direction,
deduplicated as outcome sets), marginals, conditional states, and the Bayes
consistency identities. The central equivalence: a table is a state on every
forward two-stage test exactly when Alice's marginal does not depend on
Bob's choice of test (and mirrored).

A table on X x Y is held as a |X| x |Y| array and each side's tests as its
incidence matrix, so every sum over test cells is a matrix product. Each
state computes its two marginals under the other side's test 0 once, when
first asked, for the conditioning and Bayes checks.
A one-sided test is named by its incidence row index, any integer but a
bool. Two-stage enumeration needs set tests and refuses a space with a
multiplicity above 1. An enumeration (a TwoStageTests) names each two-stage
test by two indices, its initiating test and its place in itertools.product
order, and builds the test's TwoStageTest when it is indexed; it holds
nothing else. fns_tests finds its duplicate rows from the tests: a row
repeats within a direction only through a repeated test, and a backward row
is a forward one when its tests fit together as one, which only a constant
pick or tests nested on both sides allow. A state is checked on a
direction's two-stage tests through its least and greatest assignments, two
matrix products of the table, without summing any test's cells.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from itertools import product as iproduct
from typing import Mapping

import numpy as np

from .linalg import DEFAULT_TOL, CapExceededError
from .testspace import TestSpace

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
        """The (alice, bob) outcome pairs this test can produce."""
        if self.direction == "forward":
            return frozenset(chain.from_iterable(iproduct((x,), r) for x, r in self.assignment))
        return frozenset(chain.from_iterable(iproduct(r, (y,)) for y, r in self.assignment))


class ProductState:
    """A table on X x Y that is a state on the Cartesian product A x B.

    `values[i, j]` is the (read-only) value at (alice.outcomes[i], bob.outcomes[j]).
    `marginals` is computed from the values when first read and kept.
    """

    def __init__(
        self,
        alice: TestSpace,
        bob: TestSpace,
        table: Mapping[Pair, float],
        tolerance: float = DEFAULT_TOL,
    ):
        try:
            cells = list(map(table.__getitem__, iproduct(alice.outcomes, bob.outcomes)))
        except KeyError as exc:
            raise ValueError(f"table is missing the pair {exc.args[0]}") from None
        if len(table) > len(cells):  # every pair of X x Y was found, so the rest lie outside it
            pairs = set(iproduct(alice.outcomes, bob.outcomes))
            raise ValueError(f"table has pairs outside X x Y {[k for k in table if k not in pairs]}")
        values = np.array(cells, dtype=float).reshape(len(alice.outcomes), len(bob.outcomes))
        # negated so that NaN, which fails every comparison, is refused too
        outside = ~((values >= -tolerance) & (values <= 1.0 + tolerance))
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(
                f"table value {values[i, j]} at ({alice.outcomes[i]!r}, "
                f"{bob.outcomes[j]!r}) outside [0, 1]"
            )
        sums = alice.incidence @ values @ bob.incidence.T
        off = np.abs(sums - 1.0) > tolerance
        if off.any():
            r, c = np.argwhere(off)[0]
            raise ValueError(
                f"product test {alice.tests[r]} x {bob.tests[c]} sums to {sums[r, c]}, "
                f"not 1 within {tolerance}"
            )
        values.flags.writeable = False
        self.alice = alice
        self.bob = bob
        self.values = values

    def __call__(self, x: str, y: str) -> float:
        return float(self.values[self.alice.outcome_index(x), self.bob.outcome_index(y)])

    @cached_property
    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """(w^A, w^B), read-only: Alice's marginal summed over Bob's test 0 and
        Bob's summed over Alice's test 0, as marginal(self, side, 0) gives them.
        A side without tests has no test 0, so neither marginal is defined."""
        for side, space in (("alice", self.alice), ("bob", self.bob)):
            if not space.tests:
                raise ValueError(f"{side} has no tests, so the state has no marginals")
        wa = self.values @ self.bob.incidence[0]
        wb = self.alice.incidence[0] @ self.values
        wa.flags.writeable = wb.flags.writeable = False
        return wa, wb


class TwoStageTests(Sequence):
    """Enumerated two-stage tests, each named by a head and a code.

    Row t was enumerated for `heads[block[t]]`, a (direction, initiating
    test, responding tests) triple, and the base-r digits of `code[t]`, its
    place in itertools.product order, are the responses picked. Indexing
    builds the row's TwoStageTest, whose outcome_pairs() are its cells.
    `axes` are the (alice, bob) outcome orders the tests were enumerated on.
    """

    def __init__(self, axes, heads, block: np.ndarray, code: np.ndarray):
        if len(block) != len(code):
            raise ValueError(f"{len(block)} blocks and {len(code)} codes")
        # a row's block and code describe one test, so neither may change alone
        block.flags.writeable = code.flags.writeable = False
        self.axes, self.heads, self.block, self.code = axes, tuple(heads), block, code

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, i) -> TwoStageTest:
        i = range(len(self))[operator.index(i)]  # negative i counts from the end
        direction, first, responses = self.heads[self.block[i]]
        code, r = int(self.code[i]), len(responses)
        picks = []
        for _ in first:
            code, c = divmod(code, r)
            picks.append(responses[c])
        return TwoStageTest(direction, first, tuple(zip(first, reversed(picks))))

    def __iter__(self):
        # not Sequence's default, which ends quietly at any IndexError
        return map(self.__getitem__, range(len(self)))


def _heads(direction: str, a: TestSpace, b: TestSpace, cap: int):
    """One direction's heads, one per initiating test E, and the sizes r^|E|
    of their blocks, refused when they sum above cap; a space with a
    multiplicity above 1 is refused first."""
    if a._multiplicities or b._multiplicities:
        raise ValueError("coupled test spaces need set tests, not multisets")
    first, second = (a, b) if direction == "forward" else (b, a)
    heads = [(direction, e, second.tests) for e in first.tests]
    sizes = [len(second.tests) ** len(e) for e in first.tests]
    required = sum(sizes)
    if required > cap:
        raise CapExceededError(
            f"{direction} enumeration needs {required} tests, cap is {cap}", required=required
        )
    return heads, sizes


def _block_code(sizes) -> tuple[np.ndarray, np.ndarray]:
    """Each row's head and its place in that head's block, for whole blocks
    of the given sizes in head order."""
    starts = list(accumulate(sizes, initial=0))
    block = np.repeat(np.arange(len(sizes)), sizes)
    return block, np.arange(starts[-1]) - np.array(starts[:-1], np.intp)[block]


def _one_direction(direction: str, a: TestSpace, b: TestSpace, cap: int) -> TwoStageTests:
    """The two-stage tests of one direction, named by their heads and codes."""
    heads, sizes = _heads(direction, a, b, cap)
    return TwoStageTests((a.outcomes, b.outcomes), heads, *_block_code(sizes))


def forward_tests(a: TestSpace, b: TestSpace, cap: int = 20000) -> TwoStageTests:
    """All two-stage tests where Alice initiates: every E and every map E -> B."""
    return _one_direction("forward", a, b, cap)


def backward_tests(a: TestSpace, b: TestSpace, cap: int = 20000) -> TwoStageTests:
    """All two-stage tests where Bob initiates: every F and every map F -> A."""
    return _one_direction("backward", a, b, cap)


def _also_forward(a: TestSpace, b: TestSpace, f: tuple[str, ...]) -> np.ndarray:
    """Whether each backward row (F, y -> E_y) of Bob test F, in code order,
    is also a forward row: U = ∪ E_y is an Alice test and, for each x in U,
    {y in F : x in E_y} is a Bob test. Such a set is a bit pattern, F's first
    outcome the highest bit, as its pick is the highest digit of the code."""
    in_e, columns = a.incidence > 0, np.zeros((1, len(a.outcomes)), np.intp)
    for _ in f:  # columns[t, x]: the pattern of the y whose pick E_y holds x
        columns = (2 * columns[:, None] + in_e).reshape(-1, len(a.outcomes))
    bit = {y: 1 << i for i, y in enumerate(reversed(f))}
    bob_test = np.zeros(1 << len(f), bool)  # and pattern 0, for an x not in U
    bob_test[[0] + [sum(map(bit.get, g)) for g in b.tests if bit.keys() >= set(g)]] = True
    # |U Δ E| = |U| - 2 |U ∩ E| + |E|, zero exactly when U is the Alice test E
    spread = (columns != 0) @ (1 - 2 * a.incidence.T) + a.incidence.sum(1)
    return (spread == 0).any(1) & bob_test[columns].all(1)


def fns_tests(a: TestSpace, b: TestSpace, cap: int = 20000) -> TwoStageTests:
    """Two-stage tests in both directions, deduplicated by outcome set.

    The forward then the backward rows are each kept at the first occurrence
    of their outcome set, so the forward representative wins on collisions.
    Duplicates are found from the tests: within a direction only a repeated
    test repeats a row, and a backward row is a forward row when its picks
    are constant, the Cartesian test, which therefore appears exactly once,
    or when tests nest on both sides and _also_forward says so. The cap
    applies to each direction.
    """
    heads, sizes = _heads("forward", a, b, cap)
    back_heads, back_sizes = _heads("backward", a, b, cap)
    block, code = _block_code(sizes + back_sizes)
    sets = [list(map(frozenset, s.tests)) for s in (a, b)]
    # a repeated test repeats its first copy's block, or as a response the
    # row of its block that picks the first copy, a lower digit
    firsts = [np.array([s.index(e) == j for j, e in enumerate(s)], bool) for s in sets]
    keep = np.concatenate(firsts)[block]
    n, starts = sum(sizes), list(accumulate(sizes + back_sizes, initial=0))
    for rows, responding in ((slice(n), firsts[1]), (slice(n, None), firsts[0])):
        digits = code[rows]
        while not responding.all() and digits.any():  # digits 0 pick test 0, a first copy
            keep[rows] &= responding[digits % len(responding)]
            digits = digits // len(responding)
    # the constant pick E_y = E_j, the Cartesian test E_j x F, is coded j (1 + r + ... + r^(|F|-1))
    r = len(a.tests)
    repunits = [sum(r**i for i in range(len(f))) for f in b.tests]
    keep[[lo + j * u for lo, u in zip(starts[len(heads) :], repunits) for j in range(r)]] = False
    if all(any(e < f for e in s for f in s) for s in sets):  # tests nest on both sides
        for h in np.unique(block[n:][keep[n:]]).tolist():
            keep[starts[h] : starts[h + 1]] &= ~_also_forward(a, b, b.tests[h - len(heads)])
    axes = (a.outcomes, b.outcomes)
    return TwoStageTests(axes, heads + back_heads, block[keep], code[keep])


def _test_index(space: TestSpace, test) -> int:
    """Any integer (numpy's included, bool refused) as an incidence row index."""
    if isinstance(test, bool) or not hasattr(test, "__index__"):
        raise ValueError(f"a test is named by its incidence row index, got {test!r}")
    i = operator.index(test)
    if not 0 <= i < len(space.tests):
        raise ValueError(f"test index {i} out of range")
    return i


def marginal(omega: ProductState, side: str, test) -> dict[str, float]:
    """Marginal of one side, summing the other side over one of its tests.

    `side` names the side the marginal lives on; `test` is the incidence
    row index of a test of the *other* side.
    """
    if side == "alice":
        f = omega.bob.incidence[_test_index(omega.bob, test)]
        return dict(zip(omega.alice.outcomes, (omega.values @ f).tolist()))
    if side == "bob":
        e = omega.alice.incidence[_test_index(omega.alice, test)]
        return dict(zip(omega.bob.outcomes, (e @ omega.values).tolist()))
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
    def worst(self) -> DirectionReport:
        """The report with the larger deviation; bob_to_alice on a tie."""
        if self.bob_to_alice.max_deviation >= self.alice_to_bob.max_deviation:
            return self.bob_to_alice
        return self.alice_to_bob

    @property
    def direction(self) -> str | None:
        """Direction of the worst influence, None when free."""
        if self.free:
            return None
        return "bob->alice" if self.worst is self.bob_to_alice else "alice->bob"


def _direction_report(outcomes: tuple[str, ...], sums: np.ndarray) -> DirectionReport:
    """Largest |sums[x, i] - sums[x, j]|, i < j, first in (x, (i, j)) order on ties;
    sums[x, k] is the marginal at outcome x under the other side's test k."""
    n = sums.shape[1]
    gaps = np.abs(sums[:, :, None] - sums[:, None, :]).ravel()
    if not gaps.any():  # no gap above 0, or none at all: a side without tests
        return DirectionReport(0.0, None, None)
    # each block gaps[x] is symmetric with a zero diagonal, so the first
    # maximum in flat order is the lexicographically first (i, j) with i < j
    k = int(gaps.argmax())
    x, ij = divmod(k, n * n)
    return DirectionReport(float(gaps[k]), outcomes[x], divmod(ij, n))


def is_influence_free(omega: ProductState, tol: float = 1e-10) -> InfluenceVerdict:
    """Check that each side's marginal ignores the other side's choice of test."""
    to_alice = _direction_report(omega.alice.outcomes, omega.values @ omega.bob.incidence.T)
    to_bob = _direction_report(omega.bob.outcomes, (omega.alice.incidence @ omega.values).T)
    worst = max(to_alice.max_deviation, to_bob.max_deviation)
    return InfluenceVerdict(worst <= tol, to_alice, to_bob, worst)


def is_state_on_two_stage(omega: ProductState, tests: TwoStageTests, tol: float = 1e-10) -> bool:
    """True iff the table sums to 1 within tol over every two-stage test of
    each direction that `tests.heads` names, whichever of its rows `tests`
    holds: a TwoStageTests built by hand on some rows answers for them all.

    A forward test sums r[x, F_x] over x in an Alice test E, with
    r = values · B.incidenceᵀ. Each x picks its F_x alone, so over all maps
    the sums for E run exactly from Σ_x min_F r[x, F] to Σ_x max_F r[x, F],
    both attained. Backward is the mirror, with r = (A.incidence · values)ᵀ,
    and fns tests are both. No marginal is read, so this stays a check of
    the influence verdict by another path. `tests` must be a TwoStageTests
    enumerated on omega's outcome orders; anything else raises ValueError.
    """
    axes = (omega.alice.outcomes, omega.bob.outcomes)
    if not (isinstance(tests, TwoStageTests) and tests.axes == axes):
        raise ValueError("two-stage tests must be a TwoStageTests enumerated on the state's axes")
    a, b, values = omega.alice.incidence, omega.bob.incidence, omega.values
    for direction in {head[0] for head in tests.heads}:
        first, r = (a, values @ b.T) if direction == "forward" else (b, (a @ values).T)
        # an empty r: a side without tests, so there is no two-stage test to sum
        ends = first @ np.column_stack((r.min(1), r.max(1))) if r.size else 1.0
        if not np.all(np.abs(ends - 1.0) <= tol):
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
    if side == "alice":
        k = omega.alice.outcome_index(on)
        row, other = omega.values[k], omega.bob
    elif side == "bob":
        k = omega.bob.outcome_index(on)
        row, other = omega.values[:, k], omega.alice
    else:
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    verdict = is_influence_free(omega, tol=max(tol, 1e-10))
    if not verdict.free:
        raise ValueError(
            f"conditioning needs an influence-free state; deviation "
            f"{verdict.max_deviation:.3e} ({verdict.direction})"
        )
    p = omega.marginals[0 if side == "alice" else 1][k]
    if p <= tol:
        raise ValueError(f"cannot condition on zero-probability outcome {on!r}")
    return dict(zip(other.outcomes, (row / p).tolist()))


def bayes_mixture_check(
    omega: ProductState, alice_test, tol: float = DEFAULT_TOL
) -> float:
    """Largest gap in  sum_a w^A(a) w_a^B(y) = w^B(y)  over the given Alice test.

    `alice_test` is the test's incidence row index. Zero-probability Alice
    outcomes contribute 0 to the mixture by convention.
    """
    e = omega.alice.incidence[_test_index(omega.alice, alice_test)]
    return _mixture_gap(omega.values, e, *omega.marginals, tol)


def _mixture_gap(values: np.ndarray, e: np.ndarray, wa, wb, tol: float) -> float:
    """bayes_mixture_check on the table `values` over the row-side test `e`,
    with wa and wb the row and column marginals."""
    keep = (e > 0) & (wa > tol)
    p = wa[keep, None]
    mix = (p * (values[keep] / p)).sum(axis=0)
    return float(np.abs(mix - wb).max())


def operational_bayes_check(omega: ProductState, a: str, b: str) -> float:
    """Symmetric Bayes consistency |w_a(b)·w^A(a) − w_b(a)·w^B(b)|.

    Both sides are w(a,b) up to rounding on any table, so the residual is a
    pure floating-point quantity and cannot refute; bayes_residuals omits it.
    """
    i, j = omega.alice.outcome_index(a), omega.bob.outcome_index(b)
    wa, wb = omega.marginals
    wa, wb = wa.item(i), wb.item(j)
    if wa <= 0 or wb <= 0:
        raise ValueError("operational Bayes check needs strictly positive marginals")
    v = omega.values.item(i, j)
    return abs(v / wa * wa - v / wb * wb)


def bayes_residuals(omega: ProductState, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Worst bayes_mixture_check over Alice's tests and over Bob's (on the
    table with the sides swapped); both are rounding on a free table.
    The swapped table is a fresh C-order copy of the transposed values, with
    its marginals computed in that layout rather than read from `marginals`,
    since `values @ e` and `e @ values.T` round differently."""
    wa, wb = omega.marginals
    mixture_alice = max(_mixture_gap(omega.values, e, wa, wb, tol) for e in omega.alice.incidence)
    t = np.ascontiguousarray(omega.values.T)
    tb, ta = t @ omega.alice.incidence[0], omega.bob.incidence[0] @ t
    mixture_bob = max(_mixture_gap(t, f, tb, ta, tol) for f in omega.bob.incidence)
    return mixture_alice, mixture_bob
