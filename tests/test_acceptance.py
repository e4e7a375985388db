"""Acceptance gate: every criterion must pass within its time budget.

Each criterion prints one visible [PASS]/[FAIL] line with its measured detail
so the run log shows the full scoreboard even when everything is green.
"""

import hashlib

import pytest

from influencefree import acceptance
from influencefree.acceptance import CRITERIA
from influencefree.coupling import ProductState, is_influence_free

# The gate reads acceptance.TIME_BUDGETS. This literal copy stays only because
# perfbench/scoreboard.py parses it from this file; the first test keeps the
# two equal.
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


def test_criteria_are_numbered_in_order():
    assert len(CRITERIA) == 11
    assert TIME_BUDGETS == acceptance.TIME_BUDGETS
    assert sorted(acceptance.TIME_BUDGETS) == list(range(1, 12))
    for i, criterion in enumerate(CRITERIA):
        assert criterion.__name__ == f"criterion_{i + 1}"


@pytest.mark.parametrize(
    "criterion",
    CRITERIA,
    ids=[f"criterion-{i:02d}" for i in range(1, len(CRITERIA) + 1)],
)
def test_acceptance_criterion(criterion, capsys):
    res = criterion()
    tag = "PASS" if res.passed else "FAIL"
    with capsys.disabled():
        print(
            f"\n[{tag}] criterion {res.number} {res.name}: "
            f"{res.detail} ({res.elapsed:.2f}s)"
        )
    assert res.passed, f"criterion {res.number} {res.name}: {res.detail}"
    budget = acceptance.TIME_BUDGETS[res.number]
    assert res.elapsed < budget, (
        f"criterion {res.number} took {res.elapsed:.2f}s, budget {budget:.0f}s"
    )


# Defined after the gate, so criterion 5 still pays for generating its
# instances inside its own timing and this test reads the cached tuple.
def test_criterion_5_instances_are_pinned():
    # sha256 over each instance's space labels and kind, then each table cell
    # as its labels and the float.hex of its value, in the table's order
    digest = hashlib.sha256()
    # signalling tables by direction: (Bob to Alice, Alice to Bob) at criterion 5's tolerance
    directions = {(True, False): 0, (False, True): 0, (True, True): 0}
    for alice, bob, table, kind in acceptance._shared_instances():
        digest.update(repr((alice.outcomes, alice.tests, bob.outcomes, bob.tests, kind)).encode())
        for (x, y), value in table.items():
            digest.update(f"{x} {y} {float(value).hex()}\n".encode())
        if kind == "signalling":
            verdict = is_influence_free(ProductState(alice, bob, table), tol=1e-10)
            reports = (verdict.bob_to_alice, verdict.alice_to_bob)
            directions[tuple(r.max_deviation > 1e-10 for r in reports)] += 1
    assert digest.hexdigest() == (
        "121b333921e11a10d246c5e3477203ae9dee23ed99e12986adedd862c68ac5f2"
    )
    # one-way tables in each direction and two-way tables all occur
    assert sum(directions.values()) == 250
    assert min(directions.values()) >= 25, directions
