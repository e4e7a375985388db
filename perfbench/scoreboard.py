"""Acceptance scoreboard for the traced run: each criterion's time beside its budget.

Budgets are parsed (read only) from TIME_BUDGETS in tests/test_acceptance.py,
so a budget change shows up here. The suite runs in a fresh interpreter with a
deadline, so a slow machine cannot push the traced run past its time limit;
criteria that did not report by then read as missing.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

from tracer import MISSING

N_CRITERIA = 11

# run_all() returns only when every criterion is done; calling CRITERIA in
# the same order streams each result, so a deadline keeps those finished
_SUITE = """
import json
from influencefree.acceptance import CRITERIA
for criterion in CRITERIA:
    res = criterion()
    print(json.dumps([res.number, res.name, res.passed, res.elapsed]), flush=True)
"""


def budgets(root: Path) -> dict[int, float]:
    try:
        tree = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TIME_BUDGETS" for t in node.targets
        ):
            try:
                return {int(k): float(v) for k, v in ast.literal_eval(node.value).items()}
            except (ValueError, TypeError):
                return {}
    return {}


def run(root: Path, env: dict, deadline_s: float) -> tuple[dict[str, float], dict]:
    """Run the acceptance criteria once, untraced, for at most deadline_s."""
    limits = budgets(root)
    with subprocess.Popen([sys.executable, "-c", _SUITE], cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline_s))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    results = {}
    for line in out.splitlines():
        number, name, passed, elapsed = json.loads(line)
        results[number] = (name, passed, elapsed)
    metrics: dict[str, float] = {}
    detail = {}
    for i in range(1, N_CRITERIA + 1):
        name, passed, elapsed = results.get(i, (None, None, MISSING))
        budget = limits.get(i)
        metrics[f"acceptance.c{i:02d}_s"] = elapsed
        metrics[f"acceptance.c{i:02d}_budget_share"] = (
            elapsed / budget if i in results and budget else MISSING
        )
        detail[f"c{i:02d}"] = {"name": name, "passed": passed, "elapsed_s": elapsed, "budget_s": budget}
    return metrics, detail
