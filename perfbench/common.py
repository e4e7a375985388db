"""Shared pieces of the benchmark: operations, the closed loop, failure accounting.

An operation is one call into the package (or one CLI process) plus an
independent check of what came back. The loop issues operations one at a time
(one client, closed loop) over a fixed cycle of operations and times each from
issue to return; checks run between operations with the clock stopped.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Verdict:
    """What a check concluded about one operation's output.

    `causes` is empty when the output passed. `decided` is None for operations
    that cannot end undecided, else whether this one reached a verdict.
    """

    causes: list[str] = field(default_factory=list)
    decided: bool | None = None

    def fail(self, cause: str) -> None:
        self.causes.append(cause)


@dataclass
class Op:
    """One operation of a workload cycle.

    `run` performs the call and returns a compact result (large library
    objects are reduced to what the check needs before they are returned, so a
    cycle never holds them). `check` verifies that result with the
    benchmark's own numpy code. `known_defect` names a documented defect this
    input exposes; a failure whose causes all lie in `known_causes` is counted
    as failed but does not make the run incorrect.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    known_defect: str | None = None
    known_causes: frozenset = frozenset()


class Ledger:
    """Counts attempted, failed (by cause) and decided operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected_failures = 0
        self.causes: Counter = Counter()
        self.known: Counter = Counter()
        self.decidable = 0
        self.decided = 0
        self.by_kind: dict[str, list[float]] = {}

    def record(self, op: Op, result, error: BaseException | None, seconds: float) -> None:
        self.attempted += 1
        self.by_kind.setdefault(op.kind, []).append(seconds)
        if error is not None:
            verdict = Verdict([f"{op.kind.split('/')[0]}: raised {type(error).__name__}"])
        else:
            try:
                verdict = op.check(result)
            except Exception as exc:  # a check that cannot read the output fails the op
                verdict = Verdict([f"{op.kind.split('/')[0]}: output unreadable ({type(exc).__name__}: {exc})"])
        if verdict.decided is not None:
            self.decidable += 1
            self.decided += int(verdict.decided)
        if verdict.causes:
            self.failed += 1
            self.causes.update(verdict.causes)
            if op.known_defect and set(verdict.causes) <= op.known_causes:
                self.known[op.known_defect] += 1
            else:
                self.unexpected_failures += 1

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / max(1, self.attempted),
            "failed_by_cause": dict(sorted(self.causes.items())),
            "failed_on_known_defects": dict(sorted(self.known.items())),
            "unexpected_failures": self.unexpected_failures,
            "decidable": self.decidable,
            "decided": self.decided,
            "per_kind": {
                k: {"count": len(v), "median_ms": 1e3 * statistics.median(v), "total_s": sum(v)}
                for k, v in sorted(self.by_kind.items())
            },
        }


def run_loop(
    cycles: list[list[Op]],
    seconds: float,
    ledger: Ledger,
    n_cycles: int | None = None,
) -> tuple[int, float, list[float]]:
    """Issue whole cycles of operations back to back; return (cycles, busy s, latencies).

    Without `n_cycles`, the loop stops at the cycle boundary nearest to
    `seconds` of measured operation time (at least one cycle), so every run
    measures the same mix of operations whatever its speed. Cycle k uses the
    k-th generated input set, wrapping around the pool.
    """
    busy = 0.0
    latencies: list[float] = []
    done = 0
    while True:
        for op in cycles[done % len(cycles)]:
            error = None
            result = None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as a failed operation, never fatal
                error = exc
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            ledger.record(op, result, error, dt)
        done += 1
        if n_cycles is not None:
            if done >= n_cycles:
                break
        elif busy + busy / done / 2.0 >= seconds:
            break
    return done, busy, latencies


def percentile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile in ms (statistics.quantiles, exclusive method)."""
    if len(latencies) < 2:
        return 1e3 * latencies[0]
    return 1e3 * statistics.quantiles(latencies, n=100)[q - 1]


class Digest:
    """sha256 over every generated input, so two runs can show equal inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, bytes):
                self._h.update(item)
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()
