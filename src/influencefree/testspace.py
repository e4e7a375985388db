"""Finite test spaces, their states, and the polytope of those states.

A test space is an outcome set X together with a covering family of non-empty
tests, each a set or a multiset of outcomes of X; a state assigns [0,1]
values whose multiplicity-weighted sum over every test is 1. Each space
carries its tests as a read-only incidence matrix (tests x outcomes, entries
the multiplicities), so a test sum is a matrix-vector product. Tables come
in as mappings outcome -> float and must be finite.

The states of a space form the polytope {f >= 0 : incidence · f = 1}. One
enumerator lists its vertices exactly, column subset by column subset, for
at most _SUBSET_CAP outcomes; the vertex count reads them, and the seeded
generators draw a space's states as mixtures of them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping

import numpy as np

from .linalg import DEFAULT_TOL, CapExceededError


@dataclass(frozen=True)
class TestSpace:
    """Outcome labels (ordered, opaque strings) plus a family of tests.

    A test entry is a label, counted once, or a (label, multiplicity)
    pair with an integer multiplicity (a bool is refused), and repeated
    entries add up. `tests` holds each test's outcomes once, in outcome
    order; `incidence` holds the multiplicities. Two spaces are equal when
    their outcomes, tests and multiplicities agree.
    """

    outcomes: tuple[str, ...]
    tests: tuple[tuple[str, ...], ...]
    incidence: np.ndarray = field(compare=False, repr=False)  # tests x outcomes
    _index: Mapping[str, int] = field(compare=False, repr=False)  # label -> position
    _multiplicities: tuple = field(repr=False)  # () if all are 1, else incidence rows

    def __init__(self, outcomes, tests):
        outcomes = tuple(map(str, outcomes))
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("duplicate outcome labels")
        index = {x: i for i, x in enumerate(outcomes)}
        rows, canon = [], []
        for t in tests:
            row, unknown = [0] * len(outcomes), []
            for e in t:
                if isinstance(e, tuple):
                    x, m = e
                    if isinstance(m, bool) or not hasattr(m, "__index__"):
                        raise ValueError(f"multiplicities must be integers, got {m!r}")
                    x, m = str(x), operator.index(m)
                    if m < 0:
                        raise ValueError("multiplicities must be non-negative")
                else:
                    x, m = str(e), 1
                i = index.get(x)
                if i is None:
                    unknown.append(x)
                else:
                    row[i] += m
            if unknown:
                raise ValueError(f"test contains unknown outcomes {unknown}")
            test = tuple(compress(outcomes, row))
            if not test:
                raise ValueError("each test needs at least one positive multiplicity")
            rows.append(row)
            canon.append(test)
        missing = set(outcomes).difference(*canon)
        if missing:
            raise ValueError(f"tests do not cover outcomes {sorted(missing)}")
        incidence = np.array(rows, dtype=float).reshape(len(rows), len(outcomes))
        incidence.flags.writeable = False
        multiset = sum(map(sum, rows)) > sum(map(len, canon))  # some multiplicity exceeds 1
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "tests", tuple(canon))
        object.__setattr__(self, "incidence", incidence)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_multiplicities", tuple(map(tuple, rows)) if multiset else ())

    def outcome_index(self, x: str) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise ValueError(f"unknown outcome {x!r}") from None


def _values(space: TestSpace, f: Mapping[str, float]) -> np.ndarray:
    """The table as a vector in outcome order; missing, unknown or non-finite values raise."""
    missing = [x for x in space.outcomes if x not in f]
    if missing:
        raise ValueError(f"table is missing outcomes {missing}")
    if len(f) > len(space.outcomes):  # every outcome was found, so the rest are unknown
        unknown = [x for x in f if x not in space._index]
        raise ValueError(f"table has values for unknown outcomes {unknown}")
    v = np.array([f[x] for x in space.outcomes], dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("table values must be finite")
    return v


def state_check(
    ts: TestSpace, f: Mapping[str, float], tol: float = DEFAULT_TOL
) -> tuple[bool, float, tuple[str, int | str, float] | None]:
    """(ok, residual, worst) for the table f on ts.

    ok: values lie in [0,1] and every incidence-weighted test sum is 1, within
    tol. residual: the largest distance of a value outside [0,1] or of a test
    sum from 1 (0 when there is none). worst, None when ok: ("test", index,
    sum) for the test whose sum is furthest from 1 when that is off by more
    than tol, else ("outcome", label, value) for the value furthest outside.
    """
    v = _values(ts, f)
    in_range = np.all((v >= -tol) & (v <= 1.0 + tol))
    sums = ts.incidence @ v
    sum_gap = np.abs(sums - 1.0)
    ok = bool(in_range and np.all(sum_gap <= tol))
    range_gap = np.maximum(-v, v - 1.0)
    residual = max(0.0, float(range_gap.max(initial=0.0)), float(sum_gap.max(initial=0.0)))
    if ok:
        return ok, residual, None
    r, x = int(sum_gap.argmax()), int(range_gap.argmax())
    if sum_gap[r] > tol:
        return ok, residual, ("test", r, float(sums[r]))
    return ok, residual, ("outcome", ts.outcomes[x], float(v[x]))


_SUBSET_CAP = 16  # most outcomes whose column subsets are enumerated
_SLAB = 4096  # column subsets per batched SVD, which bounds the stack's memory


def _vertices(a: np.ndarray) -> np.ndarray:
    """Vertices of {f >= 0 : a · f = 1}, one row each, zero off their support.

    A vertex is the exact solution on a set S of linearly independent
    columns, positive on S, and its support S determines it. So every
    column subset with |S| <= rank a is taken, as the incidence with the
    other columns zeroed, in slabs of _SLAB with one batched SVD each. The
    singular values above 1e-9 give the rank, and with U and V the
    least-squares solution; it is kept when the rank is |S| and the solution
    is exact and above 1e-9 on every column of S. More than _SUBSET_CAP
    outcomes raise CapExceededError.
    """
    m = a.shape[1]
    if m > _SUBSET_CAP:
        raise CapExceededError(
            f"{m} outcomes exceeds the vertex-enumeration cap {_SUBSET_CAP}", required=m
        )
    subsets = (np.arange(1, 2**m)[:, None] >> np.arange(m)) & 1
    subsets = subsets[subsets.sum(axis=1) <= np.linalg.matrix_rank(a, tol=1e-9)].astype(bool)
    kept = []
    for lo in range(0, len(subsets), _SLAB):
        slab = subsets[lo : lo + _SLAB]
        cols = a * slab[:, None, :]
        u, sv, vt = np.linalg.svd(cols, full_matrices=False)
        nonzero = sv > 1e-9
        # least squares: f = V · diag(1/sv) · U^T · 1 over the nonzero singular values
        f = (np.divide(u.sum(axis=1), sv, out=np.zeros_like(sv), where=nonzero)[:, None] @ vt)[:, 0]
        gap = (cols @ f[:, :, None])[:, :, 0] - 1.0
        independent = nonzero.sum(axis=1) == slab.sum(axis=1)
        exact = np.linalg.norm(gap, axis=1) <= 1e-9
        keep = independent & exact & ((f > 1e-9) | ~slab).all(axis=1)
        kept.append(f[keep] * slab[keep])
    return np.concatenate(kept) if kept else np.zeros((0, m))


def weight_space_dimension(ts: TestSpace) -> tuple[int, int]:
    """Dimension of the constant-test-sum space and state-polytope vertex count.

    The constant-sum space is {f : all test-sums equal}; its dimension is
    |X| minus the rank of the test-sum difference constraints. The vertices
    of {f >= 0, every test-sum = 1} are the rows of _vertices. More than
    _SUBSET_CAP outcomes raise CapExceededError.
    """
    m = len(ts.outcomes)
    a = ts.incidence
    vertices = len(_vertices(a))
    if len(ts.tests) <= 1:
        return m, vertices
    return m - int(np.linalg.matrix_rank(a[1:] - a[0], tol=1e-9)), vertices
