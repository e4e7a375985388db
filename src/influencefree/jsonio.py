"""JSON document encoding for the command line: matrices, spaces, tables.

Complex numbers travel as [re, im] pairs; matrices are row-major entry lists
with explicit shape, optionally annotated with tensor factor dimensions.
Decoding failures raise DocumentError with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np

from .testspace import ETestSpace, TestSpace


class DocumentError(ValueError):
    """The input document does not have the required shape."""


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(f"{where}.{key}: expected a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DocumentError(f"{where}.{key}: expected an integer")
        return value
    if not isinstance(value, kind):
        raise DocumentError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _entry_to_complex(e, where):
    if (
        not isinstance(e, (list, tuple))
        or len(e) != 2
        or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in e)
    ):
        raise DocumentError(f"{where}: entries must be [re, im] number pairs")
    return complex(e[0], e[1])


def matrix_from_document(doc, where: str = "matrix") -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Decode a MatrixDocument; returns (array, dims or None)."""
    rows = _require(doc, "rows", int, where)
    cols = _require(doc, "cols", int, where)
    if rows < 1 or cols < 1:
        raise DocumentError(f"{where}: rows and cols must be positive")
    entries = _require(doc, "entries", list, where)
    if len(entries) != rows * cols:
        raise DocumentError(
            f"{where}: {len(entries)} entries for a {rows}x{cols} matrix"
        )
    flat = [_entry_to_complex(e, where) for e in entries]
    m = np.array(flat, dtype=complex).reshape(rows, cols)
    dims = None
    if "dims" in doc:
        raw = doc["dims"]
        if not isinstance(raw, list) or not raw or any(
            isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in raw
        ):
            raise DocumentError(f"{where}.dims: expected a list of positive integers")
        dims = tuple(raw)
        if math.prod(dims) != rows or rows != cols:
            raise DocumentError(
                f"{where}.dims: product {math.prod(dims)} does not match a "
                f"square {rows}x{cols} matrix"
            )
    return m, dims


def matrix_to_document(m, dims=None) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("matrix_to_document expects a 2-d array")
    doc = {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }
    if dims is not None:
        doc["dims"] = [int(d) for d in dims]
    return doc


def vector_to_document(v) -> dict:
    a = np.asarray(v, dtype=complex).reshape(-1)
    return {
        "length": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a],
    }


def testspace_from_document(doc, where: str = "space") -> TestSpace | ETestSpace:
    """Decode a TestSpaceDocument.

    Tests given as label lists produce a TestSpace; tests containing
    {"outcome", "multiplicity"} objects produce an ETestSpace (plain labels
    in the same document count as multiplicity one).
    """
    outcomes = _require(doc, "outcomes", list, where)
    if not all(isinstance(x, str) for x in outcomes):
        raise DocumentError(f"{where}.outcomes: expected a list of strings")
    raw_tests = _require(doc, "tests", list, where)
    if not raw_tests:
        raise DocumentError(f"{where}.tests: at least one test is required")
    multiset = False
    tests = []
    for i, t in enumerate(raw_tests):
        if not isinstance(t, list) or not t:
            raise DocumentError(f"{where}.tests[{i}]: expected a non-empty list")
        items = []
        for item in t:
            if isinstance(item, str):
                items.append((item, 1))
            elif isinstance(item, dict):
                multiset = True
                label = _require(item, "outcome", str, f"{where}.tests[{i}]")
                mult = _require(item, "multiplicity", int, f"{where}.tests[{i}]")
                items.append((label, mult))
            else:
                raise DocumentError(
                    f"{where}.tests[{i}]: entries must be labels or "
                    '{"outcome", "multiplicity"} objects'
                )
        tests.append(items)
    try:
        if multiset:
            merged = []
            for items in tests:
                counts: dict[str, int] = {}
                for label, mult in items:
                    counts[label] = counts.get(label, 0) + mult
                merged.append(tuple(counts.items()))
            return ETestSpace(outcomes, merged)
        return TestSpace(outcomes, [tuple(label for label, _ in items) for items in tests])
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def testspace_to_document(space: TestSpace | ETestSpace) -> dict:
    if isinstance(space, ETestSpace):
        tests = [
            [{"outcome": x, "multiplicity": m} for x, m in t] for t in space.tests
        ]
    else:
        tests = [list(t) for t in space.tests]
    return {"outcomes": list(space.outcomes), "tests": tests}


def value_table_from_document(doc, where: str = "table") -> dict[str, float]:
    """Decode {outcome label: number}."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object mapping labels to numbers")
    out = {}
    for k, v in doc.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DocumentError(f"{where}[{k!r}]: expected a number")
        out[str(k)] = float(v)
    return out


def pair_table_from_document(doc, where: str = "table") -> dict[tuple[str, str], float]:
    """Decode [[alice label, bob label, number], ...]."""
    if not isinstance(doc, list):
        raise DocumentError(f"{where}: expected a list of [x, y, value] triples")
    table = {}
    for i, row in enumerate(doc):
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not isinstance(row[0], str)
            or not isinstance(row[1], str)
            or isinstance(row[2], bool)
            or not isinstance(row[2], (int, float))
        ):
            raise DocumentError(f"{where}[{i}]: expected [x, y, value]")
        key = (row[0], row[1])
        if key in table:
            raise DocumentError(f"{where}[{i}]: duplicate pair {key}")
        table[key] = float(row[2])
    return table


def pair_table_to_document(table) -> list:
    return [[x, y, float(v)] for (x, y), v in sorted(table.items())]


def product_state_documents(doc):
    """Split a ProductStateDocument into (alice space, bob space, pair table)."""
    alice = testspace_from_document(_require(doc, "alice", dict, "input"), "alice")
    bob = testspace_from_document(_require(doc, "bob", dict, "input"), "bob")
    if isinstance(alice, ETestSpace) or isinstance(bob, ETestSpace):
        raise DocumentError("coupled-state commands need set tests, not multisets")
    table = pair_table_from_document(_require(doc, "table", list, "input"))
    return alice, bob, table


def two_stage_test_to_document(t) -> dict:
    return {
        "direction": t.direction,
        "first": list(t.first),
        "assignment": [[x, list(resp)] for x, resp in t.assignment],
        "pairs": sorted([x, y] for x, y in t.outcome_pairs()),
    }
