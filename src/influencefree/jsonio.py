"""JSON document encoding for the command line: matrices, spaces, tables.

Complex numbers travel as [re, im] pairs; matrices are row-major entry lists
with explicit shape, optionally annotated with tensor factor dimensions.
Decoding failures raise DocumentError with a one-line reason.  The test
space module loads only when a document holds a space.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .testspace import TestSpace


class DocumentError(ValueError):
    """The input document does not have the required shape."""


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise DocumentError(f"{where}.{key}: expected an integer")
    if not isinstance(value, kind):
        raise DocumentError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _is_number_type(t) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _complex_entries(entries, where) -> np.ndarray:
    """[re, im] pairs of numbers (bools excluded) as a flat complex array.

    The checks run over the set of types and lengths present, not entry by
    entry, and the array is built by one np.array call.
    """
    if (
        all(issubclass(t, (list, tuple)) for t in set(map(type, entries)))
        and set(map(len, entries)) == {2}
    ):
        parts = list(chain.from_iterable(entries))
        if all(map(_is_number_type, set(map(type, parts)))):
            return np.array(parts, dtype=float).view(complex)
    raise DocumentError(f"{where}: entries must be [re, im] number pairs")


def _pairs(a: np.ndarray) -> list:
    """Complex entries in row-major order as [re, im] float pairs."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


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
    m = _complex_entries(entries, where).reshape(rows, cols)
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
        "entries": _pairs(a),
    }
    if dims is not None:
        doc["dims"] = [int(d) for d in dims]
    return doc


def vector_to_document(v) -> dict:
    a = np.asarray(v, dtype=complex).reshape(-1)
    return {"length": int(a.shape[0]), "entries": _pairs(a)}


def testspace_from_document(doc, where: str = "space") -> TestSpace:
    """Decode a TestSpaceDocument. A test entry is a label, counted once, or an
    {"outcome", "multiplicity"} object, and repeated entries add up."""
    from .testspace import TestSpace

    outcomes = _require(doc, "outcomes", list, where)
    if not all(isinstance(x, str) for x in outcomes):
        raise DocumentError(f"{where}.outcomes: expected a list of strings")
    raw_tests = _require(doc, "tests", list, where)
    if not raw_tests:
        raise DocumentError(f"{where}.tests: at least one test is required")
    tests = []
    for i, t in enumerate(raw_tests):
        at = f"{where}.tests[{i}]"
        if not isinstance(t, list) or not t:
            raise DocumentError(f"{at}: expected a non-empty list")
        items = []
        for item in t:
            if isinstance(item, str):
                items.append(item)
            elif isinstance(item, dict):
                label = _require(item, "outcome", str, at)
                items.append((label, _require(item, "multiplicity", int, at)))
            else:
                raise DocumentError(
                    f'{at}: entries must be labels or {{"outcome", "multiplicity"}} objects'
                )
        tests.append(items)
    try:
        return TestSpace(outcomes, tests)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def testspace_to_document(space: TestSpace) -> dict:
    """A label for each multiplicity of 1, an object for any other."""
    tests = [
        [x if m == 1 else {"outcome": x, "multiplicity": int(m)}
         for x, m in zip(space.outcomes, row) if m]
        for row in space.incidence.tolist()
    ]
    return {"outcomes": list(space.outcomes), "tests": tests}


def value_table_from_document(doc, where: str = "table") -> dict[str, float]:
    """Decode {outcome label: number}."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object mapping labels to numbers")
    for k, v in doc.items():
        if not _is_number_type(type(v)):
            raise DocumentError(f"{where}[{k!r}]: expected a number")
    return {str(k): float(v) for k, v in doc.items()}


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
            or not _is_number_type(type(row[2]))
        ):
            raise DocumentError(f"{where}[{i}]: expected [x, y, value]")
        key = (row[0], row[1])
        if key in table:
            raise DocumentError(f"{where}[{i}]: duplicate pair {key}")
        table[key] = float(row[2])
    return table


def _coupled_spaces(doc) -> tuple[TestSpace, TestSpace]:
    """The set test spaces under a document's "alice" and "bob" fields."""
    alice = testspace_from_document(_require(doc, "alice", dict, "input"), "alice")
    bob = testspace_from_document(_require(doc, "bob", dict, "input"), "bob")
    if alice._multiplicities or bob._multiplicities:
        raise DocumentError("coupled test spaces need set tests, not multisets")
    return alice, bob


def product_state_documents(doc):
    """Split a ProductStateDocument into (alice space, bob space, pair table)."""
    return *_coupled_spaces(doc), pair_table_from_document(_require(doc, "table", list, "input"))


def two_stage_test_to_document(t) -> dict:
    return {
        "direction": t.direction,
        "first": list(t.first),
        "assignment": [[x, list(resp)] for x, resp in t.assignment],
        "pairs": sorted([x, y] for x, y in t.outcome_pairs()),
    }
