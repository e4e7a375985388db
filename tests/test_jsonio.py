"""Document decoding and encoding for the command line."""

import json

import numpy as np
import pytest

# the space codec names start with "test", so alias them out of pytest's way
from influencefree.jsonio import (
    DocumentError,
    matrix_from_document,
    matrix_to_document,
    pair_table_from_document,
    product_state_documents,
    two_stage_test_to_document,
    value_table_from_document,
    vector_to_document,
)
from influencefree.jsonio import testspace_from_document as space_from_document
from influencefree.jsonio import testspace_to_document as space_to_document
from influencefree.coupling import forward_tests
from influencefree.testspace import TestSpace


def test_matrix_roundtrip_with_dims():
    m = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
    doc = matrix_to_document(m, dims=(2, 1))
    back, dims = matrix_from_document(doc)
    assert np.array_equal(back, m)
    assert dims == (2, 1)
    doc2 = matrix_to_document(m)
    _, dims2 = matrix_from_document(doc2)
    assert dims2 is None


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 2, "entries": []},
        {"rows": 2, "cols": 2, "entries": [[1, 0]] * 3},
        {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], "x"]},
        {"rows": 2, "cols": 2, "entries": [[1, 0, 0]] + [[0, 0]] * 3},
        {"rows": 2, "cols": 2, "entries": [[1, 0]] * 4, "dims": [3]},
        {"rows": 2, "cols": 2, "entries": [[1, 0]] * 4, "dims": ["2"]},
        {"rows": 2, "cols": 3, "entries": [[1, 0]] * 6, "dims": [2, 3]},
        # the product is 2**64 + 4, which wraps to 4 in int64
        {"rows": 4, "cols": 4, "entries": [[1, 0]] * 16, "dims": [4611686018427387905, 4]},
    ],
)
def test_matrix_document_rejections(doc):
    with pytest.raises(DocumentError):
        matrix_from_document(doc)


@pytest.mark.parametrize(
    "entry",
    [
        [True, 0], [0, False], [np.bool_(True), 0], ["1", 0], [1, None], [np.int64(1), 0], [1j, 0],
        [1], [1, 2, 3], [], [[1, 2], [3, 4]], [[1], 0], "ab", 1, 1.5, None, {"re": 1, "im": 0},
    ],
)
@pytest.mark.parametrize("place", [0, 3])
def test_malformed_matrix_entries_share_one_reason(entry, place):
    entries = [[1, 0], [0, 0], [0, 0], [1, 0]]
    entries[place] = entry
    with pytest.raises(DocumentError) as err:
        matrix_from_document({"rows": 2, "cols": 2, "entries": entries}, "input")
    assert str(err.value) == "input: entries must be [re, im] number pairs"


def test_matrix_entries_keep_every_bit():
    rng = np.random.default_rng(5)
    drawn = [[float(a), int(b)] for a, b in zip(rng.normal(size=60), rng.integers(-2**62, 2**62, 60))]
    entries = [[-0.0, 0.0], [2**53 + 1, 0], (1.5, -0.0), [5e-324, -1e308]]
    for rows, cols, doc_entries in ((2, 2, entries), (8, 8, entries + drawn)):
        back, _ = matrix_from_document({"rows": rows, "cols": cols, "entries": doc_entries})
        # the reference: one complex() per entry
        expected = np.array([complex(*e) for e in doc_entries]).reshape(rows, cols)
        assert back.tobytes() == expected.tobytes()
    # encoding writes the same floats, signed zeros included
    encoded = json.dumps(matrix_to_document(back[0, :4].reshape(2, 2))["entries"])
    assert encoded == "[[-0.0, 0.0], [9007199254740992.0, 0.0], [1.5, -0.0], [5e-324, -1e+308]]"
    assert json.dumps(vector_to_document(back[0, 2:4])["entries"]) == "[[1.5, -0.0], [5e-324, -1e+308]]"


def test_vector_document():
    doc = vector_to_document(np.array([1.0, 1.0j]))
    assert doc == {"length": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}


def test_testspace_roundtrip():
    doc = {"outcomes": ["a", "x", "b"], "tests": [["a", "x"], ["x", "b"]]}
    space = space_from_document(doc)
    assert isinstance(space, TestSpace)
    assert space_to_document(space) == doc


def test_testspace_multiset_detection():
    doc = {
        "outcomes": ["u", "v"],
        "tests": [[{"outcome": "u", "multiplicity": 2}, "v"]],
    }
    space = space_from_document(doc)
    assert isinstance(space, TestSpace)
    assert np.array_equal(space.incidence, [[2, 1]])
    # a label for multiplicity 1, an object otherwise: the document round-trips
    assert space_to_document(space) == doc
    # an object of multiplicity 1 and a repeated label are read the same way
    ones = {"outcomes": ["u", "v"], "tests": [[{"outcome": "u", "multiplicity": 1}, "v"]]}
    assert space_to_document(space_from_document(ones)) == {"outcomes": ["u", "v"], "tests": [["u", "v"]]}
    repeated = space_from_document({"outcomes": ["a", "b"], "tests": [["a", "a", "b"]]})
    assert np.array_equal(repeated.incidence, [[2, 1]])


@pytest.mark.parametrize(
    "doc",
    [
        {"outcomes": ["a"], "tests": []},
        {"outcomes": ["a", 1], "tests": [["a"]]},
        {"outcomes": ["a"], "tests": [[]]},
        {"outcomes": ["a"], "tests": [[3]]},
        {"outcomes": ["a"], "tests": [["b"]]},  # unknown label, from TestSpace
        {"outcomes": ["a", "b", "c"], "tests": [["a", "a", "b"]]},  # multisets must cover too
    ],
)
def test_testspace_document_rejections(doc):
    with pytest.raises(DocumentError):
        space_from_document(doc)


def test_value_table_decoding():
    assert value_table_from_document({"a": 1, "b": 0.5}) == {"a": 1.0, "b": 0.5}
    with pytest.raises(DocumentError):
        value_table_from_document({"a": True})
    with pytest.raises(DocumentError):
        value_table_from_document([["a", 1]])


def test_pair_table_roundtrip_and_duplicate_rejection():
    rows = [["a", "b", 0.5], ["a", "c", 0.5]]
    table = pair_table_from_document(rows)
    assert table == {("a", "b"): 0.5, ("a", "c"): 0.5}
    assert [[x, y, v] for (x, y), v in sorted(table.items())] == rows
    with pytest.raises(DocumentError, match="duplicate"):
        pair_table_from_document(rows + [["a", "b", 0.1]])
    with pytest.raises(DocumentError):
        pair_table_from_document([["a", "b"]])


def test_product_state_documents_rejects_multisets():
    doc = {
        "alice": {"outcomes": ["a"], "tests": [["a"]]},
        "bob": {
            "outcomes": ["u"],
            "tests": [[{"outcome": "u", "multiplicity": 2}]],
        },
        "table": [["a", "u", 1.0]],
    }
    with pytest.raises(DocumentError, match="multiset"):
        product_state_documents(doc)
    # multiplicity 1 written as an object is a set test
    for bob in ([["u"]], [[{"outcome": "u", "multiplicity": 1}]]):
        doc["bob"] = {"outcomes": ["u"], "tests": bob}
        alice, bob, table = product_state_documents(doc)
        assert alice.outcomes == ("a",)
        assert bob.outcomes == ("u",)
        assert table == {("a", "u"): 1.0}


def test_two_stage_test_document_shape():
    alice = TestSpace(["a1", "a2"], [("a1", "a2")])
    bob = TestSpace(["b1", "b2"], [("b1", "b2")])
    t = forward_tests(alice, bob)[0]
    doc = two_stage_test_to_document(t)
    assert doc["direction"] == "forward"
    assert doc["first"] == ["a1", "a2"]
    assert sorted(x for x, _ in doc["assignment"]) == ["a1", "a2"]
    assert doc["pairs"] == sorted([x, y] for x, y in t.outcome_pairs())
