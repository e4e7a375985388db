"""End-to-end command line tests through run(); documents go through tmp files."""

import io
import json
import math

import numpy as np
import pytest

from influencefree.acceptance import TIME_BUDGETS
from influencefree.choimaps import state_eval, swap_operator, unnormalized_q
from influencefree.cli import run
from influencefree.jsonio import matrix_to_document
from influencefree.teleport import antisymmetric_projector


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def invoke_strict(capsys, *argv):
    """Like invoke, but stdout must be strict JSON (no NaN or Infinity tokens)."""
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_no_constant)


def _no_constant(name):
    raise AssertionError(f"stdout holds the non-JSON token {name}")


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def chain_space():
    return {"outcomes": ["a", "x", "b"], "tests": [["a", "x"], ["x", "b"]]}


def pr_box_doc():
    table = []
    for i in range(2):
        for a in range(2):
            for j in range(2):
                for b in range(2):
                    hit = (a ^ b) == (i & j)
                    table.append([f"a{i}{a}", f"b{j}{b}", 0.5 if hit else 0.0])
    return {
        "alice": {
            "outcomes": ["a00", "a01", "a10", "a11"],
            "tests": [["a00", "a01"], ["a10", "a11"]],
        },
        "bob": {
            "outcomes": ["b00", "b01", "b10", "b11"],
            "tests": [["b00", "b01"], ["b10", "b11"]],
        },
        "table": table,
    }


def signalling_doc():
    return {
        "alice": {
            "outcomes": ["a1", "a2", "a3"],
            "tests": [["a1", "a2"], ["a1", "a3"]],
        },
        "bob": {"outcomes": ["b1", "b2"], "tests": [["b1", "b2"]]},
        "table": [
            ["a1", "b1", 0.5],
            ["a1", "b2", 0.1],
            ["a2", "b1", 0.2],
            ["a2", "b2", 0.2],
            ["a3", "b1", 0.0],
            ["a3", "b2", 0.4],
        ],
    }


def complex_entries(vec_doc):
    return np.array([complex(re, im) for re, im in vec_doc["entries"]])


def test_verify_state_accepts_and_refutes(tmp_path, capsys):
    good = write_doc(
        tmp_path, "good.json",
        {"space": chain_space(), "table": {"a": 0.4, "x": 0.6, "b": 0.4}},
    )
    code, doc = invoke(capsys, "verify-state", good)
    assert code == 0
    assert doc["verdict"] == "state"
    bad = write_doc(
        tmp_path, "bad.json",
        {"space": chain_space(), "table": {"a": 0.3, "x": 0.6, "b": 0.4}},
    )
    code, doc = invoke(capsys, "verify-state", bad)
    assert code == 1
    assert doc["verdict"] == "not-state"
    assert doc["residual"] == pytest.approx(0.1)
    assert doc["witness"]["test"] == ["a", "x"]
    assert doc["witness"]["sum"] == pytest.approx(0.9)


def test_verify_state_rejects_nan_table_value(tmp_path, capsys):
    path = write_doc(
        tmp_path, "nan.json",
        {"space": chain_space(), "table": {"a": math.nan, "x": 0.6, "b": 0.4}},
    )
    code, doc = invoke_strict(capsys, "verify-state", path)
    assert code == 65
    assert doc["verdict"] == "malformed-input"
    assert "NaN" in doc["reason"]


def test_verify_state_multiset_space(tmp_path, capsys):
    path = write_doc(
        tmp_path, "multi.json",
        {
            "space": {
                "outcomes": ["u", "v"],
                "tests": [[{"outcome": "u", "multiplicity": 2}, "v"]],
            },
            "table": {"u": 0.25, "v": 0.5},
        },
    )
    code, doc = invoke(capsys, "verify-state", path)
    assert code == 0 and doc["verdict"] == "state"


def test_verify_state_missing_outcome_is_malformed(tmp_path, capsys):
    path = write_doc(
        tmp_path, "missing.json",
        {"space": chain_space(), "table": {"a": 0.5, "x": 0.5}},
    )
    code, doc = invoke(capsys, "verify-state", path)
    assert code == 65
    assert doc["verdict"] == "malformed-input"
    assert "b" in doc["reason"]


def test_verify_state_reads_stdin(capsys, monkeypatch):
    payload = {"space": chain_space(), "table": {"a": 0.4, "x": 0.6, "b": 0.4}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, doc = invoke(capsys, "verify-state")
    assert code == 0 and doc["verdict"] == "state"


def test_influence_free_verdicts(tmp_path, capsys):
    free = write_doc(tmp_path, "pr.json", pr_box_doc())
    code, doc = invoke(capsys, "influence-free", free)
    assert code == 0
    assert doc["verdict"] == "influence-free"
    assert doc["residual"] <= 1e-12
    signalling = write_doc(tmp_path, "sig.json", signalling_doc())
    code, doc = invoke(capsys, "influence-free", signalling)
    assert code == 1
    assert doc["verdict"] == "influenced"
    assert doc["alice_to_bob"] == pytest.approx(0.2)
    assert doc["bob_to_alice"] == pytest.approx(0.0, abs=1e-12)
    assert doc["witness"]["direction"] == "alice->bob"


def test_influence_free_rejects_nan_pair_value(tmp_path, capsys):
    doc = pr_box_doc()
    doc["table"][0][2] = math.nan
    code, out = invoke_strict(capsys, "influence-free", write_doc(tmp_path, "nan.json", doc))
    assert code == 65
    assert out["verdict"] == "malformed-input"


def test_fns_tests_counts_and_cap(tmp_path, capsys):
    path = write_doc(
        tmp_path, "pair.json",
        {
            "alice": {"outcomes": ["x1", "x2"], "tests": [["x1", "x2"]]},
            "bob": {
                "outcomes": ["y1", "y2", "y3"],
                "tests": [["y1", "y2"], ["y1", "y3"]],
            },
        },
    )
    code, doc = invoke(capsys, "fns-tests", path)
    assert code == 0
    assert doc["forward_count"] == 4
    assert doc["backward_count"] == 2
    assert doc["fns_count"] == 4
    assert len(doc["tests"]) == 4
    assert all(t["direction"] == "forward" for t in doc["tests"])
    code, doc = invoke(capsys, "fns-tests", path, "--cap", "3")
    assert code == 2
    assert doc["verdict"] == "inconclusive"
    assert doc["required"] == 4


def test_condition_success_refusal_and_unknown_outcome(tmp_path, capsys):
    free = dict(pr_box_doc(), on="a00", side="alice")
    code, doc = invoke(capsys, "condition", write_doc(tmp_path, "c1.json", free))
    assert code == 0
    assert doc["conditional"]["b00"] == pytest.approx(1.0)
    assert doc["conditional"]["b01"] == pytest.approx(0.0)
    influenced = dict(signalling_doc(), on="b1", side="bob")
    code, doc = invoke(capsys, "condition", write_doc(tmp_path, "c2.json", influenced))
    assert code == 1
    assert doc["verdict"] == "refused"
    assert "alice->bob" in doc["reason"]
    unknown = dict(pr_box_doc(), on="zzz", side="alice")
    code, doc = invoke(capsys, "condition", write_doc(tmp_path, "c3.json", unknown))
    assert code == 65


def test_bayes_check_consistent(tmp_path, capsys):
    path = write_doc(tmp_path, "pr.json", pr_box_doc())
    code, doc = invoke(capsys, "bayes-check", path)
    assert code == 0
    assert doc["verdict"] == "consistent"
    assert doc["residual"] <= 1e-12


def test_reconstruct_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = (g + g.conj().T) / 2
    path = write_doc(tmp_path, "w.json", matrix_to_document(w, (2, 2)))
    code, doc = invoke(capsys, "reconstruct", path)
    assert code == 0
    assert doc["verdict"] == "roundtrip-exact"
    assert doc["gap"] <= 1e-9
    bare = write_doc(tmp_path, "bare.json", matrix_to_document(w))
    code, doc = invoke(capsys, "reconstruct", bare, "--dims", "2,2")
    assert code == 0


def test_choi_of_described_maps(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", {"kind": "transpose", "dim": 2})
    code, doc = invoke(capsys, "choi", path)
    assert code == 0
    got = np.array(
        [complex(re, im) for re, im in doc["choi"]["entries"]]
    ).reshape(4, 4)
    assert np.allclose(got, swap_operator(2))
    assert doc["trace_choi"] == pytest.approx(2.0)
    assert doc["trace_phi_identity"] == pytest.approx(2.0)
    composed = write_doc(
        tmp_path, "comp.json",
        {
            "kind": "compose",
            "outer": {"kind": "transpose", "dim": 2},
            "inner": {"kind": "transpose", "dim": 2},
        },
    )
    code, doc = invoke(capsys, "choi", composed)
    assert code == 0
    got = np.array(
        [complex(re, im) for re, im in doc["choi"]["entries"]]
    ).reshape(4, 4)
    assert np.allclose(got, unnormalized_q(2))


def test_apply_map(tmp_path, capsys):
    path = write_doc(
        tmp_path, "a.json",
        {
            "map": {"kind": "identity", "dim": 2},
            "operand": matrix_to_document(np.array([[0.0, 1.0], [1.0, 0.0]])),
        },
    )
    code, doc = invoke(capsys, "apply-map", path)
    assert code == 0
    assert doc["result"]["entries"] == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]


def test_kraus_extraction_and_refusal(tmp_path, capsys):
    conj = write_doc(
        tmp_path, "conj.json",
        {"kind": "conjugation", "matrix": matrix_to_document(np.array([[1.0, 2.0], [0.0, 1.0]]))},
    )
    code, doc = invoke(capsys, "kraus", conj)
    assert code == 0
    assert doc["count"] == 1
    assert doc["residual"] <= 1e-10
    transpose = write_doc(tmp_path, "t.json", {"kind": "transpose", "dim": 2})
    code, doc = invoke(capsys, "kraus", transpose)
    assert code == 1
    assert doc["verdict"] == "not-completely-positive"


def test_cp_and_co_cp_checks(tmp_path, capsys):
    transpose = write_doc(tmp_path, "t.json", {"kind": "transpose", "dim": 2})
    code, doc = invoke(capsys, "cp-check", transpose)
    assert code == 1
    assert doc["verdict"] == "not-completely-positive"
    assert doc["min_value"] == pytest.approx(-1.0)
    assert doc["witness"]["length"] == 4
    code, doc = invoke(capsys, "co-cp-check", transpose)
    assert code == 0
    assert doc["verdict"] == "co-completely-positive"
    rect = write_doc(
        tmp_path, "rect.json",
        {"kind": "conjugation", "matrix": matrix_to_document(np.ones((3, 2)))},
    )
    code, doc = invoke(capsys, "co-cp-check", rect)
    assert code == 65


def test_ppt_check(tmp_path, capsys):
    entangled = write_doc(
        tmp_path, "q.json", matrix_to_document(unnormalized_q(2), (2, 2))
    )
    code, doc = invoke(capsys, "ppt-check", entangled)
    assert code == 1
    assert doc["verdict"] == "not-ppt"
    assert doc["min_value"] == pytest.approx(-1.0)
    product = write_doc(
        tmp_path, "p.json",
        matrix_to_document(np.diag([1.0, 2.0, 3.0, 4.0]), (2, 2)),
    )
    code, doc = invoke(capsys, "ppt-check", product)
    assert code == 0


def test_ppt_check_rejects_nan_entry(tmp_path, capsys):
    doc = matrix_to_document(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    doc["entries"][0][0] = math.nan
    code, out = invoke_strict(capsys, "ppt-check", write_doc(tmp_path, "nan.json", doc))
    assert code == 65
    assert out["verdict"] == "malformed-input"
    # an overflowing literal is non-finite too
    overflow = tmp_path / "inf.json"
    overflow.write_text(json.dumps(doc).replace("NaN", "1e999"))
    code, out = invoke_strict(capsys, "ppt-check", str(overflow))
    assert code == 65
    assert "1e999" in out["reason"]


def test_overflowing_result_is_malformed(tmp_path, capsys):
    # finite input whose Choi operator overflows: never emit an Infinity token
    big = {"kind": "conjugation", "matrix": matrix_to_document(np.diag([1e200, 1.0]))}
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = invoke_strict(capsys, "choi", write_doc(tmp_path, "big.json", big))
    assert code == 65
    assert out["verdict"] == "malformed-input"


def test_popt_certified_and_byte_stable(tmp_path, capsys):
    path = write_doc(
        tmp_path, "s.json", matrix_to_document(swap_operator(2) / 2, (2, 2))
    )
    code = run(["popt", path, "--seed", "1"])
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert code == 0
    assert doc["verdict"] == "certified-popt"
    assert doc["branch"] == "ppt"
    assert doc["psd"] is False
    assert run(["popt", path, "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    # config echoes every option that shaped the verdict
    assert doc["config"] == {
        "dims": [2, 2],
        "feas_tol": 1e-7,
        "max_iter": 20000,
        "restarts": 64,
        "seed": 1,
        "tol": 1e-9,
    }
    code, doc = invoke(capsys, "popt", path, "--seed", "1", "--max-iter", "7")
    assert doc["config"]["max_iter"] == 7


def test_popt_requires_seed(tmp_path, capsys):
    path = write_doc(
        tmp_path, "s.json", matrix_to_document(swap_operator(2) / 2, (2, 2))
    )
    code, doc = invoke(capsys, "popt", path)
    assert code == 64
    assert doc["verdict"] == "usage-error"
    assert "--seed" in doc["reason"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["ppt-check", "{w}", "--tol", "nan"], "--tol"),
        (["ppt-check", "{w}", "--tol", "-1"], "--tol"),
        (["ppt-check", "{w}", "--tol", "inf"], "--tol"),
        (["popt", "{w}", "--seed", "1", "--feas-tol=-inf"], "--feas-tol"),
        (["decompose", "{w}", "--max-iter", "0"], "--max-iter"),
        (["popt", "{w}", "--seed", "1", "--restarts", "0"], "--restarts"),
        (["popt", "{w}", "--seed", "1", "--restarts", "-3"], "--restarts"),
        (["pivot", "{w}", "--n", "0"], "--n"),
        (["witness-demo", "--n", "0"], "--n"),
        (["witness-demo", "--seed", "-1"], "--seed"),
        (["popt", "{w}", "--seed", "-1"], "--seed"),
        (["fns-tests", "{w}", "--cap", "0"], "--cap"),
    ],
)
def test_option_values_out_of_range_are_usage_errors(tmp_path, capsys, argv, option):
    # minus the swap is neither PSD nor PPT, so popt reaches the see-saw
    path = write_doc(tmp_path, "w.json", matrix_to_document(-swap_operator(2), (2, 2)))
    code, doc = invoke_strict(capsys, *[path if a == "{w}" else a for a in argv])
    assert code == 64
    assert doc["verdict"] == "usage-error"
    assert option in doc["reason"]


@pytest.mark.parametrize("command", ["pivot", "ppt-check"])
def test_dims_whose_product_wraps_in_int64_are_malformed(tmp_path, capsys, command):
    doc = matrix_to_document(np.eye(4) / 4)
    doc["dims"] = [4611686018427387905, 4]  # 2**64 + 4, which wraps to 4 in int64
    code, out = invoke_strict(capsys, command, write_doc(tmp_path, "w.json", doc))
    assert code == 65
    assert out["reason"].startswith("input.dims")


def test_popt_refuted_witness_re_evaluates(tmp_path, capsys):
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    path = write_doc(tmp_path, "w.json", matrix_to_document(w, (2, 2)))
    code, doc = invoke(capsys, "popt", path, "--seed", "5")
    assert code == 1
    assert doc["verdict"] == "refuted-popt"
    x = complex_entries(doc["witness"]["x"])
    y = complex_entries(doc["witness"]["y"])
    assert state_eval(w, (2, 2), x, y) == pytest.approx(doc["min_value"], abs=1e-12)


def test_decompose_member_closes_the_loop(tmp_path, capsys):
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = g @ g.conj().T
    path = write_doc(tmp_path, "w.json", matrix_to_document(w, (2, 2)))
    code, doc = invoke(capsys, "decompose", path)
    assert code == 0
    assert doc["verdict"] == "member"
    assert doc["certificate"]["residual"] <= 1e-7
    # feed the certificate back: p must pass cp-check as a Choi operator and
    # q must pass ppt-check
    p_map = write_doc(
        tmp_path, "p.json", {"kind": "choi", "matrix": doc["certificate"]["p"]}
    )
    code, _ = invoke(capsys, "cp-check", p_map, "--tol", "1e-8")
    assert code == 0
    q_path = write_doc(tmp_path, "q.json", doc["certificate"]["q"])
    code, _ = invoke(capsys, "ppt-check", q_path, "--tol", "1e-8")
    assert code == 0


def test_decompose_refuted(tmp_path, capsys):
    w = np.diag([1.0, 1.0, 1.0, -1.0])
    path = write_doc(tmp_path, "w.json", matrix_to_document(w, (2, 2)))
    code, doc = invoke(capsys, "decompose", path)
    assert code == 1
    assert doc["verdict"] == "refuted"
    assert doc["residual"] == pytest.approx(1.0, abs=1e-9)


def test_extremality_verdicts(tmp_path, capsys):
    rank_one = write_doc(
        tmp_path, "r1.json",
        matrix_to_document(1.5 * np.outer([1.0, 0.0], [1.0, 0.0])),
    )
    code, doc = invoke(capsys, "extremality", rank_one)
    assert code == 0
    assert doc["verdict"] == "decomposable-nontrivially"
    assert doc["certificate"]["rows"] == 4
    identity = write_doc(tmp_path, "id.json", matrix_to_document(np.eye(2)))
    code, doc = invoke(capsys, "extremality", identity, "--tol", "1e-9")
    assert code == 1
    assert doc["verdict"] == "rigid"
    assert doc["residual"] == pytest.approx(0.5)
    assert doc["witness"]["length"] == 4
    code, doc = invoke(capsys, "extremality", identity, "--max-iter", "10")
    assert code == 64
    rect = write_doc(tmp_path, "rect.json", matrix_to_document(np.ones((2, 3))))
    code, doc = invoke(capsys, "extremality", rect)
    assert code == 65


def test_pivot_sides(tmp_path, capsys):
    path = write_doc(tmp_path, "w.json", matrix_to_document(np.eye(4) / 4))
    code, doc = invoke(capsys, "pivot", path, "--side", "alice")
    assert code == 0
    assert doc["verdict"] == "identity-holds"
    assert doc["alpha"] == pytest.approx(0.25, abs=1e-12)
    assert doc["gap"] <= 1e-10
    code, doc = invoke(capsys, "pivot", path, "--side", "general", "--weyl", "1,1")
    assert code == 0
    assert doc["weyl"] == [1, 1]
    assert doc["bob_operator"]["rows"] == 4
    code, doc = invoke(capsys, "pivot", path, "--n", "3")
    assert code == 65
    odd = write_doc(tmp_path, "odd.json", matrix_to_document(np.eye(3) / 3))
    code, doc = invoke(capsys, "pivot", odd)
    assert code == 65
    assert "perfect square" in doc["reason"]


def test_corollary_negative_witness(tmp_path, capsys):
    path = write_doc(
        tmp_path, "wb.json",
        {
            "w": matrix_to_document(swap_operator(2) / 2),
            "b": matrix_to_document(antisymmetric_projector(2)),
        },
    )
    code, doc = invoke(capsys, "corollary", path)
    assert code == 0
    assert doc["verdict"] == "corollary-holds"
    assert doc["lhs"] == pytest.approx(-0.125, abs=1e-12)
    assert doc["negative"] is True
    bad = write_doc(
        tmp_path, "bad.json",
        {
            "w": matrix_to_document(swap_operator(2) / 2),
            "b": matrix_to_document(np.diag([1.0, 1.0, 1.0, -1.0])),
        },
    )
    code, doc = invoke(capsys, "corollary", bad)
    assert code == 65
    assert "positive semidefinite" in doc["reason"]


def test_witness_demo(capsys):
    code, doc = invoke(capsys, "witness-demo", "--n", "2", "--seed", "7")
    assert code == 0
    assert doc["verdict"] == "violation-exhibited"
    assert doc["negative_value"] == pytest.approx(-0.125, abs=1e-12)
    assert doc["popt"]["status"] == "certified"


def test_malformed_and_usage_errors(tmp_path, capsys):
    garbled = tmp_path / "g.json"
    garbled.write_text("{not json")
    code, doc = invoke(capsys, "verify-state", str(garbled))
    assert code == 65
    assert "invalid JSON" in doc["reason"]
    toplevel = tmp_path / "l.json"
    toplevel.write_text("[1, 2]")
    code, doc = invoke(capsys, "verify-state", str(toplevel))
    assert code == 65
    code, doc = invoke(capsys, "verify-state", str(tmp_path / "absent.json"))
    assert code == 65
    code, doc = invoke(capsys, "no-such-command")
    assert code == 64
    code, doc = invoke(capsys)
    assert code == 64


def test_selftest_runs_every_criterion(capsys):
    code = run(["selftest"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert [c["number"] for c in doc["criteria"]] == list(range(1, 12))
    assert all(c["passed"] for c in doc["criteria"])
    assert [c["budget"] for c in doc["criteria"]] == [
        TIME_BUDGETS[i] for i in range(1, 12)
    ]
    assert all(c["elapsed"] > 0 for c in doc["criteria"])
