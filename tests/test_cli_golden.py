"""Golden CLI regression: one fixed request per subcommand and verdict branch.

`cli_golden.json` holds, for each request, its input documents, its argv
("{name}" stands for the path of the document `name`), its exit code and its
parsed stdout, as recorded from the CLI. Keys, verdicts, labels and exit
codes must match exactly; floats within 1e-12 relative to max(1, |expected|),
since BLAS builds differ in the last bits. Inputs have non-degenerate
spectra, so reported eigenvectors are unique up to the phase LAPACK picks.
Branches that only rounding reaches (corollary-gap, roundtrip-mismatch) and
selftest are left out.

The expectations are recorded, not derived; regenerate them only for a
deliberate output change, and review the diff:
    PYTHONPATH=src python tests/test_cli_golden.py
To re-record only some entries and leave every other line byte-identical:
    PYTHONPATH=src python tests/test_cli_golden.py --only NAME [NAME ...]
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from influencefree.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _invoke(case, workdir):
    paths = {}
    for name, doc in case["files"].items():
        path = Path(workdir) / f"{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths["{" + name + "}"] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([paths.get(a, a) for a in case["argv"]])
    return code, json.loads(out.getvalue())


def _assert_same(got, want, where):
    assert type(got) is type(want), f"{where}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _dump(cases) -> str:
    """The corpus file's text: one entry per line, sorted by name."""
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(cases.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_golden_file_is_as_the_recorder_writes_it():
    # so that --only rewrites the named entries and no other byte
    assert GOLDEN.read_text() == _dump(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # choi/overflow
def test_cli_output_matches_golden(name, tmp_path):
    case = CASES[name]
    code, out = _invoke(case, tmp_path)
    assert code == case["code"]
    _assert_same(out, case["stdout"], "stdout")


def _requests():
    """The requests, as {case name: (argv, {document name: document})}."""
    import numpy as np

    from influencefree.jsonio import matrix_to_document as mdoc
    from influencefree.linalg import partial_transpose
    from test_cones import face_centre_operator, swap_factors

    rng = np.random.default_rng(20261018)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def hermitian(d):
        g = gauss(d, d)
        return (g + g.conj().T) / 2

    def psd(d, rank=None):
        g = gauss(d, rank or d)
        return g @ g.conj().T

    def trace_one(w):
        return w + (1 - np.trace(w).real) * np.eye(len(w)) / len(w)

    def conj_map(a):
        return {"kind": "conjugation", "matrix": mdoc(a)}

    chain = {"outcomes": ["a", "x", "b"], "tests": [["a", "x"], ["x", "b"]]}
    pr_rows = [
        [f"a{i}{a}", f"b{j}{b}", 0.5 if (a ^ b) == (i & j) else 0.0]
        for i in range(2) for a in range(2) for j in range(2) for b in range(2)
    ]
    pr_box = {
        "alice": {"outcomes": ["a00", "a01", "a10", "a11"], "tests": [["a00", "a01"], ["a10", "a11"]]},
        "bob": {"outcomes": ["b00", "b01", "b10", "b11"], "tests": [["b00", "b01"], ["b10", "b11"]]},
        "table": pr_rows,
    }
    signalling = {
        "alice": {"outcomes": ["a1", "a2", "a3"], "tests": [["a1", "a2"], ["a1", "a3"]]},
        "bob": {"outcomes": ["b1", "b2"], "tests": [["b1", "b2"]]},
        "table": [["a1", "b1", 0.5], ["a1", "b2", 0.1], ["a2", "b1", 0.2],
                  ["a2", "b2", 0.2], ["a3", "b1", 0.0], ["a3", "b2", 0.4]],
    }
    pair = {
        "alice": {"outcomes": ["x1", "x2"], "tests": [["x1", "x2"]]},
        "bob": {"outcomes": ["y1", "y2", "y3"], "tests": [["y1", "y2"], ["y1", "y3"]]},
    }
    entangled = psd(4, 1)
    decomposable = psd(4, 3) + partial_transpose(psd(4, 1), (2, 2), 1)
    a2, a3 = gauss(2, 2), gauss(3, 3)
    w4, w9 = trace_one(hermitian(4)), trace_one(hermitian(9))
    nan_doc = mdoc(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    big = {"kind": "conjugation", "matrix": mdoc(np.diag([1e200, 1.0]))}
    one = ["{doc}"]

    def req(argv, doc):
        return (argv, {"doc": doc})

    return {
        "verify-state/state": req(["verify-state", *one], {"space": chain, "table": {"a": 0.4, "x": 0.6, "b": 0.4}}),
        "verify-state/sum": req(["verify-state", *one], {"space": chain, "table": {"a": 0.3, "x": 0.6, "b": 0.4}}),
        "verify-state/range": req(["verify-state", *one], {
            "space": {"outcomes": ["u", "v"], "tests": [["u", "v"]]}, "table": {"u": -0.25, "v": 1.25}}),
        "verify-state/multiset": req(["verify-state", *one], {
            "space": {"outcomes": ["u", "v"], "tests": [[{"outcome": "u", "multiplicity": 2}, "v"]]},
            "table": {"u": 0.25, "v": 0.5}}),
        "verify-state/missing-outcome": req(["verify-state", *one], {"space": chain, "table": {"a": 0.5, "x": 0.5}}),
        "verify-state/missing-field": req(["verify-state", *one], {"space": chain}),
        "verify-state/nan": req(["verify-state", *one], '{"space": {"outcomes": ["u"], "tests": [["u"]]}, "table": {"u": NaN}}'),
        "verify-state/invalid-json": req(["verify-state", *one], "{not json"),
        "verify-state/top-level-list": req(["verify-state", *one], "[1, 2]"),
        "influence-free/free": req(["influence-free", *one], pr_box),
        "influence-free/influenced": req(["influence-free", *one], signalling),
        "influence-free/not-a-state": req(["influence-free", *one], dict(pr_box, table=pr_rows[:-1] + [pr_rows[-1][:2] + [0.7]])),
        "fns-tests/enumerated": req(["fns-tests", *one], pair),
        "fns-tests/cap": req(["fns-tests", *one, "--cap", "3"], pair),
        "condition/conditioned": req(["condition", *one, "--tol", "1e-8"], dict(pr_box, on="a00", side="alice")),
        "condition/bob-side": req(["condition", *one], dict(pr_box, on="b10", side="bob")),
        "condition/refused": req(["condition", *one], dict(signalling, on="a1", side="alice")),
        "condition/unknown-outcome": req(["condition", *one], dict(pr_box, on="zzz")),
        "condition/bad-side": req(["condition", *one], dict(pr_box, on="a00", side="carol")),
        "bayes-check/consistent": req(["bayes-check", *one], pr_box),
        "bayes-check/inconsistent": req(["bayes-check", *one], signalling),
        "reconstruct/exact": req(["reconstruct", *one], mdoc(hermitian(4), (2, 2))),
        "reconstruct/flag-dims": req(["reconstruct", *one, "--dims", "2,3"], mdoc(hermitian(6))),
        "reconstruct/no-dims": req(["reconstruct", *one], mdoc(hermitian(4))),
        "reconstruct/dims-mismatch": req(["reconstruct", *one, "--dims", "2,3"], mdoc(hermitian(4))),
        "choi/conjugation": req(["choi", *one], conj_map(a2)),
        "choi/compose": req(["choi", *one], {"kind": "compose", "outer": conj_map(a3), "inner": {"kind": "transpose", "dim": 3}}),
        "choi/basis-transpose": req(["choi", *one], {
            "kind": "basis-transpose", "map": conj_map(a2), "basis": mdoc(np.linalg.qr(gauss(2, 2))[0])}),
        "choi/choi-kind": req(["choi", *one], {"kind": "choi", "matrix": mdoc(psd(6)), "din": 2, "dout": 3}),
        "choi/unknown-kind": req(["choi", *one], {"kind": "mystery"}),
        "choi/overflow": req(["choi", *one], big),
        "apply-map/applied": req(["apply-map", *one], {"map": conj_map(a3), "operand": mdoc(hermitian(3))}),
        "apply-map/wrong-operand": req(["apply-map", *one], {"map": conj_map(a3), "operand": mdoc(hermitian(2))}),
        "kraus/kraus": req(["kraus", *one], {"kind": "choi", "matrix": mdoc(psd(4), (2, 2))}),
        "kraus/refused": req(["kraus", *one], {"kind": "choi", "matrix": mdoc(hermitian(4), (2, 2))}),
        "cp-check/yes": req(["cp-check", *one], {"kind": "choi", "matrix": mdoc(psd(9), (3, 3))}),
        "cp-check/no": req(["cp-check", *one, "--tol", "1e-7"], {"kind": "choi", "matrix": mdoc(hermitian(4), (2, 2))}),
        "co-cp-check/yes": req(["co-cp-check", *one], {"kind": "transpose", "dim": 2}),
        "co-cp-check/no": req(["co-cp-check", *one], conj_map(a3)),
        "co-cp-check/rectangular": req(["co-cp-check", *one], conj_map(np.ones((3, 2)))),
        "ppt-check/ppt": req(["ppt-check", *one], mdoc(np.kron(psd(2), psd(3)) + np.kron(psd(2), psd(3)), (2, 3))),
        "ppt-check/not-ppt": req(["ppt-check", *one], mdoc(entangled, (2, 2))),
        "ppt-check/flag-dims": req(["ppt-check", *one, "--dims", "2,2", "--tol", "0"], mdoc(entangled)),
        "ppt-check/nan": req(["ppt-check", *one], json.dumps(nan_doc).replace("0.1", "NaN", 1)),
        "ppt-check/non-square": req(["ppt-check", *one], mdoc(gauss(4, 3))),
        "ppt-check/bad-dims": req(["ppt-check", *one], mdoc(hermitian(4), (3, 2))),
        "ppt-check/no-dims": req(["ppt-check", *one], mdoc(hermitian(4))),
        "ppt-check/non-hermitian": req(["ppt-check", *one], mdoc(gauss(4, 4), (2, 2))),
        "ppt-check/usage-dims": req(["ppt-check", *one, "--dims", "2,x"], mdoc(hermitian(4))),
        "popt/psd": req(["popt", *one, "--seed", "3"], mdoc(psd(4), (2, 2))),
        "popt/ppt": req(["popt", *one, "--seed", "3"], mdoc(partial_transpose(entangled, (2, 2), 1), (2, 2))),
        "popt/decomposition": req(["popt", *one, "--seed", "3"], mdoc(decomposable, (2, 2))),
        "popt/refuted": req(["popt", *one, "--seed", "3", "--restarts", "8"], mdoc(refuted := hermitian(6), (2, 3))),
        # the same operator with its factors exchanged: the vertex look reads Bob's qubit
        "popt/refuted-bob-qubit": req(["popt", *one, "--seed", "3"], mdoc(swap_factors(refuted, (2, 3)), (3, 2))),
        # its least vertex value is +0.053 and its product minimum -0.05: the see-saw refutes
        "popt/refuted-face-centre": req(["popt", *one, "--seed", "3"], mdoc(face_centre_operator((2, 2)), (2, 2))),
        "popt/likely": req(["popt", *one, "--seed", "3", "--max-iter", "1", "--feas-tol", "1e-6"], mdoc(decomposable, (2, 2))),
        "popt/missing-seed": req(["popt", *one], mdoc(psd(4), (2, 2))),
        "decompose/member": req(["decompose", *one], mdoc(decomposable, (2, 2))),
        "decompose/refuted": req(["decompose", *one], mdoc(np.diag([1.0, 2.0, 3.0, -4.0]), (2, 2))),
        "decompose/inconclusive": req(["decompose", *one, "--max-iter", "1"], mdoc(decomposable, (2, 2))),
        "decompose/tiny-scale": req(["decompose", *one], mdoc(1e-300 * np.diag([1.0, 1.0, 1.0, -1.0]), (2, 2))),
        "decompose/huge-scale": req(["decompose", *one], mdoc(1e300 * np.diag([1.0, 1.0, 1.0, -1.0]), (2, 2))),
        "extremality/split": req(["extremality", *one], mdoc(np.outer(gauss(3), gauss(3)))),
        "extremality/rigid": req(["extremality", *one, "--tol", "1e-6"], mdoc(a3)),
        "extremality/rectangular": req(["extremality", *one], mdoc(np.ones((2, 3)))),
        "extremality/max-iter": req(["extremality", *one, "--max-iter", "10"], mdoc(a2)),
        "pivot/alice": req(["pivot", *one], mdoc(w4)),
        "pivot/bob": req(["pivot", *one, "--side", "bob"], mdoc(w4)),
        "pivot/general": req(["pivot", *one, "--side", "general", "--weyl", "1,-1"], mdoc(w9)),
        "pivot/violated": req(["pivot", *one, "--n", "2"], mdoc(hermitian(4))),
        "pivot/general-violated": req(["pivot", *one, "--side", "general", "--weyl", "0,1"], mdoc(hermitian(4))),
        "pivot/n-mismatch": req(["pivot", *one, "--n", "3"], mdoc(w4)),
        "pivot/not-square": req(["pivot", *one], mdoc(hermitian(3))),
        "pivot/usage-weyl": req(["pivot", *one, "--weyl", "1"], mdoc(w4)),
        "pivot/usage-side": req(["pivot", *one, "--side", "carol"], mdoc(w4)),
        "corollary/holds": req(["corollary", *one], {"w": mdoc(w4), "b": mdoc(psd(4))}),
        "corollary/n-flag": req(["corollary", *one, "--n", "2"], {"w": mdoc(w4), "b": mdoc(psd(4, 2))}),
        "corollary/not-psd": req(["corollary", *one], {"w": mdoc(w4), "b": mdoc(np.diag([1.0, 1.0, 1.0, -1.0]))}),
        "corollary/missing-b": req(["corollary", *one], {"w": mdoc(w4)}),
        "corollary/huge-not-psd": req(["corollary", *one], {
            "w": mdoc(np.eye(4) / 4), "b": mdoc(1e160 * np.diag([1.0, 1.0, 1.0, -0.5]))}),
        "witness-demo/exhibited": (["witness-demo", "--n", "2", "--seed", "7"], {}),
        "witness-demo/exhibited-n3": (["witness-demo", "--n", "3", "--seed", "7"], {}),
        "usage/unknown-command": (["no-such-command"], {}),
        "usage/no-command": ([], {}),
        "usage/bad-tol": req(["ppt-check", *one, "--tol", "x"], mdoc(hermitian(4))),
    }


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Record the golden CLI corpus.")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="re-record only these entries")
    only = parser.parse_args().only
    requests = _requests()
    unknown = sorted(set(only or ()) - set(requests))
    if unknown:
        parser.error(f"no such request: {', '.join(unknown)}")
    recorded = dict(CASES) if only else {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, (argv, files) in requests.items():
            if only and name not in only:
                continue
            case = {"argv": argv, "files": files}
            code, out = _invoke(case, workdir)
            recorded[name] = dict(case, code=code, stdout=out)
            print(f"{name}: exit {code} {out['verdict']}", file=sys.stderr)
    GOLDEN.write_text(_dump(recorded))
