"""cli-requests: one fresh `python -m influencefree.cli` process per request.

The only workload that exercises `cli`, `jsonio` and the input boundary, one
request at a time as a shell user runs them, on documents written at set-up.
A cycle is 60 requests: mostly cheap subcommands (verify-state,
influence-free, ppt-check, cp-check, choi, kraus, pivot at n = 2-3,
reconstruct), a few heavier ones (popt, decompose, witness-demo --n 3), and
six malformed documents (10 %) whose expected exit code is 65: a NaN table
value, a NaN matrix entry, an Infinity table value, a non-square matrix, bad
dims and a missing field. Matrices run from 4x4 to 81x81. The two NaN
documents expose the known defect that non-finite input is not rejected.

Latency runs from process spawn to exit. The traced run replays the same
requests in-process through `influencefree.cli.run`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import refmath as R
import wl_coupled as C
from common import Digest, Op, Verdict

DEFECT = "CLI documents containing NaN are not rejected with exit 65"
DEFECT_CAUSES = frozenset({
    "cli: non-finite input not rejected with exit 65",
    "cli: stdout is not strict JSON",
})


def _strict(token):
    raise ValueError(f"non-JSON token {token}")


def matrix_doc(m: np.ndarray, dims=None) -> dict:
    doc = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)],
    }
    if dims is not None:
        doc["dims"] = list(dims)
    return doc


def doc_matrix(doc: dict) -> np.ndarray:
    e = np.array(doc["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(doc["rows"], doc["cols"])


def doc_vector(doc: dict) -> np.ndarray:
    e = np.array(doc["entries"], dtype=float)
    return e[:, 0] + 1j * e[:, 1]


def space_doc(prefix: str, tests) -> dict:
    return {
        "outcomes": [f"{prefix}{i}" for i in range(C.n_outcomes(tests))],
        "tests": [[f"{prefix}{i}" for i in t] for t in tests],
    }


class Request:
    """One CLI request: argv after the module name, expected exit and verdict."""

    def __init__(self, kind, argv, code, verdict, payload_check=None, decidable=False, defect=False):
        self.kind, self.argv, self.code, self.verdict = kind, argv, code, verdict
        self.payload_check = payload_check
        self.decidable = decidable
        self.defect = defect

    def check(self, res) -> Verdict:
        code, stdout = res
        out = Verdict(decided=(code in (0, 1)) if self.decidable else None)
        if code != self.code:
            if self.code == 65:
                out.fail("cli: non-finite input not rejected with exit 65" if self.defect
                         else "cli: malformed input not rejected with exit 65")
            else:
                out.fail(f"cli {self.argv[0]}: exit {code}, expected {self.code}")
        try:
            doc = json.loads(stdout, parse_constant=_strict)
        except ValueError:
            out.fail("cli: stdout is not strict JSON")
            return out
        if code == self.code:
            if doc.get("verdict") != self.verdict:
                out.fail(f"cli {self.argv[0]}: verdict {doc.get('verdict')!r}, expected {self.verdict!r}")
            elif self.payload_check is not None:
                why = self.payload_check(doc)
                if why:
                    out.fail(f"cli {self.argv[0]}: {why}")
        return out


def _requests(rng, k: int, workdir: Path, digest: Digest) -> list[Request]:
    reqs: list[Request] = []

    def write(name, doc) -> str:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        path = workdir / f"c{k}-{len(reqs):02d}-{name}.json"
        path.write_text(text, encoding="utf-8")
        digest.add(text.encode())
        return str(path)

    # verify-state: four states and two tables that miss a test sum
    for i in range(6):
        tests = C.side_tests(C.CATALOGUE[i % 6][0])
        f = C.positive_state(rng, tests)
        ok = i < 4
        if not ok:
            f = f * 1.2
        doc = {"space": space_doc("x", tests), "table": {f"x{j}": float(v) for j, v in enumerate(f)}}
        reqs.append(Request("verify-state", ["verify-state", write("state", doc)], 0 if ok else 1,
                            "state" if ok else "not-state"))

    # influence-free: three mixtures, three signalling tables
    for i in range(6):
        a_shape, b_shape, dirs = C.CATALOGUE[i]
        a_tests, b_tests = C.side_tests(a_shape), C.side_tests(b_shape)
        dirs = () if i < 3 else dirs
        table = C.make_table(rng, a_tests, b_tests, dirs)
        doc = {
            "alice": space_doc("a", a_tests), "bob": space_doc("b", b_tests),
            "table": [[f"a{x}", f"b{y}", float(table[x, y])]
                      for x in range(table.shape[0]) for y in range(table.shape[1])],
        }
        reqs.append(Request("influence-free", ["influence-free", write("table", doc)],
                            1 if dirs else 0, "influenced" if dirs else "influence-free"))

    # ppt-check: separable (PPT) and near-maximally entangled (not PPT)
    for d in (2, 3, 4, 9):
        sep = sum(p * np.kron(R.normalized(R.psd(rng, d, 1)), R.normalized(R.psd(rng, d, 1)))
                  for p in rng.dirichlet(np.ones(3)))
        reqs.append(Request(f"ppt-check/{d * d}", ["ppt-check", write("sep", matrix_doc(sep, (d, d)))],
                            0, "ppt"))
        phi = R.max_entangled(rng, d, d)
        ent = 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(d * d) / d**2
        gamma = R.ptrans(ent, d, d)

        def witness_ok(doc, gamma=gamma):
            v = doc_vector(doc["witness"])
            return None if float(np.real(v.conj() @ gamma @ v)) < -R.TOL else "witness does not verify"

        reqs.append(Request(f"ppt-check/{d * d}", ["ppt-check", write("ent", matrix_doc(ent, (d, d)))],
                            1, "not-ppt", witness_ok))

    # cp-check: PSD and indefinite Choi operators
    for d in (2, 3, 9):
        for ok in (True, False):
            c = R.psd(rng, d * d) if ok else R.hermitian_trace_one(rng, d * d)
            doc = {"kind": "choi", "matrix": matrix_doc(c, (d, d))}
            reqs.append(Request(f"cp-check/{d * d}", ["cp-check", write("choi", doc)], 0 if ok else 1,
                                "completely-positive" if ok else "not-completely-positive"))

    # choi: conjugations, a composition with transposition, a basis transpose
    def choi_req(doc, reference, d):
        def same(out):
            return None if R.fro(doc_matrix(out["choi"]) - reference) <= 1e-9 * max(1.0, R.fro(reference)) \
                else "Choi operator differs from the reference"
        reqs.append(Request(f"choi/{d * d}", ["choi", write("map", doc)], 0, "choi", same))

    for d in (2, 3):
        a = R.unitary(rng, d) * rng.uniform(0.5, 2.0)
        choi_req({"kind": "conjugation", "matrix": matrix_doc(a)}, R.choi_conj(a), d)
        a = R.unitary(rng, d) * rng.uniform(0.5, 2.0)
        choi_req({"kind": "compose", "outer": {"kind": "conjugation", "matrix": matrix_doc(a)},
                  "inner": {"kind": "transpose", "dim": d}},
                 R.choi_of(lambda x, a=a: a @ x.T @ a.conj().T, d), d)
    a, u = R.unitary(rng, 2), R.unitary(rng, 2)
    choi_req({"kind": "basis-transpose", "map": {"kind": "conjugation", "matrix": matrix_doc(a)},
              "basis": matrix_doc(u)},
             R.choi_of(lambda x: a @ (u @ (u.conj().T @ x @ u).T @ u.conj().T) @ a.conj().T, 2), 2)

    # kraus: PSD Choi operators of full and low rank
    for d, rank in ((2, None), (2, 2), (3, None), (3, 3), (4, None)):
        c = R.psd(rng, d * d, rank)

        def rebuilds(out, c=c):
            rebuilt = sum((R.choi_conj(doc_matrix(a)) for a in out["operators"]), np.zeros_like(c))
            return None if R.fro(rebuilt - c) <= 1e-9 * max(1.0, R.fro(c)) else "Kraus operators do not rebuild"

        doc = {"kind": "choi", "matrix": matrix_doc(c, (d, d))}
        reqs.append(Request(f"kraus/{d * d}", ["kraus", write("choi", doc)], 0, "kraus", rebuilds))

    # pivot: alice, bob and two Weyl twists at n = 2 and 3
    for n in (2, 3):
        for side, weyl in (("alice", None), ("bob", None), ("general", (1, 1)), ("general", (0, n - 1))):
            w = R.hermitian_trace_one(rng, n * n)
            argv = ["pivot", write("w", matrix_doc(w)), "--side", side]
            if weyl:
                argv += ["--weyl", f"{weyl[0]},{weyl[1]}"]

            def alpha_ok(out, n=n):
                return None if abs(out["alpha"] - 1.0 / n**2) <= 1e-12 else "alpha is not 1/n^2"

            reqs.append(Request(f"pivot/{side}/n{n}", argv, 0, "identity-holds", alpha_ok))

    # reconstruct: product-vector values determine the operator
    for d in (2, 2, 2, 3, 3):
        w = R.hermitian_trace_one(rng, d * d)

        def rebuilt_ok(out, w=w):
            return None if R.fro(doc_matrix(out["reconstruction"]) - w) <= 1e-8 * max(1.0, R.fro(w)) \
                else "reconstruction differs"

        reqs.append(Request(f"reconstruct/{d * d}", ["reconstruct", write("w", matrix_doc(w, (d, d)))],
                            0, "roundtrip-exact", rebuilt_ok))

    # popt and decompose: one decided each way, one currently undecided
    w_ref, _ = R.cone_operator(rng, "refuted", 2, 2)
    w_dec, _ = R.cone_operator(rng, "decomposition", 2, 3)

    def popt_witness_ok(out):
        x, y = doc_vector(out["witness"]["x"]), doc_vector(out["witness"]["y"])
        return None if R.product_value(w_ref, x, y) < -R.TOL else "witness does not verify"

    def certificate_ok(w, dims):
        def ok(out):
            cert = out.get("certificate")
            pq = None if cert is None else (doc_matrix(cert["p"]), doc_matrix(cert["q"]))
            bad = R.check_certified(w, pq, *dims)
            return f"certificate invalid ({', '.join(bad)})" if bad else None
        return ok

    seed = int(rng.integers(1 << 31))
    reqs.append(Request("popt/refuted", ["popt", write("w", matrix_doc(w_ref, (2, 2))), "--seed", str(seed)],
                        1, "refuted-popt", popt_witness_ok, decidable=True))
    reqs.append(Request("popt/decomposition", ["popt", write("w", matrix_doc(w_dec, (2, 3))), "--seed", str(seed)],
                        0, "certified-popt", certificate_ok(w_dec, (2, 3)), decidable=True))
    w_mem, _ = R.cone_operator(rng, "decomposition", 2, 2)
    reqs.append(Request("decompose/member", ["decompose", write("w", matrix_doc(w_mem, (2, 2)))],
                        0, "member", certificate_ok(w_mem, (2, 2)), decidable=True))
    w_non, _ = R.cone_operator(rng, "refuted", 2, 2)
    reqs.append(NonMember(["decompose", write("w", matrix_doc(w_non, (2, 2)))]))

    reqs.append(Request("witness-demo/n3", ["witness-demo", "--n", "3"], 0, "violation-exhibited",
                        lambda out: None if abs(out["negative_value"] + 1.0 / 9.0) <= 1e-9
                        else "negative value is not -1/9"))

    # malformed documents, expected exit 65
    tests = C.side_tests(("disjoint", (2, 2)))
    f = C.positive_state(rng, tests)
    table = {f"x{j}": float(v) for j, v in enumerate(f)}
    nan_table = dict(table, x0=math.nan)
    reqs.append(Request("malformed/nan-table", ["verify-state", write(
        "nan", json.dumps({"space": space_doc("x", tests), "table": nan_table}))],
        65, "malformed-input", defect=True))
    # a diagonal state with its first entry NaN: ppt-check answers not-ppt, exit 1
    nan_doc = matrix_doc(np.diag(rng.dirichlet(np.full(4, 4.0))), (2, 2))
    nan_doc["entries"][0][0] = math.nan
    reqs.append(Request("malformed/nan-matrix", ["ppt-check", write("nan", json.dumps(nan_doc))],
                        65, "malformed-input", defect=True))
    a_tests, b_tests = C.side_tests(("disjoint", (2, 2))), C.side_tests(("disjoint", (2, 2)))
    t = C.make_table(rng, a_tests, b_tests, ())
    rows = [[f"a{x}", f"b{y}", float(t[x, y])] for x in range(4) for y in range(4)]
    rows[3][2] = math.inf
    reqs.append(Request("malformed/infinity-table", ["influence-free", write("inf", json.dumps(
        {"alice": space_doc("a", a_tests), "bob": space_doc("b", b_tests), "table": rows}))],
        65, "malformed-input"))
    reqs.append(Request("malformed/non-square", ["ppt-check", write("nonsq", matrix_doc(
        rng.standard_normal((4, 3))))], 65, "malformed-input"))
    reqs.append(Request("malformed/bad-dims", ["ppt-check", write("dims", matrix_doc(
        R.hermitian_trace_one(rng, 4), (3, 2)))], 65, "malformed-input"))
    reqs.append(Request("malformed/missing-field", ["verify-state", write(
        "missing", {"space": space_doc("x", tests)})], 65, "malformed-input"))
    return reqs


class NonMember(Request):
    """decompose on a non-decomposable operator: `member` would be wrong,
    `refuted` is right, `inconclusive` (exit 2) is undecided."""

    def __init__(self, argv):
        super().__init__("decompose/not-decomposable", argv, None, None, decidable=True)

    def check(self, res) -> Verdict:
        code, stdout = res
        out = Verdict(decided=code in (0, 1))
        try:
            doc = json.loads(stdout, parse_constant=_strict)
        except ValueError:
            out.fail("cli: stdout is not strict JSON")
            return out
        expected = {1: "refuted", 2: "inconclusive"}
        if code == 0:
            out.fail("cli decompose: member verdict on a non-decomposable operator")
        elif expected.get(code) != doc.get("verdict"):
            out.fail(f"cli decompose: exit {code} with verdict {doc.get('verdict')!r}")
        return out


def spawn_runner(root: Path, env: dict):
    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "influencefree.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=150,
        )
        return proc.returncode, proc.stdout
    return run


def inprocess_runner(cli_module):
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_module.run(argv)
        return code, buf.getvalue()
    return run


def build(runner, seed: int, n_cycles: int, digest: Digest, workdir: Path) -> list[list[Op]]:
    workdir.mkdir(parents=True, exist_ok=True)
    cycles = []
    for k in range(n_cycles):
        rng = np.random.default_rng([seed, k, 4])
        reqs = _requests(rng, k, workdir, digest)
        for r in reqs:
            digest.add([a for a in r.argv if not a.startswith(str(workdir))])
        ops = [
            Op(r.kind, (lambda r=r: runner(r.argv)), r.check,
               DEFECT if r.defect else None, DEFECT_CAUSES if r.defect else frozenset())
            for r in reqs
        ]
        order = rng.permutation(len(ops))
        cycles.append([ops[i] for i in order])
    return cycles
