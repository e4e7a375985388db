"""Command-line front end: one subcommand per check, JSON in and out.

Exit codes: 0 affirmative/member, 1 refuted/negative, 2 inconclusive,
64 usage error, 65 malformed input.  Every error response carries a one-line
"reason" field.  Output is deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from math import isfinite, isqrt
from pathlib import Path

import numpy as np

from .choimaps import (
    LinearMapChoi,
    apply_map,
    choi_from_conjugation,
    compose_maps,
    hk_representation,
    identity_map,
    is_co_cp,
    is_cp,
    state_eval,
    trace_condition,
    transpose_in_basis,
    transpose_map,
    reconstruct_operator,
)
from .cones import (
    decomposable_sum_membership,
    extremality_probe,
    is_popt,
    is_ppt,
)
from .coupling import (
    ProductState,
    backward_tests,
    bayes_mixture_check,
    condition,
    fns_tests,
    forward_tests,
    is_influence_free,
    marginal,
    operational_bayes_check,
)
from .jsonio import (
    DocumentError,
    matrix_from_document,
    matrix_to_document,
    product_state_documents,
    testspace_from_document,
    testspace_to_document,
    two_stage_test_to_document,
    value_table_from_document,
    vector_to_document,
    _require,
)
from .linalg import CapExceededError, HermitianOperator, frobenius
from .teleport import (
    corollary_check,
    desideratum_violation_demo,
    pivot_alice,
    pivot_bob,
    pivot_general,
    weyl_operator,
)
from .testspace import ETestSpace, is_state

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_MALFORMED = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are malformed."""
    value = float(text)
    if not isfinite(value):
        raise DocumentError(f"invalid JSON: non-finite number {text}")
    return value


def _load(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level JSON value must be an object")
    return doc


def _dims_arg(s: str) -> tuple[int, int]:
    parts = s.split(",")
    try:
        d = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected two integers as dA,dB")
    if len(d) != 2 or any(x < 1 for x in d):
        raise argparse.ArgumentTypeError("expected two positive integers as dA,dB")
    return d


def _weyl_arg(s: str) -> tuple[int, int]:
    parts = s.split(",")
    try:
        d = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected two integers as a,b")
    if len(d) != 2:
        raise argparse.ArgumentTypeError("expected two integers as a,b")
    return d


def _bipartite_dims(args, doc_dims) -> tuple[int, int]:
    if getattr(args, "dims", None):
        return args.dims
    if doc_dims is not None:
        if len(doc_dims) != 2:
            raise DocumentError(f"need exactly two factor dims, document has {list(doc_dims)}")
        return (int(doc_dims[0]), int(doc_dims[1]))
    raise DocumentError('bipartite dims required: set "dims" in the document or pass --dims')


def _local_dim(args, rows: int) -> int:
    if getattr(args, "n", None):
        n = args.n
        if n * n != rows:
            raise DocumentError(f"--n {n} does not match a {rows}x{rows} operator")
        return n
    n = isqrt(rows)
    if n * n != rows:
        raise DocumentError(f"operator dimension {rows} is not a perfect square")
    return n


def _admit_hermitian(m, where: str) -> np.ndarray:
    try:
        return HermitianOperator(m).matrix
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _map_from_document(doc, where: str = "map") -> LinearMapChoi:
    kind = _require(doc, "kind", str, where)
    try:
        if kind == "identity":
            return identity_map(_require(doc, "dim", int, where))
        if kind == "transpose":
            return transpose_map(_require(doc, "dim", int, where))
        if kind == "conjugation":
            a, _ = matrix_from_document(_require(doc, "matrix", dict, where), f"{where}.matrix")
            return choi_from_conjugation(a)
        if kind == "choi":
            m, dims = matrix_from_document(_require(doc, "matrix", dict, where), f"{where}.matrix")
            if "din" in doc or "dout" in doc:
                din = _require(doc, "din", int, where)
                dout = _require(doc, "dout", int, where)
            elif dims is not None and len(dims) == 2:
                din, dout = dims
            else:
                raise DocumentError(f'{where}: a "choi" map needs din/dout or matrix dims')
            return LinearMapChoi(m, din, dout)
        if kind == "compose":
            outer = _map_from_document(_require(doc, "outer", dict, where), f"{where}.outer")
            inner = _map_from_document(_require(doc, "inner", dict, where), f"{where}.inner")
            return compose_maps(outer, inner)
        if kind == "basis-transpose":
            base = _map_from_document(_require(doc, "map", dict, where), f"{where}.map")
            u, _ = matrix_from_document(_require(doc, "basis", dict, where), f"{where}.basis")
            return transpose_in_basis(base, u)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc
    raise DocumentError(f"{where}: unknown map kind {kind!r}")


def _build_product_state(doc, tol: float) -> ProductState:
    alice, bob, table = product_state_documents(doc)
    try:
        return ProductState(alice, bob, table, tolerance=max(tol, 1e-9))
    except ValueError as exc:
        raise DocumentError(f"table is not a state on the product: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, output document)


def _cmd_verify_state(args):
    doc = _load(args.path)
    space = testspace_from_document(_require(doc, "space", dict, "input"))
    table = value_table_from_document(_require(doc, "table", dict, "input"))
    tol = args.tol
    ok = is_state(space, table, tol)
    values = np.array([table[x] for x in space.outcomes])
    range_gap = np.maximum(-values, values - 1.0)
    sums = space.incidence @ values
    sum_gap = np.abs(sums - 1.0)
    witness = None
    if not ok:
        r, x = int(sum_gap.argmax()), int(range_gap.argmax())
        if sum_gap[r] > tol:
            witness = {"sum": float(sums[r]), "test": testspace_to_document(space)["tests"][r]}
        else:
            witness = {"outcome": space.outcomes[x], "value": table[space.outcomes[x]]}
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "state" if ok else "not-state",
            "residual": max(0.0, float(range_gap.max()), float(sum_gap.max())),
            "witness": witness,
            "config": {"tol": tol},
        },
    )


def _cmd_influence_free(args):
    omega = _build_product_state(_load(args.path), args.tol)
    verdict = is_influence_free(omega, tol=args.tol)
    witness = None
    if not verdict.free:
        rep = (
            verdict.bob_to_alice
            if verdict.bob_to_alice.max_deviation >= verdict.alice_to_bob.max_deviation
            else verdict.alice_to_bob
        )
        witness = {
            "direction": verdict.direction,
            "outcome": rep.outcome,
            "tests": list(rep.tests),
        }
    return (
        EXIT_OK if verdict.free else EXIT_REFUTED,
        {
            "verdict": "influence-free" if verdict.free else "influenced",
            "residual": verdict.max_deviation,
            "bob_to_alice": verdict.bob_to_alice.max_deviation,
            "alice_to_bob": verdict.alice_to_bob.max_deviation,
            "witness": witness,
            "config": {"tol": args.tol},
        },
    )


def _cmd_fns_tests(args):
    doc = _load(args.path)
    alice = testspace_from_document(_require(doc, "alice", dict, "input"), "alice")
    bob = testspace_from_document(_require(doc, "bob", dict, "input"), "bob")
    if isinstance(alice, ETestSpace) or isinstance(bob, ETestSpace):
        raise DocumentError("test enumeration needs set tests, not multisets")
    forward = forward_tests(alice, bob, cap=args.cap)
    backward = backward_tests(alice, bob, cap=args.cap)
    combined = fns_tests(alice, bob, cap=args.cap)
    return (
        EXIT_OK,
        {
            "verdict": "enumerated",
            "forward_count": len(forward),
            "backward_count": len(backward),
            "fns_count": len(combined),
            "tests": [two_stage_test_to_document(t) for t in combined],
            "config": {"cap": args.cap},
        },
    )


def _cmd_condition(args):
    doc = _load(args.path)
    on = _require(doc, "on", str, "input")
    side = doc.get("side", "alice")
    if side not in ("alice", "bob"):
        raise DocumentError(f'side must be "alice" or "bob", got {side!r}')
    omega = _build_product_state(doc, args.tol)
    outcomes = omega.alice.outcomes if side == "alice" else omega.bob.outcomes
    if on not in outcomes:
        raise DocumentError(f"{on!r} is not an outcome of the {side} side")
    try:
        conditional = condition(omega, on, side=side, tol=args.tol)
    except ValueError as exc:
        return (
            EXIT_REFUTED,
            {"verdict": "refused", "reason": str(exc), "config": {"tol": args.tol}},
        )
    return (
        EXIT_OK,
        {
            "verdict": "conditioned",
            "on": on,
            "side": side,
            "conditional": {k: v for k, v in sorted(conditional.items())},
            "config": {"tol": args.tol},
        },
    )


def _cmd_bayes_check(args):
    omega = _build_product_state(_load(args.path), args.tol)
    mixture_alice = max(
        bayes_mixture_check(omega, i, tol=args.tol) for i in range(len(omega.alice.tests))
    )
    flipped = ProductState(
        omega.bob,
        omega.alice,
        dict(zip(product(omega.bob.outcomes, omega.alice.outcomes), omega.values.T.ravel())),
        tolerance=max(args.tol, 1e-9),
    )
    mixture_bob = max(
        bayes_mixture_check(flipped, i, tol=args.tol) for i in range(len(omega.bob.tests))
    )
    wa = marginal(omega, "alice", 0)
    wb = marginal(omega, "bob", 0)
    operational = 0.0
    for x in omega.alice.outcomes:
        for y in omega.bob.outcomes:
            if wa[x] > args.tol and wb[y] > args.tol:
                operational = max(operational, operational_bayes_check(omega, x, y))
    residual = max(mixture_alice, mixture_bob, operational)
    ok = residual <= args.tol
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "consistent" if ok else "inconsistent",
            "residual": residual,
            "mixture_alice": mixture_alice,
            "mixture_bob": mixture_bob,
            "operational": operational,
            "config": {"tol": args.tol},
        },
    )


def _cmd_reconstruct(args):
    m, doc_dims = matrix_from_document(_load(args.path), "input")
    da, db = _bipartite_dims(args, doc_dims)
    w = _admit_hermitian(m, "input")
    if w.shape[0] != da * db:
        raise DocumentError(f"operator dimension {w.shape[0]} does not equal {da}*{db}")
    rebuilt = reconstruct_operator(
        lambda x, y: state_eval(w, (da, db), x, y), da, db
    )
    gap = frobenius(w - rebuilt)
    ok = gap <= args.tol
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "roundtrip-exact" if ok else "roundtrip-mismatch",
            "gap": gap,
            "reconstruction": matrix_to_document(rebuilt, (da, db)),
            "config": {"tol": args.tol},
        },
    )


def _cmd_choi(args):
    m = _map_from_document(_load(args.path), "input")
    tr_choi, tr_phi1 = trace_condition(m)
    return (
        EXIT_OK,
        {
            "verdict": "choi",
            "din": m.din,
            "dout": m.dout,
            "choi": matrix_to_document(m.choi, (m.din, m.dout)),
            "trace_choi": tr_choi,
            "trace_phi_identity": tr_phi1,
        },
    )


def _cmd_apply_map(args):
    doc = _load(args.path)
    m = _map_from_document(_require(doc, "map", dict, "input"))
    x, _ = matrix_from_document(_require(doc, "operand", dict, "input"), "operand")
    try:
        result = apply_map(m, x)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return (EXIT_OK, {"verdict": "applied", "result": matrix_to_document(result)})


def _cmd_kraus(args):
    m = _map_from_document(_load(args.path), "input")
    try:
        ks = hk_representation(m, tol=args.tol)
    except ValueError as exc:
        return (
            EXIT_REFUTED,
            {"verdict": "not-completely-positive", "reason": str(exc)},
        )
    rebuilt = np.zeros_like(m.choi)
    for a in ks.operators:
        rebuilt = rebuilt + choi_from_conjugation(a).choi
    residual = frobenius(rebuilt - m.choi)
    return (
        EXIT_OK,
        {
            "verdict": "kraus",
            "count": len(ks.operators),
            "operators": [matrix_to_document(a) for a in ks.operators],
            "residual": residual,
            "config": {"tol": args.tol},
        },
    )


def _cmd_cp_check(args):
    m = _map_from_document(_load(args.path), "input")
    verdict = is_cp(m, tol=args.tol)
    ok = bool(verdict)
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "completely-positive" if ok else "not-completely-positive",
            "min_value": verdict.min_value,
            "witness": None if ok else vector_to_document(verdict.witness),
            "config": {"tol": args.tol},
        },
    )


def _cmd_co_cp_check(args):
    m = _map_from_document(_load(args.path), "input")
    try:
        verdict = is_co_cp(m, tol=args.tol)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    ok = bool(verdict)
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "co-completely-positive" if ok else "not-co-completely-positive",
            "min_value": verdict.min_value,
            "witness": None if ok else vector_to_document(verdict.witness),
            "config": {"tol": args.tol},
        },
    )


def _cmd_ppt_check(args):
    m, doc_dims = matrix_from_document(_load(args.path), "input")
    dims = _bipartite_dims(args, doc_dims)
    w = _admit_hermitian(m, "input")
    verdict = is_ppt(w, dims, tol=args.tol)
    ok = bool(verdict)
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "ppt" if ok else "not-ppt",
            "min_value": verdict.min_value,
            "witness": None if ok else vector_to_document(verdict.witness),
            "config": {"dims": list(dims), "tol": args.tol},
        },
    )


def _cmd_popt(args):
    m, doc_dims = matrix_from_document(_load(args.path), "input")
    dims = _bipartite_dims(args, doc_dims)
    w = _admit_hermitian(m, "input")
    verdict = is_popt(
        w,
        dims,
        seed=args.seed,
        restarts=args.restarts,
        tol=args.tol,
        feas_tol=args.feas_tol,
        dykstra_max_iter=args.max_iter,
    )
    config = {
        "dims": list(dims),
        "feas_tol": args.feas_tol,
        "restarts": args.restarts,
        "seed": args.seed,
        "tol": args.tol,
    }
    if verdict.status == "certified":
        doc = {
            "verdict": "certified-popt",
            "branch": verdict.info["branch"],
            "psd": verdict.info["psd"],
            "min_value": verdict.min_value,
            "config": config,
        }
        if verdict.certificate is not None:
            doc["certificate"] = {
                "p": matrix_to_document(verdict.certificate.p, dims),
                "q": matrix_to_document(verdict.certificate.q, dims),
                "residual": verdict.certificate.residual,
            }
        return (EXIT_OK, doc)
    if verdict.status == "refuted":
        x, y = verdict.witness
        return (
            EXIT_REFUTED,
            {
                "verdict": "refuted-popt",
                "min_value": verdict.min_value,
                "witness": {"x": vector_to_document(x), "y": vector_to_document(y)},
                "config": config,
            },
        )
    return (
        EXIT_INCONCLUSIVE,
        {
            "verdict": "likely-popt",
            "min_value": verdict.min_value,
            "membership": verdict.info.get("membership"),
            "config": config,
        },
    )


def _cmd_decompose(args):
    m, doc_dims = matrix_from_document(_load(args.path), "input")
    dims = _bipartite_dims(args, doc_dims)
    w = _admit_hermitian(m, "input")
    verdict = decomposable_sum_membership(w, dims, tol=args.feas_tol, max_iter=args.max_iter)
    config = {"dims": list(dims), "feas_tol": args.feas_tol, "max_iter": args.max_iter}
    if verdict.status == "member":
        cert = verdict.certificate
        return (
            EXIT_OK,
            {
                "verdict": "member",
                "residual": verdict.residual,
                "certificate": {
                    "p": matrix_to_document(cert.p, dims),
                    "q": matrix_to_document(cert.q, dims),
                    "residual": cert.residual,
                },
                "iterations": verdict.info.get("iterations"),
                "config": config,
            },
        )
    if verdict.status == "refuted":
        return (
            EXIT_REFUTED,
            {
                "verdict": "refuted",
                "residual": verdict.residual,
                "iterations": verdict.info.get("iterations"),
                "config": config,
            },
        )
    return (
        EXIT_INCONCLUSIVE,
        {
            "verdict": "inconclusive",
            "residual": verdict.residual,
            "iterations": verdict.info.get("iterations"),
            "config": config,
        },
    )


def _cmd_extremality(args):
    a, _ = matrix_from_document(_load(args.path), "input")
    try:
        verdict = extremality_probe(a, tol=args.tol)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    doc = {"residual": verdict.residual, "config": {"tol": args.tol}}
    if verdict.status == "decomposable_nontrivially":
        n = isqrt(verdict.certificate.shape[0])
        doc.update(
            verdict="decomposable-nontrivially",
            certificate=matrix_to_document(verdict.certificate, (n, n)),
        )
        return (EXIT_OK, doc)
    doc.update(
        verdict="rigid",
        witness=None if verdict.witness is None else vector_to_document(verdict.witness),
    )
    return (EXIT_REFUTED, doc)


def _cmd_pivot(args):
    m, doc_dims = matrix_from_document(_load(args.path), "input")
    w = _admit_hermitian(m, "input")
    n = _local_dim(args, w.shape[0])
    if args.side in ("alice", "bob"):
        report = pivot_alice(w, n) if args.side == "alice" else pivot_bob(w, n)
        bound = args.tol * max(1.0, frobenius(w))
        ok = report.frobenius_gap <= bound
        return (
            EXIT_OK if ok else EXIT_REFUTED,
            {
                "verdict": "identity-holds" if ok else "identity-violated",
                "side": args.side,
                "alpha": report.alpha,
                "gap": report.frobenius_gap,
                "config": {"n": n, "tol": args.tol},
            },
        )
    a, b = args.weyl
    result = pivot_general(w, n, weyl_operator(n, a, b))
    ok = result.gap <= args.tol
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "identity-holds" if ok else "identity-violated",
            "side": "general",
            "weyl": [a % n, b % n],
            "alpha": result.alpha,
            "gap": result.gap,
            "bob_operator": matrix_to_document(result.bob_operator.matrix, (n, n)),
            "expected": matrix_to_document(result.expected.matrix, (n, n)),
            "config": {"n": n, "tol": args.tol},
        },
    )


def _cmd_corollary(args):
    doc = _load(args.path)
    wm, _ = matrix_from_document(_require(doc, "w", dict, "input"), "w")
    bm, _ = matrix_from_document(_require(doc, "b", dict, "input"), "b")
    n = _local_dim(args, wm.shape[0])
    try:
        lhs, rhs = corollary_check(wm, bm, n)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    gap = abs(lhs - rhs)
    ok = gap <= args.tol
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "corollary-holds" if ok else "corollary-gap",
            "lhs": lhs,
            "rhs": rhs,
            "gap": gap,
            "negative": bool(lhs < -1e-6),
            "config": {"n": n, "tol": args.tol},
        },
    )


def _cmd_witness_demo(args):
    report = desideratum_violation_demo(args.n, seed=args.seed)
    ok = (
        report.negative_value < -1e-6
        and report.popt_verdict.status == "certified"
        and report.psd_replacement_min >= -1e-10
        and report.product_replacement_min >= -1e-10
    )
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {
            "verdict": "violation-exhibited" if ok else "violation-not-found",
            "negative_value": report.negative_value,
            "alpha": report.alpha,
            "popt": {
                "status": report.popt_verdict.status,
                "branch": report.popt_verdict.info.get("branch"),
            },
            "psd_replacement_min": report.psd_replacement_min,
            "product_replacement_min": report.product_replacement_min,
            "alice_effect": matrix_to_document(report.alice_effect, (args.n, args.n)),
            "bob_effect": matrix_to_document(report.bob_effect, (args.n, args.n)),
            "config": {"n": args.n, "seed": args.seed},
        },
    )


def _cmd_selftest(args):
    from .acceptance import TIME_BUDGETS, run_all

    results = []
    for res in run_all(progress=sys.stderr):
        results.append(
            {
                "number": res.number,
                "name": res.name,
                "passed": res.passed,
                "detail": res.detail,
                "elapsed": res.elapsed,
                "budget": TIME_BUDGETS[res.number],
            }
        )
    ok = all(r["passed"] for r in results)
    return (
        EXIT_OK if ok else EXIT_REFUTED,
        {"verdict": "pass" if ok else "fail", "criteria": results},
    )


# ---------------------------------------------------------------------------
# parser assembly


def _add_input(sub):
    sub.add_argument("path", nargs="?", default="-", help="input JSON file, - for stdin")


def _add_tol(sub):
    sub.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")


def _add_feas(sub):
    sub.add_argument("--feas-tol", type=float, default=1e-7, dest="feas_tol",
                     help="feasibility residual tolerance")
    sub.add_argument("--max-iter", type=int, default=20000, dest="max_iter",
                     help="projection iteration cap")


def build_parser() -> _Parser:
    parser = _Parser(prog="influencefree", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help_text):
        s = subs.add_parser(name, help=help_text)
        s.set_defaults(func=func)
        return s

    s = sub("verify-state", _cmd_verify_state, "check a table against a test space")
    _add_input(s); _add_tol(s)

    s = sub("influence-free", _cmd_influence_free, "check marginals ignore the far test choice")
    _add_input(s); _add_tol(s)

    s = sub("fns-tests", _cmd_fns_tests, "enumerate two-stage tests of a coupled pair")
    _add_input(s)
    s.add_argument("--cap", type=int, default=20000, help="enumeration size cap")

    s = sub("condition", _cmd_condition, "conditional state given one observed outcome")
    _add_input(s); _add_tol(s)

    s = sub("bayes-check", _cmd_bayes_check, "mixture and symmetric Bayes consistency residuals")
    _add_input(s); _add_tol(s)

    s = sub("reconstruct", _cmd_reconstruct, "rebuild an operator from its product-vector values")
    _add_input(s); _add_tol(s)
    s.add_argument("--dims", type=_dims_arg, default=None, help="factor dims as dA,dB")

    s = sub("choi", _cmd_choi, "assemble the Choi operator of a described map")
    _add_input(s)

    s = sub("apply-map", _cmd_apply_map, "apply a described map to an operand matrix")
    _add_input(s)

    s = sub("kraus", _cmd_kraus, "extract Kraus operators of a completely positive map")
    _add_input(s); _add_tol(s)

    s = sub("cp-check", _cmd_cp_check, "complete positivity via the Choi operator")
    _add_input(s); _add_tol(s)

    s = sub("co-cp-check", _cmd_co_cp_check, "complete co-positivity via the partial transpose")
    _add_input(s); _add_tol(s)

    s = sub("ppt-check", _cmd_ppt_check, "positivity of the partial transpose")
    _add_input(s); _add_tol(s)
    s.add_argument("--dims", type=_dims_arg, default=None, help="factor dims as dA,dB")

    s = sub("popt", _cmd_popt, "positivity on product vectors: certify or refute")
    _add_input(s); _add_tol(s); _add_feas(s)
    s.add_argument("--dims", type=_dims_arg, default=None, help="factor dims as dA,dB")
    s.add_argument("--seed", type=int, required=True, help="see-saw restart seed")
    s.add_argument("--restarts", type=int, default=64, help="see-saw restarts")

    s = sub("decompose", _cmd_decompose, "split into positive plus co-positive parts")
    _add_input(s); _add_feas(s)
    s.add_argument("--dims", type=_dims_arg, default=None, help="factor dims as dA,dB")

    s = sub("extremality", _cmd_extremality, "decide whether a conjugation map has a co-positive part")
    _add_input(s); _add_tol(s)

    s = sub("pivot", _cmd_pivot, "verify an entangled-projection transfer identity")
    _add_input(s); _add_tol(s)
    s.add_argument("--side", choices=("alice", "bob", "general"), default="alice")
    s.add_argument("--weyl", type=_weyl_arg, default=(0, 0), help="Weyl indices a,b (general side)")
    s.add_argument("--n", type=int, default=None, help="local dimension (inferred when omitted)")

    s = sub("corollary", _cmd_corollary, "product-effect value versus alpha times Tr(WB)")
    _add_input(s); _add_tol(s)
    s.add_argument("--n", type=int, default=None, help="local dimension (inferred when omitted)")

    s = sub("witness-demo", _cmd_witness_demo, "end-to-end negative product-test demonstration")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--seed", type=int, default=2026)

    sub("selftest", _cmd_selftest, "run the full acceptance suite")

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit({"verdict": "usage-error", "reason": str(exc)})
        return EXIT_USAGE
    try:
        code, doc = args.func(args)
    except DocumentError as exc:
        _emit({"verdict": "malformed-input", "reason": str(exc)})
        return EXIT_MALFORMED
    except CapExceededError as exc:
        _emit({"verdict": "inconclusive", "reason": str(exc), "required": exc.required})
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        _emit({"verdict": "malformed-input", "reason": str(exc)})
        return EXIT_MALFORMED
    try:
        _emit(doc)
    except ValueError:
        _emit({"verdict": "malformed-input", "reason": "the result holds a non-finite number"})
        return EXIT_MALFORMED
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
