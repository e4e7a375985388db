"""Command-line front end: one subcommand per check, JSON in and out.

Exit codes: 0 affirmative/member, 1 refuted/negative, 2 inconclusive (also
past a cap or out of memory), 64 usage error, 65 malformed input.  Every
error response carries a one-line "reason" field.  Output is deterministic
for a fixed input and seed.

Each loader and handler imports the library modules it uses, so a request
loads only those its subcommand needs.  The document codecs and the linear
algebra kernel, which every request loads anyway, are imported here.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isfinite, isqrt
from pathlib import Path

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
    _coupled_spaces,
    _require,
)
from .linalg import DEFAULT_TOL, CapExceededError, frobenius, hermitian, _hermitian_part

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


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are malformed."""
    value = float(text)
    if not isfinite(value):
        raise DocumentError(f"invalid JSON: non-finite number {text}")
    return value


def _float_sized_int(text: str) -> int:
    """JSON integer hook: a literal that no float can hold is malformed too."""
    _finite_float(text)
    return int(text)


def _load(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float,
                         parse_int=_float_sized_int)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level JSON value must be an object")
    return doc


# ---------------------------------------------------------------------------
# options: each is declared once; a value out of range is a usage error


def _ranged(convert, accept, expected: str):
    """Option type: `convert` the text, and refuse a value `accept` rejects."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            message = f"invalid {convert.__name__} value: {text!r}"
            raise argparse.ArgumentTypeError(message) from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    return parse


_tolerance = _ranged(float, lambda v: isfinite(v) and v >= 0, "a finite number >= 0")
_count = _ranged(int, lambda v: v >= 1, "a positive integer")
_seed = _ranged(int, lambda v: v >= 0, "a non-negative integer")


def _int_pair(form: str, positive: bool):
    """Parser of two comma-separated integers written as `form`."""
    kind = "positive integers" if positive else "integers"

    def parse(text: str) -> tuple[int, int]:
        try:
            pair = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected two integers as {form}") from None
        if len(pair) != 2 or (positive and min(pair) < 1):
            raise argparse.ArgumentTypeError(f"expected two {kind} as {form}")
        return pair

    return parse


class _Option:
    """A flag, its argparse settings, and whether the result's config echoes it."""

    def __init__(self, flag: str, echo: bool = True, **settings):
        self.flag = flag
        self.echo = echo
        self.settings = settings
        self.dest = flag[2:].replace("-", "_")

    def but(self, **changes) -> _Option:
        return _Option(self.flag, **{"echo": self.echo, **self.settings, **changes})


_TOL = _Option("--tol", type=_tolerance, default=DEFAULT_TOL, help="numerical tolerance")
_FEAS = (
    _Option("--feas-tol", type=_tolerance, default=1e-7,
            help="decomposition residual tolerance, relative to ||W||_F"),
    _Option("--max-iter", type=_count, default=20000, help="membership Newton step cap"),
)
_DIMS = _Option("--dims", type=_int_pair("dA,dB", True), default=None, help="factor dims as dA,dB")
_N = _Option("--n", type=_count, default=None, help="local dimension (inferred when omitted)")
_SEED = _Option("--seed", type=_seed, required=True, help="see-saw restart seed")
_RESTARTS = _Option("--restarts", type=_count, default=64, help="see-saw restarts")
_CAP = _Option("--cap", type=_count, default=20000, help="enumeration size cap")
# pivot reports the side and Weyl indices it used as result fields
_SIDE = _Option("--side", echo=False, choices=("alice", "bob", "general"), default="alice")
_WEYL = _Option("--weyl", echo=False, type=_int_pair("a,b", False), default=None,
                help="Weyl indices a,b (general side only; default 0,0)")


# ---------------------------------------------------------------------------
# document loaders: each turns (document, where, args) into one handler input


def _document(doc, where, args):
    return doc


def _matrix(doc, where, args):
    return matrix_from_document(doc, where)[0]


def _operator(doc, where, args):
    """A Hermitian operator; a command that takes --dims and got none reads the document's."""
    m, doc_dims = matrix_from_document(doc, where)
    if hasattr(args, "dims") and args.dims is None:
        args.dims = _document_dims(doc_dims)
    try:
        return hermitian(m)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _document_dims(doc_dims) -> tuple[int, int]:
    if doc_dims is not None:
        if len(doc_dims) != 2:
            raise DocumentError(f"need exactly two factor dims, document has {list(doc_dims)}")
        return (int(doc_dims[0]), int(doc_dims[1]))
    raise DocumentError('bipartite dims required: set "dims" in the document or pass --dims')


def _local_dim(n, rows: int) -> int:
    if n is None:
        n = isqrt(rows)
        if n * n != rows:
            raise DocumentError(f"operator dimension {rows} is not a perfect square")
    elif n * n != rows:
        raise DocumentError(f"--n {n} does not match a {rows}x{rows} operator")
    return n


def _map(doc, where: str, args=None):
    from .choimaps import (
        LinearMapChoi,
        choi_from_conjugation,
        compose_maps,
        identity_map,
        transpose_in_basis,
        transpose_map,
    )

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
            outer = _map(_require(doc, "outer", dict, where), f"{where}.outer")
            inner = _map(_require(doc, "inner", dict, where), f"{where}.inner")
            return compose_maps(outer, inner)
        if kind == "basis-transpose":
            base = _map(_require(doc, "map", dict, where), f"{where}.map")
            u, _ = matrix_from_document(_require(doc, "basis", dict, where), f"{where}.basis")
            return transpose_in_basis(base, u)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc
    raise DocumentError(f"{where}: unknown map kind {kind!r}")


def _state(doc, where, args):
    from .coupling import ProductState

    alice, bob, table = product_state_documents(doc)
    try:
        return ProductState(alice, bob, table, tolerance=max(args.tol, DEFAULT_TOL))
    except ValueError as exc:
        raise DocumentError(f"table is not a state on the product: {exc}") from exc


def _field(key: str, load):
    """Loader of the sub-document under `key`, which error reasons name."""
    return lambda doc, where, args: load(_require(doc, key, dict, where), key, args)


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, *inputs) and returns (exit code,
# result fields); the dispatcher adds config


def _yes_no(ok, yes: str, no: str, **fields):
    code, label = (EXIT_OK, yes) if ok else (EXIT_REFUTED, no)
    return code, {"verdict": label, **fields}


def _spectral(verdict, yes: str, no: str):
    """A PSD verdict: its least eigenvalue, and an eigenvector when negative."""
    ok = bool(verdict)
    witness = None if ok else vector_to_document(verdict.witness)
    return _yes_no(ok, yes, no, min_value=verdict.min_value, witness=witness)


def _cp_check(args, m):
    """complete positivity via the Choi operator"""
    from .choimaps import is_cp

    return _spectral(is_cp(m, tol=args.tol), "completely-positive", "not-completely-positive")


def _co_cp_check(args, m):
    """complete co-positivity via the partial transpose"""
    from .choimaps import is_co_cp

    verdict = is_co_cp(m, tol=args.tol)
    return _spectral(verdict, "co-completely-positive", "not-co-completely-positive")


def _ppt_check(args, w):
    """positivity of the partial transpose"""
    from .cones import is_ppt

    return _spectral(is_ppt(w, args.dims, tol=args.tol), "ppt", "not-ppt")


def _certificate(cert, dims) -> dict:
    return {
        "p": matrix_to_document(cert.p, dims),
        "q": matrix_to_document(cert.q, dims),
        "residual": cert.residual,
    }


def _verify_state(args, doc):
    """check a table against a test space"""
    from .testspace import state_check

    space = testspace_from_document(_require(doc, "space", dict, "input"))
    table = value_table_from_document(_require(doc, "table", dict, "input"))
    ok, residual, worst = state_check(space, table, args.tol)
    witness = None
    if worst is not None:
        kind, where, value = worst
        if kind == "test":
            witness = {"sum": value, "test": testspace_to_document(space)["tests"][where]}
        else:
            witness = {"outcome": where, "value": value}
    return _yes_no(ok, "state", "not-state", residual=residual, witness=witness)


def _influence_free(args, omega):
    """check marginals ignore the far test choice"""
    from .coupling import is_influence_free

    verdict = is_influence_free(omega, tol=args.tol)
    witness = None
    if not verdict.free:
        rep = verdict.worst
        witness = {"direction": verdict.direction, "outcome": rep.outcome, "tests": list(rep.tests)}
    return _yes_no(
        verdict.free,
        "influence-free",
        "influenced",
        residual=verdict.max_deviation,
        bob_to_alice=verdict.bob_to_alice.max_deviation,
        alice_to_bob=verdict.alice_to_bob.max_deviation,
        witness=witness,
    )


def _fns_tests(args, doc):
    """enumerate two-stage tests of a coupled pair"""
    from .coupling import backward_tests, forward_tests, fns_tests

    alice, bob = _coupled_spaces(doc)
    combined = fns_tests(alice, bob, cap=args.cap)
    return EXIT_OK, {
        "verdict": "enumerated",
        "forward_count": len(forward_tests(alice, bob, cap=args.cap)),
        "backward_count": len(backward_tests(alice, bob, cap=args.cap)),
        "fns_count": len(combined),
        "tests": [two_stage_test_to_document(t) for t in combined],
    }


def _condition(args, omega, doc):
    """conditional state given one observed outcome"""
    from .coupling import condition

    on = _require(doc, "on", str, "input")
    side = doc.get("side", "alice")
    if side not in ("alice", "bob"):
        raise DocumentError(f'side must be "alice" or "bob", got {side!r}')
    outcomes = omega.alice.outcomes if side == "alice" else omega.bob.outcomes
    if on not in outcomes:
        raise DocumentError(f"{on!r} is not an outcome of the {side} side")
    try:
        conditional = condition(omega, on, side=side, tol=args.tol)
    except ValueError as exc:
        return EXIT_REFUTED, {"verdict": "refused", "reason": str(exc)}
    return EXIT_OK, {"verdict": "conditioned", "on": on, "side": side, "conditional": conditional}


def _bayes_check(args, omega):
    """Bayes mixture consistency residuals, one per side"""
    from .coupling import bayes_residuals

    mixture_alice, mixture_bob = bayes_residuals(omega, tol=args.tol)
    residual = max(mixture_alice, mixture_bob)
    return _yes_no(
        residual <= args.tol,
        "consistent",
        "inconsistent",
        residual=residual,
        mixture_alice=mixture_alice,
        mixture_bob=mixture_bob,
    )


def _reconstruct(args, w):
    """rebuild an operator from its product-vector values"""
    from .choimaps import reconstruct_operator, state_eval

    da, db = args.dims
    if w.shape[0] != da * db:
        raise DocumentError(f"operator dimension {w.shape[0]} does not equal {da}*{db}")
    rebuilt = reconstruct_operator(lambda x, y: state_eval(w, (da, db), x, y), da, db)
    gap = frobenius(w - rebuilt)
    return _yes_no(
        gap <= args.tol,
        "roundtrip-exact",
        "roundtrip-mismatch",
        gap=gap,
        reconstruction=matrix_to_document(rebuilt, (da, db)),
    )


def _choi(args, m):
    """assemble the Choi operator of a described map"""
    from .choimaps import trace_condition

    tr_choi, tr_phi1 = trace_condition(m)
    return EXIT_OK, {
        "verdict": "choi",
        "din": m.din,
        "dout": m.dout,
        "choi": matrix_to_document(m.choi, (m.din, m.dout)),
        "trace_choi": tr_choi,
        "trace_phi_identity": tr_phi1,
    }


def _apply_map(args, m, x):
    """apply a described map to an operand matrix"""
    from .choimaps import apply_map

    return EXIT_OK, {"verdict": "applied", "result": matrix_to_document(apply_map(m, x))}


def _kraus(args, m):
    """extract Kraus operators of a completely positive map"""
    from .choimaps import hk_representation, kraus_residual

    try:
        ks = hk_representation(m, tol=args.tol)
    except ValueError as exc:
        return EXIT_REFUTED, {"verdict": "not-completely-positive", "reason": str(exc)}
    return EXIT_OK, {
        "verdict": "kraus",
        "count": len(ks.operators),
        "operators": [matrix_to_document(a) for a in ks.operators],
        "residual": kraus_residual(m, ks),
    }


def _popt(args, w):
    """positivity on product vectors: certify or refute"""
    from .cones import is_popt

    verdict = is_popt(
        w,
        args.dims,
        seed=args.seed,
        restarts=args.restarts,
        tol=args.tol,
        feas_tol=args.feas_tol,
        membership_max_iter=args.max_iter,
    )
    doc = {"min_value": verdict.min_value}
    if verdict.status == "certified":
        doc.update(verdict="certified-popt", branch=verdict.info["branch"], psd=verdict.info["psd"])
        if verdict.certificate is not None:
            doc["certificate"] = _certificate(verdict.certificate, args.dims)
        return EXIT_OK, doc
    if verdict.status == "refuted":
        x, y = verdict.witness
        witness = {"x": vector_to_document(x), "y": vector_to_document(y)}
        doc.update(verdict="refuted-popt", witness=witness)
        return EXIT_REFUTED, doc
    doc.update(verdict="likely-popt", membership=verdict.info.get("membership"))
    return EXIT_INCONCLUSIVE, doc


def _decompose(args, w):
    """split into positive plus co-positive parts"""
    from .cones import decomposable_sum_membership

    verdict = decomposable_sum_membership(w, args.dims, tol=args.feas_tol, max_iter=args.max_iter)
    doc = {
        "verdict": verdict.status,
        "residual": verdict.residual,
        "iterations": verdict.info.get("iterations"),
    }
    if verdict.status == "member":
        doc["certificate"] = _certificate(verdict.certificate, args.dims)
    elif verdict.status == "refuted":
        doc["witness"] = matrix_to_document(verdict.witness, args.dims)
    return {"member": EXIT_OK, "refuted": EXIT_REFUTED}.get(verdict.status, EXIT_INCONCLUSIVE), doc


def _extremality(args, a):
    """decide whether a conjugation map has a co-positive part"""
    from .cones import extremality_probe

    verdict = extremality_probe(a, tol=args.tol)
    split = verdict.status == "decomposable_nontrivially"
    if split:
        n = isqrt(verdict.certificate.shape[0])
        fields = {"certificate": matrix_to_document(verdict.certificate, (n, n))}
    else:
        witness = verdict.witness
        fields = {"witness": None if witness is None else vector_to_document(witness)}
    return _yes_no(split, "decomposable-nontrivially", "rigid", residual=verdict.residual, **fields)


def _pivot(args, w):
    """verify an entangled-projection transfer identity"""
    from .teleport import pivot_alice, pivot_bob, pivot_general, weyl_operator

    n = args.n
    if args.side in ("alice", "bob"):
        if args.weyl is not None:
            raise _UsageError(f"argument --weyl: not allowed with --side {args.side}")
        report = pivot_alice(w, n) if args.side == "alice" else pivot_bob(w, n)
        # the floor stays: α·w is quadratic in w (α = Tr M ∝ Tr w), so the gap is not homogeneous in w
        ok = report.frobenius_gap <= args.tol * max(1.0, frobenius(w))
        fields = {"side": args.side, "alpha": report.alpha, "gap": report.frobenius_gap}
    else:
        a, b = args.weyl or (0, 0)
        report = pivot_general(w, n, weyl_operator(n, a, b))
        ok = report.gap <= args.tol
        fields = {
            "side": "general",
            "weyl": [a % n, b % n],
            "alpha": report.alpha,
            "gap": report.gap,
            "bob_operator": matrix_to_document(_hermitian_part(report.bob_operator), (n, n)),
            "expected": matrix_to_document(_hermitian_part(report.expected), (n, n)),
        }
    return _yes_no(ok, "identity-holds", "identity-violated", **fields)


def _corollary(args, w, b):
    """product-effect value versus alpha times Tr(WB)"""
    from .teleport import corollary_check

    lhs, rhs = corollary_check(w, b, args.n)
    gap = abs(lhs - rhs)
    return _yes_no(
        gap <= args.tol,
        "corollary-holds",
        "corollary-gap",
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        negative=bool(lhs < -1e-6),
    )


def _witness_demo(args):
    """end-to-end negative product-test demonstration"""
    from .teleport import desideratum_violation_demo

    report = desideratum_violation_demo(args.n, seed=args.seed)
    ok = (
        report.negative_value < -1e-6
        and report.popt_verdict.status == "certified"
        and report.psd_replacement_min >= -1e-10
        and report.product_replacement_min >= -1e-10
    )
    return _yes_no(
        ok,
        "violation-exhibited",
        "violation-not-found",
        negative_value=report.negative_value,
        alpha=report.alpha,
        popt={
            "status": report.popt_verdict.status,
            "branch": report.popt_verdict.info.get("branch"),
        },
        psd_replacement_min=report.psd_replacement_min,
        product_replacement_min=report.product_replacement_min,
        alice_effect=matrix_to_document(report.alice_effect, (args.n, args.n)),
        bob_effect=matrix_to_document(report.bob_effect, (args.n, args.n)),
    )


def _selftest(args):
    """run the full acceptance suite"""
    from dataclasses import asdict

    from .acceptance import CRITERIA, TIME_BUDGETS

    results = []
    for criterion in CRITERIA:
        res = criterion()
        tag = "PASS" if res.passed else "FAIL"
        line = f"criterion {res.number:2d} {tag} {res.name} ({res.elapsed:.2f}s): {res.detail}"
        print(line, file=sys.stderr, flush=True)
        results.append({**asdict(res), "budget": TIME_BUDGETS[res.number]})
    return _yes_no(all(r["passed"] for r in results), "pass", "fail", criteria=results)


# ---------------------------------------------------------------------------
# the command table: name -> (handler, document loaders, options); a handler's
# docstring is its help line, and a command with loaders reads one document

_COMMANDS = {
    "verify-state": (_verify_state, (_document,), (_TOL,)),
    "influence-free": (_influence_free, (_state,), (_TOL,)),
    "fns-tests": (_fns_tests, (_document,), (_CAP,)),
    "condition": (_condition, (_state, _document), (_TOL,)),
    "bayes-check": (_bayes_check, (_state,), (_TOL,)),
    # the reconstruction carries the dims
    "reconstruct": (_reconstruct, (_operator,), (_TOL, _DIMS.but(echo=False))),
    "choi": (_choi, (_map,), ()),
    "apply-map": (_apply_map, (_field("map", _map), _field("operand", _matrix)), ()),
    "kraus": (_kraus, (_map,), (_TOL,)),
    "cp-check": (_cp_check, (_map,), (_TOL,)),
    "co-cp-check": (_co_cp_check, (_map,), (_TOL,)),
    "ppt-check": (_ppt_check, (_operator,), (_TOL, _DIMS)),
    "popt": (_popt, (_operator,), (_TOL, *_FEAS, _DIMS, _SEED, _RESTARTS)),
    "decompose": (_decompose, (_operator,), (*_FEAS, _DIMS)),
    "extremality": (_extremality, (_matrix,), (_TOL,)),
    "pivot": (_pivot, (_operator,), (_TOL, _SIDE, _WEYL, _N)),
    "corollary": (_corollary, (_field("w", _matrix), _field("b", _matrix)), (_TOL, _N)),
    "witness-demo": (
        _witness_demo,
        (),
        (_N.but(default=2, help=None), _SEED.but(required=False, default=2026, help=None)),
    ),
    "selftest": (_selftest, (), ()),
}


def _answer(args):
    """Load and admit the document, run the handler, and echo the options as config."""
    handler, loaders, options = _COMMANDS[args.command]
    inputs = ()
    if loaders:
        doc = _load(args.path)
        inputs = [load(doc, "input", args) for load in loaders]
        if hasattr(args, "n"):
            # the local dimension of a document's operator follows from its size
            args.n = _local_dim(args.n, inputs[0].shape[0])
    code, fields = handler(args, *inputs)
    config = {o.dest: getattr(args, o.dest) for o in options if o.echo}
    if config:
        fields["config"] = config
    return code, fields


def build_parser(argv=()) -> _Parser:
    """The command-line parser. When argv starts with a command's name only
    that command's subparser is added, since parsing reads no other; any
    other argv gets all of them, for the full usage and help texts."""
    parser = _Parser(prog="influencefree", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        handler, loaders, options = _COMMANDS[name]
        sub = subs.add_parser(name, help=handler.__doc__)
        if loaders:
            sub.add_argument("path", nargs="?", default="-", help="input JSON file, - for stdin")
        for option in options:
            sub.add_argument(option.flag, **option.settings)
    return parser


def _emit(code: int, doc: dict) -> int:
    """Print doc as strict JSON and return code; a non-finite result is malformed."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        doc = {"verdict": "malformed-input", "reason": "the result holds a non-finite number"}
        return _emit(EXIT_MALFORMED, doc)
    print(text)
    return code


def run(argv) -> int:
    try:
        code, doc = _answer(build_parser(argv).parse_args(argv))
    except _UsageError as exc:
        code, doc = EXIT_USAGE, {"verdict": "usage-error", "reason": str(exc)}
    except CapExceededError as exc:
        doc = {"verdict": "inconclusive", "reason": str(exc), "required": exc.required}
        code = EXIT_INCONCLUSIVE
    except MemoryError as exc:
        # a failed allocation decides nothing; exit 1 would read as refuted
        doc = {"verdict": "inconclusive", "reason": str(exc) or "out of memory"}
        code = EXIT_INCONCLUSIVE
    except ValueError as exc:
        code, doc = EXIT_MALFORMED, {"verdict": "malformed-input", "reason": str(exc)}
    return _emit(code, doc)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
