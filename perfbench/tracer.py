"""Spans around every public function of the package's modules, and the
per-layer metrics derived from them.

The wrappers live here, not in the package: each public function is replaced
on its own module and wherever another package module bound the same object
(`from .linalg import psd_part`), and classes with a hand-written __init__
get a span around construction. A span records its name, its start and end,
and the span that was open when it began (the one that caused it); spans are
kept in flat arrays and reduced when the traced phase ends. Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "testspace", "coupling", "choimaps", "cones", "teleport", "jsonio", "cli")
LIBRARY = ("linalg", "testspace", "coupling", "choimaps", "cones", "teleport")

MISSING = -1.0  # value reported for a count whose source field has moved


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self.default_restarts = None

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        stack, name_of, parent, t0s, t1s = self._stack, self.name_of, self.parent, self.t0, self.t1
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            error = None
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1s[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, None if error else result, error, t1s[idx] - t0s[idx])
            return result

        return wrapper

    # -- instrumentation ------------------------------------------------------

    def install(self, package, cli_parse: bool = False) -> None:
        """Wrap every public function and hand-written constructor of the layers."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        namespaces = modules + [package]
        cones = modules[LAYERS.index("cones")]
        param = inspect.signature(cones.popt_minimize).parameters.get("restarts")
        self.default_restarts = None if param is None else param.default
        replaced: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    init = obj.__dict__.get("__init__")
                    if inspect.isfunction(init) and init.__code__.co_filename == mod.__file__:
                        self._undo.append((obj, "__init__", init))
                        obj.__init__ = self.wrap(name, init)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, replaced[id(obj)])
        if cli_parse:
            original = argparse.ArgumentParser.parse_args
            self._undo.append((argparse.ArgumentParser, "parse_args", original))
            argparse.ArgumentParser.parse_args = self.wrap("cli.parse", original)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        inclusive seconds of library spans called directly from cli spans."""
        n = len(self.name_of)
        out: dict[str, dict[str, float]] = {}
        if n == 0:
            return out
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        layer_of = np.array([nm.split(".")[0] for nm in self.names])
        is_cli = np.isin(layer_of, ("cli", "jsonio"))
        is_lib = np.isin(layer_of, LIBRARY)
        from_cli = has_parent & is_lib[names] & is_cli[names[np.where(has_parent, parent, 0)]]
        lib_from_cli = np.bincount(names[from_cli], weights=dur[from_cli], minlength=k)
        for i, nm in enumerate(self.names):
            out[nm] = {
                "calls": float(calls[i]),
                "incl_s": float(incl[i]),
                "self_s": float(selfs[i]),
                "lib_from_cli_s": float(lib_from_cli[i]),
            }
        return out


# -- hooks: counts recorded at the same boundaries as the spans ---------------


def _info_iterations(tr: Tracer, key: str, result) -> None:
    info = getattr(result, "info", None)
    if isinstance(info, dict) and isinstance(info.get("iterations"), int):
        tr.counts[f"{key}.iterations"] += info["iterations"]
    else:
        tr.missing.add(f"{key}.iterations")


def _decided(tr: Tracer, key: str, result, decided: tuple[str, ...]) -> None:
    tr.counts[f"{key}.verdicts"] += 1
    tr.counts[f"{key}.decided"] += getattr(result, "status", None) in decided


def _hook_is_popt(tr, args, kwargs, result, error, dur):
    if error is None:
        _decided(tr, "cones.is_popt", result, ("certified", "refuted"))


def _hook_membership(tr, args, kwargs, result, error, dur):
    if error is None:
        _info_iterations(tr, "cones.decomposable_sum_membership", result)
        _decided(tr, "cones.decomposable_sum_membership", result, ("member", "refuted"))


def _hook_extremality(tr, args, kwargs, result, error, dur):
    if error is None:
        _info_iterations(tr, "cones.extremality_probe", result)
        _decided(tr, "cones.extremality_probe", result, ("rigid", "decomposable_nontrivially"))


def _hook_popt_minimize(tr, args, kwargs, result, error, dur):
    restarts = kwargs.get("restarts", tr.default_restarts)
    if isinstance(restarts, int):
        tr.counts["cones.popt_minimize.restarts"] += restarts
    else:
        tr.missing.add("cones.popt_minimize.restarts")


def _hook_enumerate(tr, args, kwargs, result, error, dur):
    if error is None:
        tr.counts["coupling.enumerate.tests"] += len(result)


def _hook_two_stage(tr, args, kwargs, result, error, dur):
    tests = args[1] if len(args) > 1 else kwargs.get("tests")
    if hasattr(tests, "__len__"):
        tr.counts["coupling.is_state_on_two_stage.tests"] += len(tests)


def _hook_condition(tr, args, kwargs, result, error, dur):
    if isinstance(error, ValueError):
        tr.counts["coupling.condition.refused"] += 1


def _hook_pivot(tr, args, kwargs, result, error, dur):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    if n in (5, 6):
        tr.samples[f"teleport.pivot.n{n}"].append(dur)


def _hook_witness(tr, args, kwargs, result, error, dur):
    n = args[0] if args else kwargs.get("n", 2)
    if n == 4:
        tr.samples["teleport.witness_demo.n4"].append(dur)


def _decode_entries(kind):
    def hook(tr, args, kwargs, result, error, dur):
        doc = args[0] if args else kwargs.get("doc")
        if kind == "matrix" and isinstance(doc, dict):
            size = len(doc.get("entries", ()))
        elif kind == "space" and isinstance(doc, dict):
            size = len(doc.get("outcomes", ()))
        else:
            size = len(doc) if hasattr(doc, "__len__") else 0
        tr.counts["jsonio.decode.entries"] += size
    return hook


def _encode_entries(field):
    def hook(tr, args, kwargs, result, error, dur):
        if error is None:
            part = result.get(field, ()) if field and isinstance(result, dict) else result
            tr.counts["jsonio.encode.entries"] += len(part) if hasattr(part, "__len__") else 0
    return hook


HOOKS = {
    "cones.is_popt": _hook_is_popt,
    "cones.decomposable_sum_membership": _hook_membership,
    "cones.extremality_probe": _hook_extremality,
    "cones.popt_minimize": _hook_popt_minimize,
    "coupling.forward_tests": _hook_enumerate,
    "coupling.backward_tests": _hook_enumerate,
    "coupling.fns_tests": _hook_enumerate,
    "coupling.is_state_on_two_stage": _hook_two_stage,
    "coupling.condition": _hook_condition,
    "teleport.pivot_alice": _hook_pivot,
    "teleport.pivot_bob": _hook_pivot,
    "teleport.pivot_general": _hook_pivot,
    "teleport.desideratum_violation_demo": _hook_witness,
    "jsonio.matrix_from_document": _decode_entries("matrix"),
    "jsonio.testspace_from_document": _decode_entries("space"),
    "jsonio.value_table_from_document": _decode_entries("table"),
    "jsonio.pair_table_from_document": _decode_entries("table"),
    "jsonio.matrix_to_document": _encode_entries("entries"),
    "jsonio.vector_to_document": _encode_entries("entries"),
    "jsonio.testspace_to_document": _encode_entries("outcomes"),
    "jsonio.pair_table_to_document": _encode_entries(None),
    "jsonio.two_stage_test_to_document": _encode_entries("pairs"),
}

DECODERS = ("matrix_from_document", "testspace_from_document", "value_table_from_document",
            "pair_table_from_document", "product_state_documents")
ENCODERS = ("matrix_to_document", "vector_to_document", "testspace_to_document",
            "pair_table_to_document", "two_stage_test_to_document")


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values (without the cli import, overhead and
    acceptance entries, which come from outside the spans) and the names of
    those reported as missing."""
    agg = tr.reduce()
    zero = {"calls": 0.0, "incl_s": 0.0, "self_s": 0.0, "lib_from_cli_s": 0.0}

    def get(name, field):
        return agg.get(name, zero)[field]

    def total(names, field, layer):
        return sum(get(f"{layer}.{n}", field) for n in names)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    c = tr.counts
    m: dict[str, float] = {}
    for fn in ("psd_part", "partial_transpose", "min_eig"):
        m[f"linalg.{fn}.calls"] = get(f"linalg.{fn}", "calls")
        m[f"linalg.{fn}.self_s"] = get(f"linalg.{fn}", "self_s")
    for fn in ("kron", "permute_systems", "partial_trace"):
        m[f"linalg.{fn}.self_s"] = get(f"linalg.{fn}", "self_s")

    m["cones.popt_minimize.self_s"] = get("cones.popt_minimize", "self_s")
    m["cones.popt_minimize.restarts"] = c["cones.popt_minimize.restarts"]
    m["cones.popt_minimize.restart_ms"] = ratio(get("cones.popt_minimize", "incl_s"),
                                                c["cones.popt_minimize.restarts"], 1e3)
    for fn in ("decomposable_sum_membership", "extremality_probe"):
        key = f"cones.{fn}"
        m[f"{key}.self_s"] = get(key, "self_s")
        m[f"{key}.iterations"] = c[f"{key}.iterations"]
        m[f"{key}.iteration_us"] = ratio(get(key, "incl_s"), c[f"{key}.iterations"], 1e6)
    for fn in ("is_popt", "decomposable_sum_membership", "extremality_probe"):
        key = f"cones.{fn}"
        m[f"{key}.decided_share"] = ratio(c[f"{key}.decided"], c[f"{key}.verdicts"])

    m["coupling.ProductState.self_s"] = get("coupling.ProductState", "self_s")
    m["coupling.is_influence_free.self_s"] = get("coupling.is_influence_free", "self_s")
    m["coupling.enumerate.self_s"] = total(("forward_tests", "backward_tests", "fns_tests"), "self_s", "coupling")
    m["coupling.enumerate.tests"] = c["coupling.enumerate.tests"]
    m["coupling.is_state_on_two_stage.self_s"] = get("coupling.is_state_on_two_stage", "self_s")
    m["coupling.is_state_on_two_stage.us_per_test"] = ratio(
        get("coupling.is_state_on_two_stage", "self_s"), c["coupling.is_state_on_two_stage.tests"], 1e6)
    m["coupling.condition.self_s"] = get("coupling.condition", "self_s")
    m["coupling.condition.refused"] = c["coupling.condition.refused"]
    m["coupling.bayes.self_s"] = total(("bayes_mixture_check", "operational_bayes_check"), "self_s", "coupling")
    m["testspace.TestSpace.self_s"] = get("testspace.TestSpace", "self_s")

    m["teleport.pivot.self_s"] = total(("pivot_alice", "pivot_bob", "pivot_general"), "self_s", "teleport")
    for n in (5, 6):
        s = tr.samples[f"teleport.pivot.n{n}"]
        m[f"teleport.pivot.n{n}_ms"] = 1e3 * float(np.median(s)) if s else 0.0
    m["teleport.corollary_check.self_s"] = get("teleport.corollary_check", "self_s")
    s = tr.samples["teleport.witness_demo.n4"]
    m["teleport.witness_demo.n4_ms"] = 1e3 * float(np.median(s)) if s else 0.0

    for fn in ("compose_maps", "transpose_in_basis", "hk_representation", "reconstruct_operator"):
        m[f"choimaps.{fn}.self_s"] = get(f"choimaps.{fn}", "self_s")

    m["cli.parse_s"] = get("cli.parse", "incl_s") + get("cli.build_parser", "incl_s")
    m["jsonio.decode_s"] = total(DECODERS, "self_s", "jsonio")
    m["jsonio.decode_us_per_entry"] = ratio(m["jsonio.decode_s"], c["jsonio.decode.entries"], 1e6)
    m["jsonio.encode_s"] = total(ENCODERS, "self_s", "jsonio")
    m["jsonio.encode_us_per_entry"] = ratio(m["jsonio.encode_s"], c["jsonio.encode.entries"], 1e6)
    m["cli.library_s"] = sum(v["lib_from_cli_s"] for v in agg.values())
    # cli.run's own time: file reads, JSON text parse and print, handler logic
    m["cli.handler_self_s"] = get("cli.run", "self_s")

    missing = sorted(tr.missing)
    for name in missing:
        for key in (name, name.replace(".iterations", ".iteration_us")):
            if key in m:
                m[key] = MISSING
        if name == "cones.popt_minimize.restarts":
            m["cones.popt_minimize.restart_ms"] = MISSING
    return m, missing
