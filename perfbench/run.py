#!/usr/bin/env python3
"""Benchmark for influencefree: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload cone-verdicts --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from the repository root. Each workload runs in one process with one
client in a closed loop: the next operation is issued only after the previous
one returns. Inputs come from the benchmark's own seeded generator (never
from influencefree.sampling); the seed and a sha256 of every generated input
are printed. Every operation's output is checked with the benchmark's own
numpy code, and failures are counted by cause.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload once
untraced and once with spans around every public function of the package's
modules, prints the per-layer metrics and the tracing overhead, and then runs
the acceptance suite once for its scoreboard (about 90 s).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts every operation whose output
failed a check, including those on the two documented known defects;
`correct` is false when any failure has another cause. A per-layer count
whose source field has moved out of the package's result reads -1 and is
listed under "missing" in the report line printed before it.
"""

import os

# One BLAS thread: two-thread OpenBLAS was measured bimodal on a two-core
# machine (pivot_alice at n = 3 took 1 ms in most runs and 48 ms in others).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import numpy as np  # noqa: E402

import scoreboard  # noqa: E402
import wl_cli  # noqa: E402
import wl_cones  # noqa: E402
import wl_coupled  # noqa: E402
import wl_operator  # noqa: E402
from common import Digest, Ledger, percentile_ms, run_loop  # noqa: E402
from tracer import MISSING, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("cone-verdicts", "coupled-tables", "operator-algebra", "cli-requests")
BUILDERS = {
    "cone-verdicts": wl_cones.build,
    "coupled-tables": wl_coupled.build,
    "operator-algebra": wl_operator.build,
}
# generated input sets per run; cycles past the pool reuse it from the start
POOL = {"cone-verdicts": 2, "coupled-tables": 16, "operator-algebra": 2, "cli-requests": 2}
SETUP_SPAWNS = 5
# a run must end within 180 s; the acceptance suite gets what is left of this
RUN_BUDGET_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("passed_share", "ratio"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [f"linalg.{f}.{k}" for f in ("psd_part", "partial_transpose", "min_eig") for k in ("calls", "self_s")]
    + [f"linalg.{f}.self_s" for f in ("kron", "permute_systems", "partial_trace")]
    + ["cones.popt_minimize.self_s", "cones.popt_minimize.restarts", "cones.popt_minimize.restart_ms"]
    + [f"cones.{f}.{k}" for f in ("decomposable_sum_membership", "extremality_probe")
       for k in ("self_s", "iterations", "iteration_us")]
    + [f"cones.{f}.decided_share" for f in ("is_popt", "decomposable_sum_membership", "extremality_probe")]
    + ["coupling.ProductState.self_s", "coupling.is_influence_free.self_s", "coupling.enumerate.self_s",
       "coupling.enumerate.tests", "coupling.is_state_on_two_stage.self_s",
       "coupling.is_state_on_two_stage.us_per_test", "coupling.condition.self_s",
       "coupling.condition.refused", "coupling.bayes.self_s", "testspace.TestSpace.self_s"]
    + ["teleport.pivot.self_s", "teleport.pivot.n5_ms", "teleport.pivot.n6_ms",
       "teleport.corollary_check.self_s", "teleport.witness_demo.n4_ms"]
    + [f"choimaps.{f}.self_s" for f in ("compose_maps", "transpose_in_basis", "hk_representation",
                                        "reconstruct_operator")]
    + ["cli.import_numpy_s", "cli.import_package_s", "cli.parse_s", "jsonio.decode_s",
       "jsonio.decode_us_per_entry", "jsonio.encode_s", "jsonio.encode_us_per_entry",
       "cli.library_s", "cli.handler_self_s"]
    + ["trace.overhead_share"]
    + [f"acceptance.c{i:02d}_{k}" for i in range(1, 12) for k in ("s", "budget_share")]
)


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("share"):
        return "ratio"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_us") or "_us_" in last or last.startswith("us_"):
        return "us"
    if last.endswith("_s"):
        return "s"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(module: str, env: dict) -> float:
    """Median wall time of fresh interpreters that only import `module`."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=120)
        if i:  # the first spawn only warms the bytecode cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_import_split(env: dict) -> tuple[float, float]:
    """Median import time of numpy, and of influencefree.cli on top of it."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import influencefree.cli; print(t1 - t0, time.perf_counter() - t1)")
    pairs = []
    for _ in range(SETUP_SPAWNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        pairs.append((float(out[0]), float(out[1])))
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "load_processes": 1,
        "clients": 1,
    }


def end_to_end(setup_s, ledger, busy, latencies, rss_kb) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p95_ms": percentile_ms(latencies, 95),
        "passed_share": 1.0 - ledger.failed / ledger.attempted,
        # with no operation able to end undecided, every verdict is decided
        "decided_share": ledger.decided / ledger.decidable if ledger.decidable else 1.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if not (ROOT / "src" / "influencefree" / "__init__.py").is_file():
        raise SystemExit(f"package source not found under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import influencefree as F

    env = child_env()
    digest, ledger = Digest(), Ledger()
    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    try:
        if name == "cli-requests":
            if trace:
                import_numpy, import_pkg = cli_import_split(env)
                import influencefree.cli as cli_module

                cycles = wl_cli.build(wl_cli.inprocess_runner(cli_module), seed, POOL[name], digest, workdir)
            else:
                setup = import_seconds("influencefree.cli", env)
                cycles = wl_cli.build(wl_cli.spawn_runner(ROOT, env), seed, POOL[name], digest, workdir)
        elif name == "cone-verdicts" and trace:
            # one input set per cycle, so that both traced-run phases and the
            # acceptance suite (about 90 s) fit in the 180 s a run may take
            cycles = wl_cones.build(F, seed, POOL[name], digest, sets=1)
        else:
            if not trace:
                setup = import_seconds("influencefree", env)
            cycles = BUILDERS[name](F, seed, POOL[name], digest)
        report["inputs_digest"] = digest.hexdigest()

        if not trace:
            done, busy, latencies = run_loop(cycles, seconds, ledger)
            usage = resource.RUSAGE_CHILDREN if name == "cli-requests" else resource.RUSAGE_SELF
            values = end_to_end(setup, ledger, busy, latencies, resource.getrusage(usage).ru_maxrss)
            units = dict(END_TO_END)
            report["samples"] = len(latencies)
        else:
            # the cli replay is one whole cycle each way: its requests differ too much
            # in cost for a time-based stop to repeat the same mix
            fixed = 1 if name == "cli-requests" else None
            done, busy, latencies = run_loop(cycles, seconds / 2.0, ledger, n_cycles=fixed)
            tracer = Tracer()
            tracer.install(F, cli_parse=name == "cli-requests")
            try:
                _, busy_t, latencies_t = run_loop(cycles, seconds, ledger, n_cycles=done)
            finally:
                tracer.uninstall()
            values, missing = layer_metrics(tracer)
            if name == "cli-requests":
                values["cli.import_numpy_s"], values["cli.import_package_s"] = import_numpy, import_pkg
            else:
                values["cli.import_numpy_s"] = values["cli.import_package_s"] = 0.0
            rate, rate_t = len(latencies) / busy, len(latencies_t) / busy_t
            values["trace.overhead_share"] = (rate - rate_t) / rate
            acceptance, report["acceptance"] = scoreboard.run(
                ROOT, env, RUN_BUDGET_S - (time.perf_counter() - started))
            values.update(acceptance)
            missing += [k for k, v in acceptance.items() if v == MISSING]
            report["missing"] = missing
            report["not_exercised"] = sorted(k for k, v in values.items() if v == 0.0)
            units = {k: unit_of(k) for k in PER_LAYER}
            report["samples"] = {"untraced": len(latencies), "traced": len(latencies_t)}
        if set(values) != set(units):
            raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
        report["cycles"] = done
        report["measured_s"] = busy
        report["ledger"] = ledger.summary()
        report["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()


def result_line(report: dict) -> dict:
    led = report["ledger"]
    return {
        "correct": led["unexpected_failures"] == 0,
        "attempted": led["attempted"],
        "failed": led["failed"],
        "metrics": report["metrics"],
    }


def print_table(name: str, report: dict) -> None:
    led = report["ledger"]
    print(f"== {name}  seed {report['seed']}  inputs {report['inputs_digest'][:16]}  "
          f"cycles {report['cycles']}  samples {report['samples']}")
    for key, m in report["metrics"].items():
        print(f"   {key:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"   attempted {led['attempted']}  failed {led['failed']} "
          f"(share {led['failed_share']:.4f}; unexpected {led['unexpected_failures']})")
    for cause, count in led["failed_by_cause"].items():
        print(f"     {count:>5}  {cause}")


def run_all(args) -> int:
    """Run every workload, each in its own process, and print one table each."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-2])
        print_table(name, report)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, report)
    print(json.dumps(report))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
