"""Benchmark of the anovaselect CLI: three workloads, each run in fresh child
processes from the checkout's ``src/``.

    python3 bench/run.py --workload table2-d50 --seed 10 --seconds 25 --trace 0

Run from the root of a checkout.  ``--workload all`` runs every workload in
turn and exits nonzero if any of them failed.  Each run:

1. runs the workload's subcommand with the same seed at least ``MIN_SAMPLES``
   times, and more while another run fits in ``--seconds``, timing each child
   from spawn to exit and reading its CPU time and peak RSS from ``wait4``;
2. times ``anovaselect calibrate`` with the workload's problem keys,
   ``SETUP_BATCH`` times before each sample and after the last (``setup_s``,
   the work every subcommand pays before its first draw);
3. with ``--trace 1``, runs the subcommand once more under ``traced.py`` and
   reports the per-layer metrics from its spans instead of the end-to-end ones.

Every output is checked (``checks.py``), and all runs of one seed must write
identical CSV bytes.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the error rate, and the environment.  The
exit code is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_build") / "anovaselect"
SETUP_BATCH = 2
MIN_SAMPLES = 2  # byte-identity needs two runs of the seed
DEADLINE_S = 170.0  # every run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Problem keys shared by every workload: the paper's benchmark
# configuration.  Workloads set problem inputs only, never tuning keys such
# as ``threads``.
PROBLEM = {"s": 4, "beta": 0.87, "sigma": 1.0, "epsilon": 5e-5, "grid_m": 20}
ALPHAS = [0.0001, 0.0005, 0.0009, 0.001, 0.0011, 0.0012, 0.005, 0.5, 1.0]


@dataclass(frozen=True)
class Workload:
    subcommand: str
    keys: dict

    def check(self, data: bytes) -> list[str]:
        if self.subcommand == "table2":
            return checks.check_table2(data, self.keys["cycles"], self.keys["alphas"])
        if self.subcommand == "risk":
            return checks.check_risk_null(data, self.keys["cycles"])
        return checks.check_audit(data)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "table2-d50": Workload(
        "table2",
        {**PROBLEM, "d": 50, "pattern": "benchmark", "pool_size": 2000,
         "cycles": 8, "alphas": ALPHAS},
    ),
    "risk-null-d200": Workload(
        "risk",
        {**PROBLEM, "d": 200, "pattern": "none", "pool_size": 2000,
         "cycles": 10, "alpha": 1.0},
    ),
    "audit-d50": Workload(
        "audit",
        {**PROBLEM, "d": 50, "pattern": "benchmark", "trials_null": 100_000,
         "trials_tail": 1_000_000, "tail_t": 3.0, "audit_k": 1, "audit_m": 0},
    ),
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}

# Per-layer metrics of the result line.  Busy times of layers that some
# workload never calls (risk.self_s, lattice.ball_coords.busy_s,
# selector.observation_stream.busy_s, selector.tail_bound_audit.busy_s,
# signals.coeff_vector.busy_s) read exactly 0 on that workload, so they are
# printed with the rest but kept out of the result line.
LAYER_UNITS = {
    "risk.stat_evals": "count",
    "risk.false_positives": "count",
    "risk.misses": "count",
    "risk.self_s": "s",
    "lattice.ball_coords.calls": "count",
    "lattice.ball_coords.busy_s": "s",
    "lattice.ball_coords.points": "count",
    "lattice.ball_coords.bytes": "bytes",
    "selector.null_shell_draw.calls": "count",
    "selector.null_shell_draw.busy_s": "s",
    "selector.null_shell_draw.rows": "count",
    "selector.null_shell_draw.variates": "count",
    "selector.observation_stream.calls": "count",
    "selector.observation_stream.busy_s": "s",
    "selector.tail_bound_audit.busy_s": "s",
    "selector.build_selector_config.busy_s": "s",
    "extremal.calibrate_radii.busy_s": "s",
    "extremal.a_exact.calls": "count",
    "lattice.shell_counts.calls": "count",
    "lattice.shell_counts.busy_s": "s",
    "signals.coeff_vector.calls": "count",
    "signals.coeff_vector.busy_s": "s",
    "signals.coeff_vector.repeat_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
SOMETIMES_ZERO = {"risk.self_s", "lattice.ball_coords.busy_s",
                  "selector.observation_stream.busy_s", "selector.tail_bound_audit.busy_s",
                  "signals.coeff_vector.busy_s"}
RESULT_LAYER_METRICS = [m for m in LAYER_UNITS if m not in SOMETIMES_ZERO]
RISK_ENTRIES = ("risk.estimate_risk", "risk.attenuation_experiment")


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: bytes
    stderr: str
    problems: list


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(_fmt_value(v) for v in value)
    return repr(value)


def write_config(path: Path, keys: dict) -> None:
    path.write_text("".join(f"{k} = {_fmt_value(v)}\n" for k, v in keys.items()),
                    encoding="utf-8")


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANOVASELECT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, out: Path, csv_name: str,
              deadline: float) -> ChildRun:
    """Run one child to exit; wall from spawn to exit, CPU and RSS from wait4."""
    out.mkdir(parents=True, exist_ok=True)
    err_path = out / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    csv_path = out / csv_name
    output = csv_path.read_bytes() if csv_path.is_file() else b""
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {stderr[-500:]}"]
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, output, stderr, problems)


def cli_args(subcommand: str, config: Path, seed: int, out: Path) -> list[str]:
    return [subcommand, "--config", str(config), "--seed", str(seed),
            "--out", str(out), "--quiet"]


def mark_nonidentical(runs: list[ChildRun]) -> None:
    ok = [r for r in runs if not r.problems]
    for i in checks.check_identical([r.output for r in ok]):
        ok[i].problems.append("CSV bytes differ from the first run of this seed")


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    nproc = shutil.which("nproc")
    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True).stdout)
        if nproc else None,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _union_length(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(trace: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of one traced run.

    Times in the spans are integer nanoseconds.  ``busy_s`` sums the span
    durations of a function over all threads; ``risk.self_s`` is the time of
    the risk entry points that no direct child span covers.
    """
    names = trace["names"]
    spans = {s[0]: s for s in trace["spans"]}
    problems = []
    if trace["extract_errors"]:
        problems.append(f"{trace['extract_errors']} spans lost their computed counts")
    if 0 not in spans:
        return {}, problems + ["trace has no root span"]
    children: dict[int, list[tuple[int, int]]] = {}
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    extras: dict[str, list] = {}
    orphans = 0
    for sid, parent, name_idx, start, end, _, extra in spans.values():
        name = names[name_idx]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + end - start
        if extra is not None:
            extras.setdefault(name, []).append((start, extra))
        if sid == 0:
            continue
        up = spans.get(parent)
        if up is None or not (up[3] <= start and end <= up[4]):
            orphans += 1
        children.setdefault(parent, []).append((start, end))
    if orphans:
        problems.append(f"{orphans} spans lack a parent span that contains them")

    def in_risk(span) -> bool:
        while span is not None:
            span = spans.get(span[1])
            if span is not None and names[span[2]] in RISK_ENTRIES:
                return True
        return False

    risk_self = 0
    for sid, _, name_idx, start, end, _, _ in spans.values():
        if names[name_idx] in RISK_ENTRIES:
            risk_self += (end - start) - _union_length(children.get(sid, []), start, end)
    risk_counts = [e for name in RISK_ENTRIES for _, e in extras.get(name, [])]
    stat_evals = sum(1 for s in spans.values()
                     if names[s[2]] == "selector.observation_stream" and in_risk(s))
    seen = set()
    repeats = 0
    for _, key in sorted(extras.get("signals.coeff_vector", [])):
        repeats += tuple(key) in seen
        seen.add(tuple(key))

    def col(name, i):
        return sum(e[i] for _, e in extras.get(name, []))

    ns = 1e-9
    metrics = {
        "risk.stat_evals": stat_evals,
        "risk.false_positives": sum(e[0] for e in risk_counts),
        "risk.misses": sum(e[1] for e in risk_counts),
        "risk.self_s": risk_self * ns,
        "lattice.ball_coords.points": col("lattice.ball_coords", 0),
        "lattice.ball_coords.bytes": col("lattice.ball_coords", 1),
        "selector.null_shell_draw.rows": col("selector.null_shell_draw", 0),
        "selector.null_shell_draw.variates": col("selector.null_shell_draw", 1),
        "signals.coeff_vector.repeat_ratio":
            repeats / calls["signals.coeff_vector"] if calls.get("signals.coeff_vector") else 0.0,
    }
    for metric in LAYER_UNITS:
        name, _, field = metric.rpartition(".")
        if field == "calls":
            metrics[metric] = calls.get(name, 0)
        elif field == "busy_s":
            metrics[metric] = busy.get(name, 0) * ns
    return metrics, problems


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value): the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return p, statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]


def report_line(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail
                else "tail n/a (a tail percentile needs 11 samples)")
    return f"  {name:<40} median {med:.6g} {unit:<6} {tail_txt}; n = {len(values)}"


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run of one workload; returns the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    src = root / "src"
    workload = WORKLOADS[name]
    out = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "workload.cfg"
    write_config(config, workload.keys)
    env = child_env(src)
    module = [sys.executable, "-m", "anovaselect.cli"]

    setup: list[ChildRun] = []

    def set_up() -> None:
        for _ in range(SETUP_BATCH):
            d = out / f"setup{len(setup)}"
            run = run_child(module + cli_args("calibrate", config, seed, d), env, d,
                            "calibrate.csv", deadline)
            if not run.problems:
                run.problems += checks.check_calibrate(run.output)
            setup.append(run)

    try:
        # Set-up runs are spread over the whole run, in batches before each
        # sample and after the last, so their median follows the machine's
        # speed over the run rather than over its first seconds.
        samples = []
        measured = 0.0
        while len(samples) < MIN_SAMPLES or measured + measured / len(samples) <= seconds:
            set_up()
            d = out / f"sample{len(samples)}"
            run = run_child(module + cli_args(workload.subcommand, config, seed, d),
                            env, d, f"{workload.subcommand}.csv", deadline)
            if not run.problems:
                run.problems += workload.check(run.output)
            samples.append(run)
            measured += run.wall_s
        set_up()
        mark_nonidentical(setup)

        traced = None
        layers: dict = {}
        if trace:
            d = out / "traced"
            spans = OUT_DIR / f"{name}.spans.json"
            traced = run_child([sys.executable, str(BENCH_DIR / "traced.py"), str(spans), "--"]
                               + cli_args(workload.subcommand, config, seed, d),
                               env, d, f"{workload.subcommand}.csv", deadline)
            if not traced.problems:
                traced.problems += workload.check(traced.output)
            if not traced.problems:
                layers, trace_problems = layer_metrics(json.loads(spans.read_text()))
                traced.problems += trace_problems
        mark_nonidentical(samples + ([traced] if traced else []))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    runs = setup + samples + ([traced] if traced else [])
    failed = [r for r in runs if r.problems]
    good = [r for r in samples if not r.problems]
    good_setup = [r for r in setup if not r.problems]
    series = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": [r.wall_s for r in good_setup],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
        "cpu_s": [r.cpu_s for r in good],
    }
    print(f"workload {name} (anovaselect {workload.subcommand}), seed {seed}: "
          f"{len(samples)} runs, {len(setup)} set-up runs"
          + (", 1 traced run" if traced else ""))
    for run in failed:
        print(f"  FAILED: {'; '.join(run.problems)[:2000]}")
    for metric, values in series.items():
        if values:
            print(report_line(metric, values, E2E_UNITS[metric]))
    print(f"  {'error_rate':<40} {len(failed) / len(runs):.6g} "
          f"({len(failed)} of {len(runs)} runs failed)")

    metrics: dict = {}
    if trace:
        if layers and good:
            layers["trace.wall_s"] = traced.wall_s
            layers["trace.overhead_s"] = traced.wall_s - statistics.median(series["wall_s"])
            print("  per-layer metrics of the traced run:")
            for metric, unit in LAYER_UNITS.items():
                print(f"  {metric:<40} {layers[metric]:.6g} {unit}")
            metrics = {m: {"value": layers[m], "unit": LAYER_UNITS[m]}
                       for m in RESULT_LAYER_METRICS}
    elif all(series.values()):
        metrics = {m: {"value": statistics.median(v), "unit": E2E_UNITS[m]}
                   for m, v in series.items()}

    env_record = environment(root)
    print("env " + json.dumps(env_record, sort_keys=True))
    correct = not failed and bool(metrics)
    result = {"correct": correct, "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed,
                             "trace": trace, "env": env_record, "series": series,
                             "layers": layers, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "anovaselect" / "cli.py").is_file():
        print(f"error: {root / 'src' / 'anovaselect'} not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max([run_workload(root, name, args.seed, args.seconds, args.trace)
                for name in names])


if __name__ == "__main__":
    sys.exit(main())
