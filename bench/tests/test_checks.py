"""Self-tests for the benchmark's output checks and trace analysis.

Run from the repository root:

    python3 -m pytest -q bench/tests

``fixtures/seed10`` and ``fixtures/seed11`` hold the CSV files the workloads
of ``bench/run.py`` wrote at seeds 10 and 11 on the commit that introduced the
benchmark (``python3 -m anovaselect.cli SUBCOMMAND --config CFG --seed N``
with the config ``run.write_config`` writes for the workload);
``fixtures/calibrate-d50.csv`` and ``calibrate-d200.csv`` are the seed-free
calibration grids.  Tests that run the program use the tiny configuration
d = 12, s = 2.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

TINY = ("d = 12\ns = 2\nbeta = 0.6\nsigma = 1\nepsilon = 0.01\ngrid_m = 3\n"
        "truncation = rule\npattern = none\ncycles = 2\n"
        "trials_null = 20000\ntrials_tail = 40000\n")
J2 = run.WORKLOADS["table2-d50"].keys["cycles"]
JR = run.WORKLOADS["risk-null-d200"].keys["cycles"]


def fixture(name: str, seed: int | None = None) -> bytes:
    return (FIXTURES / (f"seed{seed}" if seed else "") / name).read_bytes()


def edit_rows(data: bytes, edit) -> bytes:
    """Apply edit(rows) to the parsed CSV rows (header excluded)."""
    lines = data.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = edit(rows)
    return ("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n").encode()


@pytest.mark.parametrize("seed", [10, 11])
def test_accepts_this_commits_outputs(seed):
    assert run.WORKLOADS["table2-d50"].check(fixture("table2.csv", seed)) == []
    assert run.WORKLOADS["risk-null-d200"].check(fixture("risk.csv", seed)) == []
    assert run.WORKLOADS["audit-d50"].check(fixture("audit.csv", seed)) == []


@pytest.mark.parametrize("name", ["calibrate-d50.csv", "calibrate-d200.csv"])
def test_accepts_calibration_grids(name):
    assert checks.check_calibrate(fixture(name)) == []


def test_rejects_flipped_loss_at_alpha_1():
    def flip(rows):
        row = rows[-1]
        assert float(row[0]) == 1.0
        losses = [int(v) for v in row[3:]]
        losses[0] ^= 1
        row[1] = f"{sum(losses) / J2:.12g}"
        row[3:] = [str(v) for v in losses]
        return rows

    problems = checks.check_table2(edit_rows(fixture("table2.csv", 10), flip), J2, run.ALPHAS)
    assert any("alpha 1.0" in p for p in problems)


def test_rejects_err_inconsistent_with_losses():
    def bump(rows):
        rows[0][1] = "0.5"
        return rows

    assert checks.check_table2(edit_rows(fixture("table2.csv", 10), bump), J2, run.ALPHAS)


def test_rejects_false_positives_above_bound():
    limit = checks.poisson_ceiling(checks.FP_PER_CYCLE_CEILING * JR)

    def many(rows):
        row = rows[0]
        row[2] = str(limit + 1)
        row[4:] = [str(limit + 1)] + ["0"] * (JR - 1)
        row[1] = f"{(limit + 1) / JR:.12g}"
        return rows

    problems = checks.check_risk_null(edit_rows(fixture("risk.csv", 10), many), JR)
    assert any("exceed the bound" in p for p in problems)


def test_rejects_miss_under_global_null():
    def miss(rows):
        rows[0][3] = "1"
        return rows

    assert checks.check_risk_null(edit_rows(fixture("risk.csv", 10), miss), JR)


def test_rejects_failed_weight_normalisation_row():
    def fail(rows):
        row = next(r for r in rows if r[0] == "weight_normalization")
        row[-1] = "false"
        return rows

    problems = checks.check_audit(edit_rows(fixture("audit.csv", 10), fail))
    assert any("weight_normalization" in p for p in problems)


def test_rejects_changed_ellipsoid_norm():
    def shift(rows):
        row = next(r for r in rows if r[0] == "ellipsoid_membership")
        row[3] = f"{float(row[3]) * (1 + 1e-5):.12g}"
        return rows

    assert checks.check_audit(edit_rows(fixture("audit.csv", 10), shift))


@pytest.mark.parametrize("name", ["table2.csv", "risk.csv", "audit.csv", "calibrate-d50.csv"])
def test_rejects_missing_row(name):
    data = fixture(name, 10 if name != "calibrate-d50.csv" else None)
    short = edit_rows(data, lambda rows: rows[:-1])
    if name == "table2.csv":
        assert checks.check_table2(short, J2, run.ALPHAS)
    elif name == "risk.csv":
        assert checks.check_risk_null(short, JR)
    elif name == "audit.csv":
        assert checks.check_audit(short)
    else:
        assert checks.check_calibrate(short)


def test_rejects_different_bytes():
    same = fixture("table2.csv", 10)
    assert checks.check_identical([same, same]) == []
    assert checks.check_identical([same, fixture("table2.csv", 11), same]) == [1]


def test_bounds_are_below_one_in_a_million():
    assert checks.poisson_ceiling(0.5) == 7
    assert checks.binomial_ceiling(10, 0.01) == 4


def _tiny_run(tmp_path, name, seed, extra="", subcommand="risk"):
    config = tmp_path / f"{name}.cfg"
    config.write_text(TINY + extra, encoding="utf-8")
    out = tmp_path / name
    argv = ([sys.executable, "-m", "anovaselect.cli"]
            + run.cli_args(subcommand, config, seed, out))
    return run.run_child(argv, run.child_env(ROOT / "src"), out, f"{subcommand}.csv",
                         deadline=time.monotonic() + 120)


def test_run_child_reports_nonzero_exit(tmp_path):
    bad = _tiny_run(tmp_path, "bad", 5, "mode = bogus\n")
    assert bad.exit_code == 2 and bad.problems
    good = _tiny_run(tmp_path, "good", 5)
    assert good.exit_code == 0 and good.problems == []
    assert good.cpu_s > 0 and good.peak_rss_mb > 0


def test_same_seed_same_bytes_on_tiny_config(tmp_path):
    # the audit's null moments depend on the seed
    runs = [_tiny_run(tmp_path, f"r{i}", seed, subcommand="audit")
            for i, seed in enumerate((5, 5, 6))]
    assert all(r.exit_code == 0 for r in runs)
    assert runs[0].output == runs[1].output
    run.mark_nonidentical(runs)
    assert [bool(r.problems) for r in runs] == [False, False, True]


def test_traced_run_on_tiny_config(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY, encoding="utf-8")
    spans = tmp_path / "spans.json"
    argv = ([sys.executable, str(BENCH / "traced.py"), str(spans), "--"]
            + run.cli_args("risk", config, 5, tmp_path / "out"))
    res = run.run_child(argv, run.child_env(ROOT / "src"), tmp_path / "out", "risk.csv",
                        deadline=time.monotonic() + 120)
    assert res.exit_code == 0, res.stderr
    metrics, problems = run.layer_metrics(json.loads(spans.read_text()))
    assert problems == []
    # every subset of orders 1 and 2 of {1..12}, in each of 2 cycles
    assert metrics["risk.stat_evals"] == (12 + 66) * 2
    assert metrics["selector.null_shell_draw.calls"] == (12 + 66) * 2
    assert metrics["selector.null_shell_draw.rows"] == (12 + 66) * 2
    assert metrics["lattice.ball_coords.calls"] == 0
    assert metrics["risk.misses"] == 0
    assert 0 <= metrics["risk.self_s"]


def _span(sid, parent, name, start, end, thread=0, extra=None):
    return [sid, parent, name, start, end, thread, extra]


NAMES = ["workload", "risk.estimate_risk", "selector.observation_stream",
         "selector.null_shell_draw", "signals.coeff_vector"]


def test_layer_metrics_self_time_and_parents():
    trace = {"names": NAMES, "extract_errors": 0, "spans": [
        _span(0, None, 0, 0, 1000),
        _span(1, 0, 1, 100, 900, extra=[2, 3]),
        # two worker threads under the risk span; their union covers 200..700
        _span(2, 1, 2, 200, 500, thread=1),
        _span(3, 1, 2, 400, 700, thread=2),
        _span(4, 2, 3, 250, 300, thread=1, extra=[1, 5]),
        _span(5, 0, 4, 910, 920, extra=[1, 12]),
        _span(6, 0, 4, 930, 940, extra=[1, 12]),
    ]}
    metrics, problems = run.layer_metrics(trace)
    assert problems == []
    assert metrics["risk.self_s"] == pytest.approx(300e-9)
    assert metrics["risk.stat_evals"] == 2
    assert (metrics["risk.false_positives"], metrics["risk.misses"]) == (2, 3)
    assert metrics["selector.null_shell_draw.variates"] == 5
    assert metrics["selector.observation_stream.busy_s"] == pytest.approx(600e-9)
    assert metrics["signals.coeff_vector.repeat_ratio"] == 0.5


def test_layer_metrics_rejects_orphans():
    trace = {"names": NAMES, "extract_errors": 0, "spans": [
        _span(0, None, 0, 0, 1000),
        _span(1, 7, 2, 100, 200),
        _span(2, 0, 2, 900, 1100),
    ]}
    _, problems = run.layer_metrics(trace)
    assert problems == ["2 spans lack a parent span that contains them"]
