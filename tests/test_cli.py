import argparse
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import fake_cpus

from anovaselect import cli, risk
from anovaselect.cli import build_parser, main, read_config_file, resolve_config, write_csv
from anovaselect.extremal import a_exact
from anovaselect.lattice import DimensionSpec
from anovaselect.selector import build_selector_config


def run(args):
    return main(args)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def forbid_calibration(monkeypatch):
    def fail(cfg):
        raise AssertionError("the selector was calibrated before the config was checked")

    monkeypatch.setattr(cli, "_config_for", fail)


# Read only: the calibrate CSVs of the benchmark's problem keys at d = 50, 200,
# and each workload's CSVs at seeds 10 and 11.
BENCH_FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "tests" / "fixtures"

SMALL_RISK_CFG = """
# small full-enumeration configuration: the pool covers all 78 subsets
d = 12
s = 2
beta = 0.6
sigma = 1
epsilon = 0.01
grid_m = 3
truncation = rule
pattern = none
cycles = 2
pool_size = 100000
seed = 5
"""


class TestConfigHandling:
    def test_parse_types_and_comments(self, tmp_path):
        path = write_config(
            tmp_path,
            "d = 20   # ambient dimension\nalphas = 0.1,0.5,1\n",
        )
        cfg = read_config_file(path)
        assert cfg == {"d": 20, "alphas": [0.1, 0.5, 1.0]}

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        documented = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert documented == set(cli._KEY_SPECS)

    def test_readme_synopsis_lists_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        synopsis = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        documented = set(re.findall(r"--[\w-]+", synopsis))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for parser in sub.choices.values() for action in parser._actions
                 for opt in action.option_strings if opt.startswith("--")}
        assert documented == flags - {"--help"}

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "dee = 5\n")
        with pytest.raises(ValueError, match="unknown config key"):
            read_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "d = twenty\n")
        with pytest.raises(ValueError, match="cannot parse"):
            read_config_file(path)

    def test_unknown_key_exits_2(self, tmp_path):
        path = write_config(tmp_path, "dee = 5\n")
        assert run(["table1", "--config", path, "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["tableau"]) == 2
        capsys.readouterr()

    def test_capacity_error_exits_3(self, tmp_path):
        # a tiny noise level pushes the k = 1 shell list past MAX_SHELL_INDEX entries
        path = write_config(
            tmp_path, "d = 10\ns = 1\nepsilon = 1e-12\ngrid_m = 2\ntruncation = rule\n"
        )
        assert run(["calibrate", "--config", path, "--out", str(tmp_path), "--quiet"]) == 3

    def test_order_beyond_int64_ranks_exits_3(self, tmp_path, capsys):
        # C(200, 13) subsets: calibration succeeds, the rank sampler cannot hold them
        path = write_config(
            tmp_path,
            "d = 200\ns = 13\nbeta = 0.5\nsigma = 1\nepsilon = 5e-6\ngrid_m = 3\n"
            "truncation = rule\npattern = none\npool_size = 5\ncycles = 1\n",
        )
        assert run(["risk", "--config", path, "--out", str(tmp_path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"numeric error: order k=13 at d=200 has {math.comb(200, 13)} subsets" in err
        assert "int64" in err

    @pytest.mark.parametrize(
        "command,keys,named",
        [
            # the bisection halves the radius until r^(2/sigma) underflows
            ("calibrate", "sigma = 1e-3\nepsilon = 0.01\n", ["k=1", "sigma=0.001", "r="]),
            ("calibrate", "epsilon = 1e-200\n", ["k=1", "epsilon=1e-200"]),
            # (2 pi)^-sigma underflows: no admissible radius at any order
            ("calibrate", "sigma = 1e5\n", ["k=1", "sigma=100000.0"]),
            ("boundary", "sigma = 1e5\n", ["k=1", "sigma=100000.0"]),
            ("boundary", "epsilon = 1e-200\n", ["k=1", "epsilon=1e-200"]),
            # epsilon^2 is subnormal, so a(r) = .../epsilon^2 overflows
            ("boundary", "epsilon = 1e-160\n", ["k=1", "epsilon=1e-160"]),
            ("risk", "d = 62\ns = 4\npattern = none\ncycles = 1\npool_size = 1000000\n",
             ["k=4", "557845", "500000", "pool of at most"]),
        ],
        ids=["calibrate-sigma-small", "calibrate-epsilon-underflow", "calibrate-sigma-large",
             "boundary-sigma-large", "boundary-epsilon-underflow", "boundary-epsilon-overflow",
             "risk-pool-cap"],
    )
    def test_numeric_failure_exits_3(self, tmp_path, capsys, monkeypatch, command, keys, named):
        # underflows to 0 and the subset cap are numeric errors, met before any
        # draw, and the message names the keys and the order behind them
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))
        path = write_config(tmp_path, keys)
        out = tmp_path / "out"
        assert run([command, "--config", path, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        for part in named:
            assert part in err
        assert draws == []
        assert not (out / f"{command}.csv").exists()

    def test_environment_ignored_and_flag_precedence(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        out_env = tmp_path / "env"
        monkeypatch.setenv("ANOVASELECT_SEED", "9")
        assert run(["risk", "--config", cfg, "--out", str(out_env), "--quiet"]) == 0
        manifest = (out_env / "risk_manifest.txt").read_text()
        assert "seed = 5" in manifest
        out_flag = tmp_path / "flag"
        assert (
            run(["risk", "--config", cfg, "--out", str(out_flag), "--seed", "4", "--quiet"])
            == 0
        )
        assert "seed = 4" in (out_flag / "risk_manifest.txt").read_text()


TINY_AUDIT_CFG = """
d = 12
s = 2
beta = 0.6
epsilon = 0.01
grid_m = 3
truncation = rule
"""


class TestValidation:
    @pytest.mark.parametrize(
        "line",
        [
            "audit_m = -1",
            "audit_m = 99",
            "audit_k = 7",
            "pool_size = -5",
            "epsilon = nan",
            "sigma = inf",
            "beta = 1.5",
            "s = 13",
            "grid_m = 1",
            "cycles = 0",
            "seed = -3",
            "calibration = fast",
            "pattern = random",
            "alphas = 0.5,0",
            "k_list = 1,13",
            "k_list = 12",
            "trials_tail = 0",
            "tail_t = -1",
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, line):
        path = write_config(tmp_path, TINY_AUDIT_CFG + line + "\n")
        assert run(["audit", "--config", path, "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + line.split()[0])
        assert not (tmp_path / "audit.csv").exists()

    @pytest.mark.parametrize(
        "command,line,message",
        [
            ("table1", "d_list =", "d_list must hold at least one value"),
            ("calibrate", "k_list = 1,5", "k=5 exceeds the configured maximal order s=4"),
            ("calibrate", "d = 3\ns = 3", "s = 3 lies outside [1, d) (d = 3)"),
            ("table1", "d_list = 50,3\nk_max = 5", "k_max = 5 exceeds d = 3 in d_list"),
        ],
        ids=["table1-d_list", "calibrate-k_list", "calibrate-s", "table1-k_max"],
    )
    def test_bad_list_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, line, message
    ):
        forbid_calibration(monkeypatch)
        path = write_config(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert run([command, "--config", path, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / f"{command}.csv").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run(["table1", "--config", str(missing), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(missing) in err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n", encoding="utf-8")
        assert run(["table1", "--out", str(taken), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert taken.read_text(encoding="utf-8") == "keep me\n"

    def test_range_edges_accepted(self, tmp_path):
        path = write_config(tmp_path, TINY_AUDIT_CFG + "audit_k = 2\naudit_m = 3\n")
        args = build_parser().parse_args(["audit", "--config", path])
        cfg = resolve_config(args)
        assert (cfg["audit_k"], cfg["audit_m"]) == (2, 3)


class TestTable1:
    def test_reference_values(self, tmp_path):
        assert run(["table1", "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert lines[0] == "d,k,n_active"
        rows = {tuple(map(int, line.split(",")[:2])): int(line.split(",")[2])
                for line in lines[1:]}
        expected = {
            (50, 1): 2, (50, 2): 3, (50, 3): 4, (50, 4): 5,
            (100, 1): 2, (100, 2): 3, (100, 3): 5, (100, 4): 7,
            (200, 1): 2, (200, 2): 3, (200, 3): 6, (200, 4): 10,
        }
        assert rows == expected

    def test_formula_fallback_off_bank(self, tmp_path):
        cfg = write_config(tmp_path, "beta = 0.5\nd_list = 10\nk_max = 2\n")
        assert run(["table1", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert lines[1] == "10,1,3"  # round(10^0.5)
        assert lines[2] == "10,2,7"  # round(45^0.5)


class TestCalibrate:
    def test_residuals_within_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, "d = 50\ns = 1\nepsilon = 5e-5\ngrid_m = 20\n")
        assert run(["calibrate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "calibrate.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 21
        idx = header.index("residual")
        assert all(float(line.split(",")[idx]) <= 1e-8 for line in lines[1:])

    @pytest.mark.parametrize("d", [50, 200])
    def test_bytes_match_benchmark_fixture(self, tmp_path, d):
        # the benchmark's problem keys (bench/run.py PROBLEM)
        cfg = write_config(
            tmp_path, f"d = {d}\ns = 4\nbeta = 0.87\nsigma = 1\nepsilon = 5e-5\ngrid_m = 20\n"
        )
        assert run(["calibrate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        fixture = BENCH_FIXTURES / f"calibrate-d{d}.csv"
        assert (tmp_path / "calibrate.csv").read_bytes() == fixture.read_bytes()

    def test_asymptotic_residual_is_closed_form_error(self, tmp_path):
        # asymptotic radii invert the closed form, but a(r*) is the exact sum
        keys = "d = 12\ns = 2\nbeta = 0.6\nepsilon = 0.01\ngrid_m = 3\ntruncation = rule\n"
        cfg = write_config(tmp_path, keys + "calibration = asymptotic\n")
        assert run(["calibrate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "calibrate.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = {(int(f[0]), int(f[1])): f for f in (line.split(",") for line in lines[1:])}
        dim = DimensionSpec(d=12, s=2, beta=0.6, sigma=1.0, epsilon=0.01)
        config = build_selector_config(dim, M=3, calibration="asymptotic", truncation="rule")
        for k in (1, 2):
            for m, (prof, target) in enumerate(zip(config.profiles[k], config.grid.targets[k])):
                a_value = a_exact(prof.source_r, k, 1.0, 0.01)
                assert config.grid.a_values[k][m] == prof.a_value == a_value
                residual = rows[k, m + 1][header.index("residual")]
                assert residual == cli._fmt(abs(a_value - target) / target)
                assert float(residual) > 1e-3

    def test_order_five_calibrates(self, tmp_path):
        # calibration builds per-shell arrays only: the k = 5 support of about
        # 2.2e7 points lies on a few hundred shells, so no point cap applies
        cfg = write_config(tmp_path, "d = 50\ns = 5\ntruncation = rule\n")
        assert run(["calibrate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "calibrate.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 20


class TestRiskAndReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["risk", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert run(["risk", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "risk.csv").read_bytes() == (out2 / "risk.csv").read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        out1 = tmp_path / "orig"
        assert run(["risk", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        manifest = out1 / "risk_manifest.txt"
        # byte identity holds per numpy version (NEP 19), so the manifest names it
        assert f"numpy = {np.__version__}" in manifest.read_text().splitlines()
        out2 = tmp_path / "redo"
        assert (
            run(["risk", "--config", str(manifest), "--out", str(out2), "--quiet"]) == 0
        )
        assert (out1 / "risk.csv").read_bytes() == (out2 / "risk.csv").read_bytes()

    @pytest.mark.parametrize("line", ["quiet = false", "mode = pool"])
    def test_manifest_with_quiet_key_reads_back(self, tmp_path, line):
        # manifests written while `quiet` and `mode` were config keys hold these lines
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        out1 = tmp_path / "orig"
        assert run(["risk", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        lines = (out1 / "risk_manifest.txt").read_text().splitlines()
        lines.insert(lines.index("pool_size = 100000"), line)
        manifest = write_config(tmp_path, "\n".join(lines) + "\n", name="old_manifest.txt")
        out2 = tmp_path / "redo"
        assert run(["risk", "--config", manifest, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "risk.csv").read_bytes() == (out2 / "risk.csv").read_bytes()

    def test_quiet_key_set_to_true_exits_2(self, tmp_path, capsys):
        # only the flag quiets a run; a manifest's `quiet = false` still reads back
        path = write_config(tmp_path, "d = 12\nquiet = true\n")
        assert run(["table1", "--config", path, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "run.cfg:2: quiet is not a config key" in captured.err
        assert "--quiet" in captured.err
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("value", ["full", "everything"])
    def test_mode_key_other_than_pool_exits_2(self, tmp_path, capsys, monkeypatch, value):
        # a pool_size at or above C(d, k) is what full enumeration was
        forbid_calibration(monkeypatch)
        path = write_config(tmp_path, f"d = 12\nmode = {value}\n")
        out = tmp_path / "out"
        assert run(["risk", "--config", path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "run.cfg:2: mode is not a config key" in err
        assert "pool_size" in err
        assert not (out / "risk.csv").exists()

    def test_output_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        assert run(["risk", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        path = tmp_path / "risk.csv"
        original = path.read_bytes()
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        parsed = [[_reparse(v) for v in line.split(",")] for line in lines[1:]]
        write_csv(path, header, parsed)
        assert path.read_bytes() == original

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        assert run(["risk", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert run(["risk", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "risk.csv" in capsys.readouterr().out


def _reparse(token):
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            return token


class TestTable2:
    def test_smoke_run_at_benchmark_dimension(self, tmp_path):
        cfg = write_config(tmp_path, "cycles = 1\nalphas = 0.001,1\npool_size = 5\nseed = 3\n")
        assert run(["table2", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "table2.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,err,false_positives,loss_01"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0.001", "1"]  # ascending alphas
        assert rows[1][1] == "0"  # full-strength signal fully recovered

    def test_empty_alphas_exits_2(self, tmp_path, capsys, monkeypatch):
        forbid_calibration(monkeypatch)
        cfg = write_config(tmp_path, "cycles = 1\nalphas =\npool_size = 5\n")
        out = tmp_path / "out"
        assert run(["table2", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "alphas must hold at least one value" in capsys.readouterr().err
        assert not (out / "table2.csv").exists()

    @pytest.mark.parametrize("seed", [10, 11])
    def test_bytes_match_benchmark_fixture(self, tmp_path, seed):
        # the table2-d50 workload's keys (bench/run.py WORKLOADS)
        cfg = write_config(
            tmp_path,
            "d = 50\ns = 4\nbeta = 0.87\nsigma = 1\nepsilon = 5e-5\ngrid_m = 20\n"
            "pattern = benchmark\npool_size = 2000\ncycles = 8\n"
            "alphas = 0.0001,0.0005,0.0009,0.001,0.0011,0.0012,0.005,0.5,1.0\n",
        )
        args = ["table2", "--config", cfg, "--seed", str(seed), "--out", str(tmp_path), "--quiet"]
        assert run(args) == 0
        fixture = BENCH_FIXTURES / f"seed{seed}" / "table2.csv"
        assert (tmp_path / "table2.csv").read_bytes() == fixture.read_bytes()


class TestBoundaryAndAudit:
    def test_boundary_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "d = 50\ns = 2\nbeta_steps = 5\nr_steps = 6\nk_list = 1,2\n",
        )
        assert run(["boundary", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "boundary.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,sigma,d,k,r,ratio,verdict"
        assert len(lines) == 1 + 2 * 5 * 6
        verdicts = {line.split(",")[-1] for line in lines[1:]}
        assert verdicts <= {"selectable", "detectable_only", "undetectable", "boundary"}

    @pytest.mark.parametrize("line", ["r_frac_min = 1", "r_frac_max = 1"])
    def test_radius_fraction_one_exits_2(self, tmp_path, capsys, line):
        # a radius at the admissible maximum would be dropped from the sweep
        cfg = write_config(tmp_path, f"d = 50\ns = 2\nr_steps = 5\n{line}\n")
        out = tmp_path / "out"
        assert run(["boundary", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]} = 1 ")
        assert not (out / "boundary.csv").exists()

    def test_audit_checks_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "d = 12\ns = 2\nbeta = 0.6\nepsilon = 0.01\ngrid_m = 3\ntruncation = rule\n"
            "trials_null = 20000\ntrials_tail = 50000\naudit_k = 1\n",
        )
        assert run(["audit", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "audit.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        checks = {row[0] for row in rows}
        assert {"weight_normalization", "truncation_coverage", "null_mean",
                "null_var", "tail_upper", "tail_regime"} <= checks
        # tail_regime and ellipsoid_membership rows are informational flags
        failures = [row for row in rows if row[-1] == "false"
                    and row[0] not in ("ellipsoid_membership", "tail_regime")]
        assert failures == []

    def test_audit_bytes_independent_of_threads(self, tmp_path, monkeypatch):
        # several 20000-row batches per sample, summed in batch order
        cfg = write_config(
            tmp_path,
            "d = 12\ns = 2\nbeta = 0.6\nepsilon = 0.01\ngrid_m = 3\ntruncation = rule\n"
            "trials_null = 50000\ntrials_tail = 70000\n",
        )
        outputs = []
        for cpus in (1, 2):
            fake_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert run(["audit", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outputs.append((out / "audit.csv").read_bytes())
        assert outputs[0] == outputs[1]
