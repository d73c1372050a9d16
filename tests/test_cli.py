from pathlib import Path

import pytest

from anovaselect import cli, lattice
from anovaselect.cli import build_parser, main, read_config_file, resolve_config, write_csv


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
# small full-enumeration configuration
d = 12
s = 2
beta = 0.6
sigma = 1
epsilon = 0.01
grid_m = 3
truncation = rule
pattern = none
cycles = 2
mode = full
seed = 5
"""


BENCH_D50_CFG = """
d = 50
s = 4
beta = 0.87
sigma = 1
epsilon = 5e-5
grid_m = 20
pattern = benchmark
cycles = 1
pool_size = 8
"""


class TestConfigHandling:
    def test_parse_types_and_comments(self, tmp_path):
        path = write_config(
            tmp_path,
            "d = 20   # ambient dimension\nalphas = 0.1,0.5,1\nquiet = true\n",
        )
        cfg = read_config_file(path)
        assert cfg == {"d": 20, "alphas": [0.1, 0.5, 1.0], "quiet": True}

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

    def test_ball_tail_bound_exits_3(self, tmp_path, monkeypatch):
        # the benchmark's k = 4 ball tail holds 162848 points; below that bound
        # the run stops before its first draw
        monkeypatch.setattr(lattice, "MAX_BALL_POINTS", 100_000)
        lattice._ball_tail.cache_clear()
        path = write_config(tmp_path, BENCH_D50_CFG)
        out = tmp_path / "out"
        assert run(["risk", "--config", path, "--out", str(out), "--quiet"]) == 3
        assert not (out / "risk.csv").exists()

    def test_env_override_and_flag_precedence(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL_RISK_CFG)
        out_env = tmp_path / "env"
        monkeypatch.setenv("ANOVASELECT_SEED", "9")
        assert run(["risk", "--config", cfg, "--out", str(out_env), "--quiet"]) == 0
        manifest = (out_env / "risk_manifest.txt").read_text()
        assert "seed = 9" in manifest
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
            "threads = -1",
            "seed = -3",
            "mode = everything",
            "calibration = fast",
            "pattern = random",
            "alphas = 0.5,0",
            "k_list = 1,13",
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
        ],
        ids=["table1-d_list", "calibrate-k_list"],
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
        out2 = tmp_path / "redo"
        assert (
            run(["risk", "--config", str(manifest), "--out", str(out2), "--quiet"]) == 0
        )
        assert (out1 / "risk.csv").read_bytes() == (out2 / "risk.csv").read_bytes()

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

    def test_bytes_match_benchmark_fixture(self, tmp_path):
        # the table2-d50 workload's keys (bench/run.py WORKLOADS) at seed 10
        cfg = write_config(
            tmp_path,
            "d = 50\ns = 4\nbeta = 0.87\nsigma = 1\nepsilon = 5e-5\ngrid_m = 20\n"
            "pattern = benchmark\npool_size = 2000\ncycles = 8\n"
            "alphas = 0.0001,0.0005,0.0009,0.001,0.0011,0.0012,0.005,0.5,1.0\n",
        )
        args = ["table2", "--config", cfg, "--seed", "10", "--out", str(tmp_path), "--quiet"]
        assert run(args) == 0
        fixture = BENCH_FIXTURES / "seed10" / "table2.csv"
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

    def test_audit_bytes_independent_of_threads(self, tmp_path):
        # several 20000-row batches per sample, summed in batch order
        cfg = write_config(
            tmp_path,
            "d = 12\ns = 2\nbeta = 0.6\nepsilon = 0.01\ngrid_m = 3\ntruncation = rule\n"
            "trials_null = 50000\ntrials_tail = 70000\n",
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            args = ["audit", "--config", cfg, "--threads", threads, "--out", str(out), "--quiet"]
            assert run(args) == 0
            outputs.append((out / "audit.csv").read_bytes())
        assert outputs[0] == outputs[1]
