"""Command-line front end: reproduce the benchmark tables, calibrate grids,
run risk experiments and audits, and sweep the phase boundaries.

Subcommands write one comma-separated data file plus a manifest of flat
``key = value`` lines.  The manifest echoes every resolved configuration key,
so it can be fed back through ``--config`` to reproduce a run byte-for-byte.
Floats are printed with 12 significant digits; re-parsing and re-serialising
any output file yields identical bytes.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric or capacity
error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import CapacityError
from .extremal import admissible_r_max
from .lattice import DimensionSpec, active_count
from .risk import attenuation_experiment, boundary_sweep, estimate_risk
from .selector import build_selector_config, null_moments, tail_bound_audit
from .signals import build_pattern, has_benchmark_bank, sobolev_norm

import numpy as np

# Results at the benchmark scale are seed-level reproductions; this default is
# the documented seed for the shipped tables (see README on reproducibility).
DEFAULT_SEED = 10

# key -> (type tag, default, allowed values).  "flist"/"ilist" are
# comma-separated lists whose every element must be allowed; a list with a
# non-empty default must not be empty.  Allowed values
# are a tuple of choices, an interval in the usual notation whose bounds are
# numbers, "inf" or the name of another key, or None for any value.
_KEY_SPECS: dict[str, tuple[str, object, object]] = {
    "d": ("int", 50, "[1, inf)"),
    "s": ("int", 4, "[1, d)"),
    "beta": ("float", 0.87, "(0, 1)"),
    "sigma": ("float", 1.0, "(0, inf)"),
    "epsilon": ("float", 5e-5, "(0, inf)"),
    "grid_m": ("int", 20, "[2, inf)"),
    "calibration": ("str", "exact", ("exact", "asymptotic")),
    "truncation": ("str", "preset", ("preset", "rule")),
    "eps_hat_rule": ("str", "fixed", ("fixed", "growing_s")),
    "seed": ("int", DEFAULT_SEED, "[0, inf)"),
    "out": ("str", "out", None),
    "pool_size": ("int", 2000, "[0, inf)"),
    "cycles": ("int", 15, "[1, inf)"),
    "alpha": ("float", 1.0, "(0, inf)"),
    "alphas": ("flist", [0.0001, 0.0005, 0.0009, 0.001, 0.0011, 0.0012, 0.005, 0.5, 1.0],
               "(0, 1]"),
    "pattern": ("str", "benchmark", ("benchmark", "none")),
    "d_list": ("ilist", [50, 100, 200], "[1, inf)"),
    "k_max": ("int", 4, "[1, inf)"),
    "k_list": ("ilist", [], "[1, d)"),  # empty = the subcommand's orders
    "beta_min": ("float", 0.05, "(0, 1)"),
    "beta_max": ("float", 0.95, "(0, 1)"),
    "beta_steps": ("int", 25, "[1, inf)"),
    "r_frac_min": ("float", 0.02, "(0, 1)"),
    "r_frac_max": ("float", 0.9, "(0, 1)"),
    "r_steps": ("int", 20, "[1, inf)"),
    "band": ("float", 0.05, "[0, inf)"),
    "audit_k": ("int", 1, "[1, s]"),
    "audit_m": ("int", 0, "[0, grid_m]"),  # 0 = middle of the grid
    "trials_null": ("int", 100_000, "[1, inf)"),
    "trials_tail": ("int", 1_000_000, "[1, inf)"),
    "tail_t": ("float", 3.0, "[0, inf)"),
}

# Manifest bookkeeping keys, ignored when a manifest is read back as a config.
_RESERVED_KEYS = {"command", "version", "numpy", "wall_time_s"}

# Keys of older manifests: the one value each may hold, which is ignored, and
# what replaced the key, which the error for any other value names.
_RETIRED_KEYS = {"quiet": ("false", "pass the --quiet flag"),
                 "mode": ("pool", "a pool_size at or above C(d,k) draws all subsets")}

# The boundary sweep is about ratios, not the benchmark noise level.  Supports
# do not depend on epsilon, but a(r) scales as 1/epsilon^2, so this default
# moves every ratio and verdict of the sweep.
_SUBCOMMAND_DEFAULTS = {"boundary": {"epsilon": 0.01}}


def _parse_value(key: str, raw: str):
    kind = _KEY_SPECS[key][0]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "flist":
            return [float(v) for v in raw.split(",") if v.strip()]
        if kind == "ilist":
            return [int(v) for v in raw.split(",") if v.strip()]
        return raw
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from None


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in _RETIRED_KEYS and raw != _RETIRED_KEYS[key][0]:
            raise ValueError(f"{path}:{lineno}: {key} is not a config key; "
                             f"{_RETIRED_KEYS[key][1]}")
        if key in _RESERVED_KEYS or key in _RETIRED_KEYS:
            continue
        if key not in _KEY_SPECS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def _check_allowed(key: str, cfg: dict) -> None:
    _, default, allowed = _KEY_SPECS[key]
    value = cfg[key]
    if value == [] and default:
        raise ValueError(f"{key} must hold at least one value")
    if allowed is None:
        return
    if isinstance(allowed, tuple):
        if value not in allowed:
            raise ValueError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")
        return
    lo_name, hi_name = (part.strip() for part in allowed[1:-1].split(","))
    lo, hi = (float(cfg[b]) if b in cfg else float(b) for b in (lo_name, hi_name))
    named = ", ".join(f"{b} = {_fmt(cfg[b])}" for b in (lo_name, hi_name) if b in cfg)
    for v in value if isinstance(value, list) else [value]:
        above = lo < v if allowed[0] == "(" else lo <= v
        below = v < hi if allowed[-1] == ")" else v <= hi
        if not (above and below):
            where = f" ({named})" if named else ""
            raise ValueError(f"{key} = {_fmt(v)} lies outside {allowed}{where}")


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Defaults < subcommand defaults < config file < ``--seed``, ``--out``.

    Every key is then checked against its allowed values in ``_KEY_SPECS``.
    """
    cfg = {key: default for key, (_, default, _) in _KEY_SPECS.items()}
    cfg.update(_SUBCOMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        cfg.update(read_config_file(args.config))
    for flag in ("seed", "out"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    for key in _KEY_SPECS:
        _check_allowed(key, cfg)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_manifest(path: Path, command: str, cfg: dict, wall_time: float) -> None:
    lines = [f"command = {command}", f"version = {__version__}", f"numpy = {np.__version__}"]
    lines.extend(f"{key} = {_fmt(cfg[key])}" for key in sorted(_KEY_SPECS))
    lines.append(f"wall_time_s = {wall_time:.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _dim(cfg: dict) -> DimensionSpec:
    return DimensionSpec(
        d=cfg["d"], s=cfg["s"], beta=cfg["beta"], sigma=cfg["sigma"], epsilon=cfg["epsilon"]
    )


def _config_for(cfg: dict):
    return build_selector_config(
        _dim(cfg),
        M=cfg["grid_m"],
        calibration=cfg["calibration"],
        truncation=cfg["truncation"],
        eps_hat_rule=cfg["eps_hat_rule"],
    )


def _pattern_for(cfg: dict):
    if cfg["pattern"] == "none":
        return build_pattern(_dim(cfg), mode="explicit", components=[])
    return build_pattern(_dim(cfg), mode="benchmark")


# ---------------------------------------------------------------------------
# Subcommand runners: each returns (header, rows)
# ---------------------------------------------------------------------------

def run_table1(cfg: dict):
    """Active-component counts per (d, k).

    At the benchmark configuration the counts come from the experiment bank
    itself (which pins three two-way components for every d); elsewhere they
    follow the rounding rule round(C(d,k)^(1-beta)).
    """
    d_min = min(cfg["d_list"])
    if cfg["k_max"] > d_min:
        raise ValueError(f"k_max = {cfg['k_max']} exceeds d = {d_min} in d_list")
    rows = []
    for d in cfg["d_list"]:
        bank = None
        if has_benchmark_bank(d, cfg["beta"]) and cfg["k_max"] <= 4:
            spec = DimensionSpec(d=d, s=4, beta=cfg["beta"], sigma=cfg["sigma"],
                                 epsilon=cfg["epsilon"])
            bank = build_pattern(spec, mode="benchmark").counts()
        for k in range(1, cfg["k_max"] + 1):
            n = bank[k] if bank is not None else active_count(d, k, cfg["beta"])
            rows.append([d, k, n])
    return ["d", "k", "n_active"], rows


def _loss_header(J: int) -> list[str]:
    return [f"loss_{j + 1:02d}" for j in range(J)]


def run_table2(cfg: dict):
    """Attenuation experiment: estimated Hamming risk per signal strength."""
    pattern = _pattern_for(cfg)
    config = _config_for(cfg)
    reports = attenuation_experiment(
        sorted(cfg["alphas"]),
        pattern,
        config,
        J=cfg["cycles"],
        seed=cfg["seed"],
        pool_inactive=cfg["pool_size"],
    )
    header = ["alpha", "err", "false_positives"] + _loss_header(cfg["cycles"])
    rows = [
        [rep.alpha, rep.err, rep.false_positives, *rep.per_cycle_losses]
        for rep in reports
    ]
    return header, rows


def run_risk(cfg: dict):
    """Single Hamming-risk estimate at one signal strength."""
    pattern = _pattern_for(cfg)
    if cfg["alpha"] != 1.0:
        pattern = pattern.with_attenuated(cfg["alpha"])
    config = _config_for(cfg)
    report = estimate_risk(
        pattern,
        config,
        J=cfg["cycles"],
        seed=cfg["seed"],
        pool_inactive=cfg["pool_size"],
    )
    header = ["alpha", "err", "false_positives", "misses"] + _loss_header(cfg["cycles"])
    rows = [[cfg["alpha"], report.err, report.false_positives, report.misses,
             *report.per_cycle_losses]]
    return header, rows


def run_calibrate(cfg: dict):
    """Emit the calibrated grid: beta_m, targets, radii, residuals, thresholds."""
    ks = cfg["k_list"] or list(range(1, cfg["s"] + 1))
    for k in ks:
        if k > cfg["s"]:
            raise ValueError(f"k={k} exceeds the configured maximal order s={cfg['s']}")
    config = _config_for(cfg)
    header = ["k", "m", "beta", "target", "r_star", "a_value", "residual",
              "threshold", "trunc_n", "support_points", "max_weight"]
    grid = config.grid
    rows = []
    for k in ks:
        for m, prof in enumerate(config.profiles[k]):
            target = grid.targets[k][m]
            rows.append([
                k,
                m + 1,
                grid.betas[m],
                target,
                prof.source_r,
                prof.a_value,
                abs(prof.a_value - target) / target,
                config.thresholds[k],
                config.truncation[k],
                prof.support_size,
                prof.max_weight,
            ])
    return header, rows


def run_boundary(cfg: dict):
    """Phase sweep of verdicts over a (beta, r) grid."""
    dim = _dim(cfg)
    betas = np.linspace(cfg["beta_min"], cfg["beta_max"], cfg["beta_steps"])
    ks = cfg["k_list"] or [1, 2]
    rows = []
    header = ["beta", "sigma", "d", "k", "r", "ratio", "verdict"]
    for k in ks:
        r_hi = admissible_r_max(k, dim.sigma)
        radii = np.geomspace(cfg["r_frac_min"] * r_hi, cfg["r_frac_max"] * r_hi,
                             cfg["r_steps"])
        for row in boundary_sweep(dim, betas, radii, [k], band=cfg["band"]):
            rows.append([row.beta, dim.sigma, dim.d, row.k, row.r, row.ratio, row.verdict])
    return header, rows


def run_audit(cfg: dict):
    """Normalisation, coverage, null-moment, tail, and ellipsoid audits."""
    config = _config_for(cfg)
    rows: list[list] = []
    header = ["check", "k", "m", "value", "reference", "ok"]
    for k in config.orders():
        for m, prof in enumerate(config.profiles[k], start=1):
            residual = abs(prof.sum_sq() - 0.5) / 0.5
            rows.append(["weight_normalization", k, m, residual, 1e-10, residual <= 1e-10])
        covered = max(p.max_abs_coord for p in config.profiles[k])
        n_k = config.truncation[k]
        rows.append(["truncation_coverage", k, 0, covered, n_k, covered <= n_k])

    k_a = cfg["audit_k"]
    m_a = cfg["audit_m"] or (len(config.grid.betas) + 1) // 2
    prof = config.profiles[k_a][m_a - 1]
    moments = null_moments(prof, cfg["trials_null"], cfg["seed"])
    rows.append(["null_mean", k_a, m_a, moments[0], 0.02, abs(moments[0]) <= 0.02])
    rows.append(["null_var", k_a, m_a, moments[1], 0.05, abs(moments[1] - 1.0) <= 0.05])

    audit = tail_bound_audit(cfg["tail_t"], cfg["trials_tail"], cfg["seed"], prof)
    slack_bound = math.exp(-cfg["tail_t"] ** 2 / 2.0 * 0.8)
    rows.append(["tail_upper", k_a, m_a, audit.empirical_upper, audit.reference,
                 audit.empirical_upper <= slack_bound])
    rows.append(["tail_regime", k_a, m_a, cfg["tail_t"] * prof.max_weight, 0.1,
                 audit.regime_ok])

    if has_benchmark_bank(cfg["d"], cfg["beta"]) and cfg["s"] == 4:
        pattern = _pattern_for(cfg)
        for k in sorted(pattern.counts()):
            for i, comp in enumerate(pattern.active(k), start=1):
                norm = sobolev_norm(comp, config.truncation[k], cfg["sigma"])
                rows.append(["ellipsoid_membership", k, i, norm, 1.0, norm <= 1.0])
    return header, rows


_RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "risk": run_risk,
    "calibrate": run_calibrate,
    "boundary": run_boundary,
    "audit": run_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anovaselect",
        description="Sparse functional-ANOVA component selection laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__.splitlines()[0])
        p.add_argument("--config", metavar="PATH", default=None,
                       help="flat key = value configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true",
                       help="do not print the final 'wrote ...' line")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = resolve_config(args)
        out_dir = Path(cfg["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        header, rows = _RUNNERS[args.command](cfg)
        wall = time.perf_counter() - start
        data_path = out_dir / f"{args.command}.csv"
        write_csv(data_path, header, rows)
        write_manifest(out_dir / f"{args.command}_manifest.txt", args.command, cfg, wall)
        if not args.quiet:
            print(f"wrote {data_path} ({len(rows)} rows, {wall:.2f}s)")
        return 0
    except (CapacityError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
