"""Output checks for the anovaselect benchmark.

Every check takes the bytes a CLI run wrote and returns a list of problems;
an empty list means the output is correct.  The checks hold on a correct
program for any seed, and they keep holding when a change legitimately
alters the random streams: Monte Carlo results are gated by structure and by
bounds that a correct program breaks with probability below
``FALSE_FAILURE_P`` per run, never by bytes pinned to one commit.  The only
pinned values are deterministic (the Sobolev norms of the ellipsoid audit).
"""

from __future__ import annotations

import csv
import io
import math

# A correct program fails any single probabilistic bound below with at most
# this probability per run.
FALSE_FAILURE_P = 1e-6

# Ceiling on the expected number of false positives per cycle, summed over
# all orders and pooled subsets.  Measured per-draw exceedance rates of
# max_m S_m over t_k: at d = 50, k = 1: 25 and 42 of 5e5 draws; k = 2: 1 of
# 2e5; k = 3: 0 of 1e5.  At d = 200, k = 1: 7 and 13 of 5e5; k = 2: 0 of 2e5;
# k = 3: 0 of 1e5.  With 48 (d = 50) or 200 (d = 200) first-order subsets and
# up to 2000 pooled subsets per higher order, that is about 0.01 expected
# false positives per cycle; the ceiling leaves a factor of five.
FP_PER_CYCLE_CEILING = 0.05

# Ceiling on the per-cycle probability that the attenuated component is
# selected at alpha = 1e-4 and 5e-4.  Measured over 20000 cycles: 1 and 82
# selections (5e-5 and 4.1e-3).
LOW_ALPHA_DETECTION_CEILING = 0.01
LOW_ALPHAS = (0.0001, 0.0005)
# At these strengths the attenuated component's mean statistic is at least
# 27 standard deviations above the threshold, and every other active
# component's at least 11, so a correct program misses none of them.
STRONG_ALPHAS = (0.005, 0.5, 1.0)

CALIBRATE_HEADER = ["k", "m", "beta", "target", "r_star", "a_value", "residual",
                    "threshold", "trunc_n", "support_points", "max_weight"]
CALIBRATE_ROWS = 80
CALIBRATE_MAX_RESIDUAL = 1e-8

AUDIT_HEADER = ["check", "k", "m", "value", "reference", "ok"]
AUDIT_ROWS_PER_CHECK = {
    "weight_normalization": 80,
    "truncation_coverage": 4,
    "null_mean": 1,
    "null_var": 1,
    "tail_upper": 1,
    "tail_regime": 1,
    "ellipsoid_membership": 14,
}
# Truncated Sobolev norms of the d = 50 benchmark components, keyed by
# (k, component).  They are deterministic; 11 of 14 exceed the unit
# ellipsoid, so their ``ok`` flag is false on a correct program and the rows
# are gated on these values instead.
ELLIPSOID_NORMS = {
    (1, 1): 5170.86823825, (1, 2): 1243.87553842,
    (2, 1): 208.589969696, (2, 2): 78.4346314933, (2, 3): 80.1574212824,
    (3, 1): 18.0099822378, (3, 2): 10.7727944023, (3, 3): 30.2209419918,
    (3, 4): 3.70523912448,
    (4, 1): 1.11171689116, (4, 2): 3.02675575023, (4, 3): 0.409688417591,
    (4, 4): 0.206438119301, (4, 5): 0.260233416955,
}
ELLIPSOID_RTOL = 1e-6


def poisson_ceiling(mean: float, p: float = FALSE_FAILURE_P) -> int:
    """Smallest c with P(Poisson(mean) > c) < p.

    A sum of independent Bernoulli counts with this mean is bounded by the
    same c, since its tails are no heavier than the Poisson's.
    """
    term = math.exp(-mean)
    cdf = term
    c = 0
    while 1.0 - cdf >= p:
        c += 1
        term *= mean / c
        cdf += term
    return c


def binomial_ceiling(n: int, q: float, p: float = FALSE_FAILURE_P) -> int:
    """Smallest c with P(Binomial(n, q) > c) < p."""
    cdf = 0.0
    for c in range(n + 1):
        cdf += math.comb(n, c) * q**c * (1.0 - q) ** (n - c)
        if 1.0 - cdf < p:
            return c
    return n


def _rows(data: bytes, header: list[str], problems: list[str]) -> list[list[str]]:
    try:
        table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except UnicodeDecodeError:
        problems.append("output is not UTF-8")
        return []
    if not table:
        problems.append("output is empty")
        return []
    if table[0] != header:
        problems.append(f"header {table[0]} != {header}")
        return []
    return table[1:]


def _loss_table(data: bytes, fixed: list[str], J: int, n_rows: int,
                problems: list[str]) -> list[dict]:
    """Parse a table2/risk CSV into dicts with integer losses.

    Checks the header, row count, integer losses and err * J == sum(losses).
    """
    header = fixed + [f"loss_{j + 1:02d}" for j in range(J)]
    rows = _rows(data, header, problems)
    if problems:
        return []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} rows, expected {n_rows}")
        return []
    out = []
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            problems.append(f"row {i} has {len(row)} fields, expected {len(header)}")
            continue
        try:
            rec = {key: float(row[n]) for n, key in enumerate(fixed)}
            losses = [int(v) for v in row[len(fixed):]]
            for key in ("false_positives", "misses"):
                if key in fixed:
                    rec[key] = int(row[fixed.index(key)])
        except ValueError as exc:
            problems.append(f"row {i}: {exc}")
            continue
        if any(v < 0 for v in losses) or rec["false_positives"] < 0:
            problems.append(f"row {i}: negative count")
        if abs(rec["err"] * J - sum(losses)) > 1e-6:
            problems.append(f"row {i}: err * J = {rec['err'] * J} != sum of losses {sum(losses)}")
        rec["losses"] = losses
        rec.setdefault("misses", round(rec["err"] * J) - rec["false_positives"])
        out.append(rec)
    return out


def check_table2(data: bytes, J: int, alphas: list[float]) -> list[str]:
    """Attenuation table: exact misses where the outcome is certain, bounded
    misses where it is nearly certain, bounded and shared false positives."""
    problems: list[str] = []
    rows = _loss_table(data, ["alpha", "err", "false_positives"], J, len(alphas), problems)
    if problems:
        return problems
    got = [r["alpha"] for r in rows]
    if got != sorted(alphas):
        return [f"alphas {got} != {sorted(alphas)}"]
    fps = {r["false_positives"] for r in rows}
    if len(fps) != 1:
        problems.append(f"false_positives differ across rows: {sorted(fps)}")
    fp_limit = poisson_ceiling(FP_PER_CYCLE_CEILING * J)
    if max(fps) > fp_limit:
        problems.append(f"{max(fps)} false positives exceed the bound {fp_limit}")
    # Only the attenuated component differs between rows, so in every cycle
    # the losses of two rows differ by at most one.
    for r in rows[1:]:
        if any(abs(a - b) > 1 for a, b in zip(r["losses"], rows[0]["losses"])):
            problems.append(f"alpha {r['alpha']}: a cycle's loss differs by more than 1 "
                            f"from alpha {rows[0]['alpha']}")
    for r in rows:
        if r["alpha"] in STRONG_ALPHAS:
            lo, hi = 0, 0
        elif r["alpha"] in LOW_ALPHAS:
            lo, hi = J - binomial_ceiling(J, LOW_ALPHA_DETECTION_CEILING), J
        else:
            lo, hi = 0, J
        if not lo <= r["misses"] <= hi:
            problems.append(f"alpha {r['alpha']}: {r['misses']} misses, expected {lo}..{hi}")
    return problems


def check_risk_null(data: bytes, J: int) -> list[str]:
    """Global null: no misses, every loss is a false positive, and their
    count is bounded."""
    problems: list[str] = []
    rows = _loss_table(data, ["alpha", "err", "false_positives", "misses"], J, 1, problems)
    if problems:
        return problems
    row = rows[0]
    if row["misses"] != 0:
        problems.append(f"{row['misses']} misses under the global null, expected 0")
    if round(row["err"] * J) != row["false_positives"]:
        problems.append(f"err * J = {row['err'] * J} != false_positives {row['false_positives']}")
    fp_limit = poisson_ceiling(FP_PER_CYCLE_CEILING * J)
    if row["false_positives"] > fp_limit:
        problems.append(f"{row['false_positives']} false positives exceed the bound {fp_limit}")
    return problems


def check_calibrate(data: bytes) -> list[str]:
    """Calibrated grid: 80 rows, every relative residual within 1e-8."""
    problems: list[str] = []
    rows = _rows(data, CALIBRATE_HEADER, problems)
    if problems:
        return problems
    if len(rows) != CALIBRATE_ROWS:
        return [f"{len(rows)} rows, expected {CALIBRATE_ROWS}"]
    col = CALIBRATE_HEADER.index("residual")
    for i, row in enumerate(rows, start=1):
        try:
            residual = float(row[col])
        except (ValueError, IndexError):
            problems.append(f"row {i}: unreadable residual")
            continue
        if not residual <= CALIBRATE_MAX_RESIDUAL:
            problems.append(f"row {i}: residual {residual} > {CALIBRATE_MAX_RESIDUAL}")
    return problems


def check_audit(data: bytes) -> list[str]:
    """Audit: every row but the ellipsoid ones passes its own check; the
    ellipsoid rows match the deterministic Sobolev norms."""
    problems: list[str] = []
    rows = _rows(data, AUDIT_HEADER, problems)
    if problems:
        return problems
    seen: dict[str, int] = {}
    norms: dict[tuple[int, int], float] = {}
    for i, row in enumerate(rows, start=1):
        if len(row) != len(AUDIT_HEADER):
            problems.append(f"row {i} has {len(row)} fields")
            continue
        check, k, m, value, _, ok = row
        seen[check] = seen.get(check, 0) + 1
        if check == "ellipsoid_membership":
            try:
                norms[(int(k), int(m))] = float(value)
            except ValueError:
                problems.append(f"row {i}: unreadable ellipsoid row {row}")
        elif ok != "true":
            problems.append(f"row {i}: {check} k={k} m={m} value={value} is not ok")
    if seen != AUDIT_ROWS_PER_CHECK:
        problems.append(f"rows per check {seen} != {AUDIT_ROWS_PER_CHECK}")
    if set(norms) != set(ELLIPSOID_NORMS):
        problems.append(f"ellipsoid rows {sorted(norms)} != {sorted(ELLIPSOID_NORMS)}")
    for key, ref in ELLIPSOID_NORMS.items():
        got = norms.get(key)
        if got is not None and not abs(got - ref) <= ELLIPSOID_RTOL * ref:
            problems.append(f"ellipsoid norm {key} = {got}, expected {ref}")
    return problems


def check_identical(outputs: list[bytes]) -> list[int]:
    """Indices of outputs whose bytes differ from the first one."""
    return [i for i, data in enumerate(outputs) if data != outputs[0]]
