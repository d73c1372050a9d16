import itertools
import math
import os

import numpy as np
import pytest

from anovaselect.extremal import GridSpec, order_weights
from anovaselect.lattice import DimensionSpec
from anovaselect.selector import (
    SelectorConfig,
    build_selector_config,
    epsilon_hat,
    observation_stream,
    threshold,
)
from anovaselect.signals import coeff_vector, product_coeff, quadrature_for


def fake_cpus(monkeypatch, n):
    """Let this process run on ``n`` CPUs, as ``taskset`` would, for the worker pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def brute_ball(k, radius):
    """Independent oracle: scan the integer box and keep all-nonzero points."""
    limit = int(math.ceil(radius))
    pts = []
    for coords in itertools.product(range(-limit, limit + 1), repeat=k):
        if any(v == 0 for v in coords):
            continue
        if sum(v * v for v in coords) < radius * radius:
            pts.append(coords)
    return pts


def brute_lattice(k, r2_max, rho=None):
    """Independent oracle for a ball's points and shells, enumerated whole.

    A meshgrid of the box [-L, L]^k without zeros, a filter on the squared
    norm, and each kept point's index in ``rho``, the ball's occupied squared
    norms (by default those of the kept points).  ``indexing="ij"`` over an
    increasing axis is lexicographic order.
    """
    limit = math.isqrt(max(math.ceil(r2_max) - 1, 0))
    axis = np.array([v for v in range(-limit, limit + 1) if v], dtype=np.int16)
    grid = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
    norm = sum(grid[:, p].astype(np.int64) ** 2 for p in range(k))
    keep = norm < r2_max
    rho = np.unique(norm[keep]) if rho is None else rho
    shell = np.searchsorted(rho, norm[keep])
    assert np.array_equal(np.asarray(rho)[shell], norm[keep])
    return grid[keep], shell


def engine_ball(engine):
    """(coords, shell index) of an engine's ball, by brute force."""
    return brute_lattice(engine.k, float(engine.rho[-1]) + 0.5, engine.rho)


def engine_means(engine, comp):
    """theta_l / eps at the points of ``engine_ball``, from the coefficient vectors."""
    coords, _ = engine_ball(engine)
    n = engine.truncation
    mu = np.full(coords.shape[0], comp.amplitude / engine.epsilon)
    for p, fid in enumerate(comp.factor_ids):
        mu *= coeff_vector(fid, n)[coords[:, p].astype(np.int64) + n]
    return mu


def dense_active_stats(config, comp, seed, cycles, rank):
    """Per-point reference for the statistics of one active subset, one row per cycle.

    X_l = theta_l + eps xi_l on the union of the weight supports, with theta_l
    from ``product_coeff`` and xi from the subset's (seed, cycle, k, rank)
    substream in lexicographic point order; then, per grid point,
    S_m = sum over that profile's own support of omega_l ((X_l / eps)^2 - 1).
    """
    k = comp.subset.k
    eps = config.dim.epsilon
    quad = quadrature_for(config.truncation[k])
    union = max(float(p.rho[-1]) for p in config.profiles[k]) + 0.5
    coords, _ = brute_lattice(k, union)
    theta = np.array([product_coeff(comp, c, quad=quad) for c in coords])
    index = {p: i for i, p in enumerate(map(tuple, coords.tolist()))}
    supports = []
    for prof in config.profiles[k]:
        pts, shell = brute_lattice(k, float(prof.rho[-1]) + 0.5, prof.rho)
        supports.append(([index[p] for p in map(tuple, pts.tolist())], prof.values[shell]))
    rows = []
    for cycle in cycles:
        xi = observation_stream(seed, cycle, k, rank).standard_normal(len(coords))
        y = ((theta + eps * xi) / eps) ** 2 - 1.0
        rows.append([float(omega @ y[idx]) for idx, omega in supports])
    return np.array(rows)


def shell_active_stats(engine, comp, rng, size):
    """Per-shell reference for ``size`` draws of one active subset's statistics.

    Weights are constant on each squared-norm shell, so the shell sum of
    (mu_l + xi_l)^2 is noncentral chi2(N_rho, lam_rho) with lam_rho the shell
    sum of mu_l^2 = (theta_l / eps)^2, which ``engine.shell_lam`` gives.  The
    rows reduce one gemv each, so on one stream they are the engine's k >= 2
    draws, bit for bit.
    """
    lam = engine.shell_lam(comp)
    counts = engine.counts
    q = rng.noncentral_chisquare(counts, lam, size=(size, len(counts))) - counts
    return np.array([engine.W @ row for row in q])


@pytest.fixture(scope="session")
def tiny_dim():
    """Small configuration whose supports hold a few dozen points."""
    return DimensionSpec(d=12, s=2, beta=0.6, sigma=1.0, epsilon=0.01)


@pytest.fixture(scope="session")
def tiny_config(tiny_dim):
    return build_selector_config(tiny_dim, M=3, truncation="rule")


@pytest.fixture(scope="session")
def bench_dim():
    """The d = 50 benchmark configuration."""
    return DimensionSpec(d=50, s=4, beta=0.87, sigma=1.0, epsilon=5e-5)


@pytest.fixture(scope="session")
def bench_config(bench_dim):
    return build_selector_config(bench_dim, M=20)


@pytest.fixture(scope="session")
def k4_config():
    """A fourth-order grid point whose ball holds 9488 points."""
    return manual_config(12, {4: (0.03,)}, 0.01)


@pytest.fixture(scope="session")
def bench_k1_config():
    """First-order slice of the benchmark grid (cheap to build)."""
    dim = DimensionSpec(d=50, s=1, beta=0.87, sigma=1.0, epsilon=5e-5)
    return build_selector_config(dim, M=20)


def manual_config(d, r_by_order, epsilon, sigma=1.0, trunc_pad=2):
    """Hand-assembled selector config with fixed (uncalibrated) radii.

    Lets tests pin tiny supports at extreme noise levels where the grid
    calibration itself would be out of scale.
    """
    profiles = {}
    matrices = {}
    thresholds = {}
    trunc = {}
    for k, radii in r_by_order.items():
        profs, matrices[k] = order_weights(radii, k, sigma, epsilon)
        profiles[k] = profs
        thresholds[k] = threshold(d, k, max(len(profs), 1), epsilon_hat(d, k))
        trunc[k] = max(p.max_abs_coord for p in profs) + trunc_pad
    n_profiles = max(len(v) for v in profiles.values())
    betas = tuple((m + 1) / (n_profiles + 1) for m in range(n_profiles))
    a_values = {k: tuple(p.a_value for p in v) for k, v in profiles.items()}
    grid = GridSpec(betas=betas, targets=a_values, a_values=a_values)
    dim = DimensionSpec(d=d, s=max(r_by_order), beta=0.5, sigma=sigma, epsilon=epsilon)
    return SelectorConfig(
        dim=dim,
        grid=grid,
        profiles=profiles,
        weight_matrix=matrices,
        thresholds=thresholds,
        truncation=trunc,
    )
