import itertools
import math

import numpy as np
import pytest

from anovaselect import lattice
from anovaselect.extremal import GridSpec, order_weights
from anovaselect.lattice import DimensionSpec, shell_convolve
from anovaselect.selector import (
    SelectorConfig,
    build_selector_config,
    epsilon_hat,
    observation_stream,
    threshold,
)
from anovaselect.signals import coeff_vector, product_coeff, quadrature_for


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


def brute_lattice(k, r2_max, rho):
    """Independent oracle for a ball's points and shells, enumerated whole.

    A meshgrid of the box [-L, L]^k without zeros, a filter on the squared
    norm, and each kept point's index in ``rho``, the ball's occupied squared
    norms.  ``indexing="ij"`` over an increasing axis is lexicographic order.
    """
    limit = math.isqrt(max(math.ceil(r2_max) - 1, 0))
    axis = np.array([v for v in range(-limit, limit + 1) if v], dtype=np.int16)
    grid = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
    norm = sum(grid[:, p].astype(np.int64) ** 2 for p in range(k))
    keep = norm < r2_max
    shell = np.searchsorted(rho, norm[keep])
    assert np.array_equal(np.asarray(rho)[shell], norm[keep])
    return grid[keep], shell


def ball_coords(k, r2_max):
    """All-nonzero lattice points with squared norm < r2_max, concatenated.

    Returns ``(coords, shell)``: the points ``lattice._ball_chunks`` streams,
    as an (n, k) array in lexicographic order in the dtype of the tail's axis,
    and the int32 index of each point's shell in ``shell_counts(k, r2_max)[0]``.
    """
    axis, tail, _, _ = lattice._ball_tail(k, r2_max)
    chunks = list(lattice._ball_chunks(k, r2_max))
    if not chunks:
        return np.empty((0, k), dtype=axis.dtype), np.empty(0, dtype=np.int32)
    lead, idx, shell = (np.concatenate(col) for col in zip(*chunks))
    return np.column_stack([axis[lead], tail[idx]]), shell


def engine_ball(engine):
    """(coords, shell index) of an engine's ball, by brute force."""
    return brute_lattice(engine.k, engine.r2_max, engine.rho)


def engine_means(engine, comp):
    """The means ``engine.component_means`` streams, concatenated in ball order."""
    return np.concatenate([mu for _, mu in engine.component_means(comp)])


def dense_active_stats(config, comp, seed, cycle, rank):
    """Per-point reference for the statistics of one active subset.

    X_l = theta_l + eps xi_l on the union of the weight supports, with theta_l
    from ``product_coeff`` and xi from the subset's (seed, cycle, k, rank)
    substream in lexicographic point order; then, per grid point,
    S_m = sum over that profile's own support of omega_l ((X_l / eps)^2 - 1).
    """
    k = comp.subset.k
    eps = config.dim.epsilon
    quad = quadrature_for(config.truncation[k])
    union = max(float(p.rho[-1]) for p in config.profiles[k]) + 0.5
    coords, _ = ball_coords(k, union)
    xi = observation_stream(seed, cycle, k, rank).standard_normal(len(coords))
    theta = np.array([product_coeff(comp, c, quad=quad) for c in coords])
    x = dict(zip(map(tuple, coords.tolist()), theta + eps * xi))
    stats = []
    for prof in config.profiles[k]:
        pts, shell = ball_coords(k, float(prof.rho[-1]) + 0.5)
        omega = prof.values[shell]
        y = np.array([(x[p] / eps) ** 2 - 1.0 for p in map(tuple, pts.tolist())])
        stats.append(float(omega @ y))
    return np.array(stats)


def shell_active_stats(engine, comp, rng, size):
    """Per-shell reference for ``size`` draws of one active subset's statistics.

    Weights are constant on each squared-norm shell, so the shell sum of
    (mu_l + xi_l)^2 is noncentral chi2(N_rho, lam_rho) with lam_rho the shell
    sum of mu_l^2 = (theta_l / eps)^2.  theta^2 factorises over coordinates,
    so lam is the shell convolution of each factor's mass c(l)^2 + c(-l)^2.
    """
    n = engine.truncation
    masses = []
    for fid in comp.factor_ids:
        vec = coeff_vector(fid, n)
        masses.append(vec[n + 1 :] ** 2 + vec[:n][::-1] ** 2)
    per_shell = shell_convolve(masses, int(engine.rho[-1]) + 1)[engine.rho]
    lam = (comp.amplitude / engine.epsilon) ** 2 * per_shell
    counts = engine.counts
    q = rng.noncentral_chisquare(counts, lam, size=(size, len(counts))) - counts
    return q @ engine.W.T


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


def manual_config(d, r_by_order, epsilon, sigma=1.0, M=1, trunc_pad=2):
    """Hand-assembled selector config with fixed (uncalibrated) radii.

    Lets tests pin tiny supports at extreme noise levels where the grid
    calibration itself would be out of scale.
    """
    profiles = {}
    matrices = {}
    thresholds = {}
    trunc = {}
    eps_hats = {}
    for k, radii in r_by_order.items():
        profs, matrices[k] = order_weights(radii, k, sigma, epsilon)
        profiles[k] = profs
        eps_hats[k] = epsilon_hat(d, k)
        thresholds[k] = threshold(d, k, max(len(profs), 1), eps_hats[k])
        trunc[k] = max(p.max_abs_coord for p in profs) + trunc_pad
    n_profiles = max(len(v) for v in profiles.values())
    betas = tuple((m + 1) / (n_profiles + 1) for m in range(n_profiles))
    grid = GridSpec(
        M=n_profiles,
        betas=betas,
        targets={k: tuple(p.a_value for p in v) for k, v in profiles.items()},
        r_stars={k: tuple(p.source_r for p in v) for k, v in profiles.items()},
        a_values={k: tuple(p.a_value for p in v) for k, v in profiles.items()},
        eps_hat=eps_hats,
    )
    dim = DimensionSpec(d=d, s=max(r_by_order), beta=0.5, sigma=sigma, epsilon=epsilon)
    return SelectorConfig(
        dim=dim,
        grid=grid,
        profiles=profiles,
        weight_matrix=matrices,
        thresholds=thresholds,
        truncation=trunc,
    )
