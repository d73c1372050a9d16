"""Test-function bank, numerical Fourier analysis, and sparsity patterns.

Nine centred functions g_1..g_9 on [0, 1] generate the active components as
tensor products g_{j_1}(t_{j_1}) * ... * g_{j_k}(t_{j_k}).  Coefficients on
the trigonometric basis

    phi_0 = 1,  phi_l = sqrt(2) cos(2 pi l t),  phi_{-l} = sqrt(2) sin(2 pi l t)

are computed by composite Gauss-Legendre quadrature (the integrands are smooth
but not periodic, so panel quadrature beats trapezoid here).  Quadrature grids
and coefficients are pure functions of their inputs, so private helpers
memoise them with ``functools.cache`` and hand out read-only arrays (two
threads that miss at once may both compute a value, which is harmless for a
pure result): a scalar coefficient per (function, frequency, rule), a
coefficient vector per (function, truncation n), always on the rule
``quadrature_for(n)``.  The public functions validate, then delegate.
Coefficient tables are kept in factored form: a k-variate table stores its k
coefficient vectors, and its norms are summed per squared-norm shell, so
order-4 boxes (72^4 entries) never enter memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import BLOCK_ENTRIES, DimensionSpec, Subset, shell_convolve

SQRT2 = math.sqrt(2.0)


def _g1(t):
    return t**2 * (2 ** (t - 1.0) - (t - 0.5) ** 2) * np.exp(t) - 0.5424


def _g2(t):
    return t**2 * (2 ** (t - 1.0) - (t - 1.0) ** 5) - 0.2887


def _g3(t):
    return 1.5 * t**2 * 2 ** (t - 1.0) * np.cos(15.0 * t) - 0.05011


def _g4(t):
    return t - 0.5


def _g5(t):
    return 5.0 * (t - 0.7) ** 3 + 0.29


def _g6(t):
    return 2.0 * (t - 0.4) ** 2 - 0.1867


def _g7(t):
    return 0.7 * (t**2 - 0.1) ** 3 - 0.0643


def _g8(t):
    return 10.0 * (t**2 - 0.5) ** 5 + 0.068


def _g9(t):
    return 3.0 * (t - 0.8) ** 4 - 0.1968


_G_FUNCS = (_g1, _g2, _g3, _g4, _g5, _g6, _g7, _g8, _g9)
N_FACTORS = len(_G_FUNCS)


def eval_g(i: int, t):
    """Evaluate g_i on scalars or arrays of points in [0, 1]."""
    if not 1 <= i <= N_FACTORS:
        raise ValueError(f"factor id must lie in [1, {N_FACTORS}], got {i}")
    arr = np.asarray(t, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    out = _G_FUNCS[i - 1](arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def basis_phi(l: int, t):
    """Trigonometric basis function phi_l on [0, 1]."""
    arr = np.asarray(t, dtype=np.float64)
    if l == 0:
        out = np.ones_like(arr)
    elif l > 0:
        out = SQRT2 * np.cos(2.0 * math.pi * l * arr)
    else:
        out = SQRT2 * np.sin(2.0 * math.pi * (-l) * arr)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule on [0, 1]: `panels` panels of `nodes` points."""

    panels: int = 64
    nodes: int = 16

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 2:
            raise ValueError(f"invalid quadrature spec {self.panels}x{self.nodes}")

    @property
    def total_nodes(self) -> int:
        return self.panels * self.nodes

    @property
    def signature(self) -> str:
        return f"gl{self.nodes}x{self.panels}"

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [0, 1]; memoised per rule and read-only."""
        return _quad_grid(self)


@functools.cache
def _quad_grid(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = np.polynomial.legendre.leggauss(spec.nodes)
    width = 1.0 / spec.panels
    starts = np.arange(spec.panels) * width
    x = (starts[:, None] + (xg[None, :] + 1.0) * (width / 2.0)).ravel()
    w = np.tile(wg * (width / 2.0), spec.panels)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def quadrature_for(max_abs_l: int) -> QuadratureSpec:
    """Rule resolving frequencies up to ``max_abs_l`` to ~1e-12 absolute."""
    need = max(64, -(-(2 * max_abs_l + 16) // 16), -(-max_abs_l // 2))
    return QuadratureSpec(panels=need, nodes=16)


@functools.cache
def _coeff_1d(i: int, l: int, quad: QuadratureSpec) -> float:
    x, w = quad.grid()
    return float(np.dot(w, eval_g(i, x) * basis_phi(l, x)))


@functools.cache
def _coeff_vector(i: int, n: int) -> np.ndarray:
    """Frequencies l = 1..n on ``quadrature_for(n)``, in row blocks of at most
    ``BLOCK_ENTRIES`` phases, each reduced by einsum's fixed-order loop (no
    BLAS), so the bits depend neither on the block size nor on the CPU count."""
    x, w = quadrature_for(n).grid()
    g = eval_g(i, x) * w
    cos_part = np.empty(n)
    sin_part = np.empty(n)
    rows = max(1, BLOCK_ENTRIES // len(x))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        phase = 2.0 * math.pi * np.outer(np.arange(start + 1, stop + 1), x)
        np.einsum("ij,j->i", np.cos(phase), g, out=cos_part[start:stop])
        np.einsum("ij,j->i", np.sin(phase), g, out=sin_part[start:stop])
    out = np.empty(2 * n + 1, dtype=np.float64)
    out[n] = float(g.sum())
    out[n + 1 :] = SQRT2 * cos_part
    out[n - 1 :: -1] = SQRT2 * sin_part
    out.setflags(write=False)
    return out


def fourier_coeff_1d(i: int, l: int, quad: QuadratureSpec | None = None) -> float:
    """Coefficient (g_i, phi_l) = integral of g_i(t) phi_l(t) dt on [0, 1].

    With ``quad=None`` a rule scaled to |l| is chosen automatically; an explicit
    rule must carry at least 2|l| + 16 nodes to resolve the oscillation.
    """
    if quad is None:
        quad = quadrature_for(abs(l))
    elif quad.total_nodes < 2 * abs(l) + 16:
        raise ValueError(
            f"quadrature {quad.signature} has {quad.total_nodes} nodes; "
            f"frequency l={l} needs at least {2 * abs(l) + 16}"
        )
    return _coeff_1d(i, l, quad)


def coeff_vector(i: int, n: int) -> np.ndarray:
    """All coefficients (g_i, phi_l) for l = -n..n, as an array indexed by l + n.

    They are integrated on the rule ``quadrature_for(n)``.  The l = 0 slot
    holds the mean residual of g_i; lattice consumers mask it.  The array is
    memoised per (i, n) and read-only.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _coeff_vector(i, n)


@dataclass(frozen=True)
class OrthogonalityResult:
    factor: int
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def orthogonality_check(i: int, tol: float) -> OrthogonalityResult:
    """Zero-mean check |integral g_i| <= tol (products inherit it per factor)."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    residual = abs(fourier_coeff_1d(i, 0))
    return OrthogonalityResult(factor=i, residual=residual, tol=tol)


# ---------------------------------------------------------------------------
# Components and coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """One active component: a subset, factor ids g_i per coordinate, amplitude."""

    subset: Subset
    factor_ids: tuple[int, ...]
    amplitude: float = 1.0

    def __post_init__(self):
        ids = tuple(int(i) for i in self.factor_ids)
        object.__setattr__(self, "factor_ids", ids)
        if len(ids) != self.subset.k:
            raise ValueError(
                f"component for {self.subset} needs {self.subset.k} factor ids, got {ids}"
            )
        if any(not 1 <= i <= N_FACTORS for i in ids):
            raise ValueError(f"factor ids must lie in [1, {N_FACTORS}], got {ids}")
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")

    def scaled(self, alpha: float) -> "ComponentSpec":
        return ComponentSpec(self.subset, self.factor_ids, self.amplitude * alpha)


def product_coeff(spec: ComponentSpec, coords, quad: QuadratureSpec | None = None) -> float:
    """Tensor-product coefficient: amplitude * prod_p (g_{f_p}, phi_{l_p})."""
    coords = tuple(int(v) for v in coords)
    if len(coords) != spec.subset.k:
        raise ValueError(
            f"index arity {len(coords)} does not match subset order {spec.subset.k}"
        )
    value = spec.amplitude
    for fid, l in zip(spec.factor_ids, coords):
        value *= fourier_coeff_1d(fid, l, quad=quad)
    return value


@dataclass(eq=False)
class CoefficientTable:
    """Fourier coefficients of one component over the box |l_j| <= n, l_j != 0,
    stored in factored form: amplitude * prod_j factors[j][l_j + n]."""

    n: int
    factors: tuple[np.ndarray, ...]
    amplitude: float = 1.0

    @classmethod
    def from_component(cls, comp: ComponentSpec, n: int) -> "CoefficientTable":
        vecs = tuple(coeff_vector(fid, n) for fid in comp.factor_ids)
        return cls(n=n, factors=vecs, amplitude=comp.amplitude)

    @property
    def k(self) -> int:
        return len(self.factors)

    def sobolev_norm(self, sigma: float) -> float:
        """Truncated squared semi-norm sum theta^2 c^2, c^2 = (sum (2 pi l_j)^2)^sigma.

        c^2 is constant on each squared-norm shell rho, and theta^2 factorises
        over coordinates, so the squared coefficients are summed per shell by
        convolving each factor's mass c_j(l)^2 + c_j(-l)^2 over l^2; the sum
        is then weighted by (4 pi^2 rho)^sigma.  Exact for every sigma.  At
        k = 1 the occupied shells are rho = l^2, one per root, so the sum runs
        over the n roots instead of the (n^2 + 1)-entry table.  The weighted
        terms are summed by numpy's pairwise summation, in a fixed order, not
        by a BLAS dot, so the bits do not depend on the number of BLAS threads;
        on the benchmark's components they lie within 2 ulp of ``math.fsum``
        of the same terms (``np.einsum`` strays by up to 19).
        """
        n = self.n
        masses = [vec[n + 1 :] ** 2 + vec[:n][::-1] ** 2 for vec in self.factors]
        if self.k == 1:
            per_shell = masses[0]
            weight = np.arange(1, n + 1, dtype=np.float64) ** 2
        else:
            per_shell = shell_convolve(masses, self.k * n * n + 1)
            weight = np.arange(len(per_shell), dtype=np.float64)
        weight *= 4.0 * math.pi**2
        weight **= sigma
        weight *= per_shell
        return self.amplitude**2 * float(weight.sum())


# ---------------------------------------------------------------------------
# Sparsity patterns
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SparsityPattern:
    """Active components per order, with activity indicators for any subset."""

    d: int
    s: int
    beta: float | None
    components: dict[int, tuple[ComponentSpec, ...]]
    _active: dict[int, frozenset[Subset]] = field(init=False, repr=False)

    def __post_init__(self):
        active: dict[int, frozenset[Subset]] = {}
        for k, comps in self.components.items():
            subsets = [c.subset for c in comps]
            if len(set(subsets)) != len(subsets):
                raise ValueError(f"duplicate active subsets at order {k}")
            for c in comps:
                if c.subset.k != k:
                    raise ValueError(f"component {c.subset} filed under order {k}")
                if c.subset.indices[-1] > self.d:
                    raise ValueError(f"subset {c.subset} exceeds dimension d={self.d}")
            active[k] = frozenset(subsets)
        self._active = active

    def active(self, k: int) -> tuple[ComponentSpec, ...]:
        return self.components.get(k, ())

    def eta(self, subset: Subset) -> int:
        if subset.indices[-1] > self.d or subset.k > self.s:
            raise ValueError(f"subset {subset} outside the (d={self.d}, s={self.s}) universe")
        return int(subset in self._active.get(subset.k, frozenset()))

    def counts(self) -> dict[int, int]:
        return {k: len(self.components.get(k, ())) for k in range(1, self.s + 1)}

    def with_attenuated(self, alpha: float) -> "SparsityPattern":
        """Copy with the first first-order component scaled by alpha."""
        if not 0.0 < alpha:
            raise ValueError(f"alpha must be positive, got {alpha}")
        firsts = self.components.get(1, ())
        if not firsts:
            raise ValueError("pattern has no first-order component to attenuate")
        components = {**self.components, 1: (firsts[0].scaled(alpha), *firsts[1:])}
        return SparsityPattern(d=self.d, s=self.s, beta=self.beta, components=components)


# Active subsets of the bundled order-4 benchmark; the factor id of every
# coordinate equals the coordinate itself (g_j acts on t_j throughout).
_BENCHMARK_DIMENSIONS = (50, 100, 200)


def _benchmark_active_indices(d: int) -> dict[int, list[tuple[int, ...]]]:
    table: dict[int, list[tuple[int, ...]]] = {
        1: [(1,), (2,)],
        2: [(1, 2), (2, 3), (3, 4)],
        3: [(1, 2, j) for j in (3, 4, 5, 6)],
        4: [(1, 2, 3, j) for j in (4, 5, 6, 7, 8)],
    }
    if d >= 100:
        table[3].append((1, 2, 7))
        table[4] += [(1, 2, 4, 8), (1, 2, 4, 9)]
    if d >= 200:
        table[3].append((1, 2, 8))
        table[4] += [(1, 2, 5, 7), (1, 2, 5, 8), (1, 2, 5, 9)]
    return table


def build_pattern(
    spec: DimensionSpec,
    mode: str = "benchmark",
    components: list[ComponentSpec] | None = None,
) -> SparsityPattern:
    """Assemble a sparsity pattern.

    ``benchmark`` reproduces the bundled bank's active subsets and factor
    assignments for d in {50, 100, 200} with s = 4, beta = 0.87.  ``explicit``
    accepts any list of components (possibly empty).
    """
    if mode == "benchmark":
        if spec.d not in _BENCHMARK_DIMENSIONS or spec.s != 4 or abs(spec.beta - 0.87) > 1e-12:
            raise ValueError(
                "benchmark pattern requires d in {50, 100, 200}, s = 4, "
                "beta = 0.87; use explicit mode for other configurations"
            )
        comp_map = {
            k: tuple(
                ComponentSpec(Subset(idx), factor_ids=idx) for idx in rows
            )
            for k, rows in _benchmark_active_indices(spec.d).items()
        }
        return SparsityPattern(d=spec.d, s=spec.s, beta=spec.beta, components=comp_map)
    if mode != "explicit":
        raise ValueError(f"mode must be 'benchmark' or 'explicit', got {mode!r}")
    comp_map2: dict[int, list[ComponentSpec]] = {}
    for comp in components or []:
        comp_map2.setdefault(comp.subset.k, []).append(comp)
    return SparsityPattern(
        d=spec.d,
        s=spec.s,
        beta=spec.beta,
        components={k: tuple(v) for k, v in comp_map2.items()},
    )
