"""Seeded path generators with ground-truth metadata.

Every generator returns a (path, GroundTruth) pair.  Jump times are sampled
exactly and inserted into the grid as their own nodes, never binned, so the
path carries exact jump sizes at exact times.  The ground truth records the
jump log, the known closed-form bracket when one exists, and the labeled
decomposition components (each a path on the same grid).

The brownian, poisson, compound_poisson and jump_diffusion kinds share one
Levy-Ito generator, X = x0 + drift t + sigma W + J with J a compound Poisson
sum of intensity lam and jump law nu, and M_c = sigma W, M_d = J - lam E[nu] t,
A = x0 + drift t + lam E[nu] t.  Per kind: brownian has lam = 0 and ignores
drift; poisson has unit jumps, sigma = drift = 0, the pc rule and the Poisson
compensator; compound_poisson has the spec's law (unit jumps when unset),
sigma = drift = 0 and the pc rule; jump_diffusion reads every field and has
no compensator when lam = 0.

Randomness comes from numpy's counter-based Philox generator seeded as
Philox(seed=[seed, stream]); identical specs therefore reproduce bit
identical paths, and derived draws (test batteries) use disjoint streams.
Generators are pure functions of their spec, so Monte Carlo drivers may
call them concurrently with distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jumps import CompensatorSpec, DiracLaw, JumpLaw, atom_cumsum
from .paths import (LINEAR, PIECEWISE_CONSTANT, CadlagPath, constant_path,
                    from_arrays, uniform_grid)

KINDS = ("brownian", "poisson", "compound_poisson", "jump_diffusion", "fbm",
         "convolution_martingale", "pdp", "deterministic")

FBM_MAX_CELLS = 4096  # dense Cholesky; exactness is the point, not speed
MAX_EXPECTED_ARRIVALS = 1e6  # arrivals are drawn one exponential at a time
MAX_CELLS = 10**7  # base grid cells; ten times the largest grid in use


class SimulationError(ValueError):
    pass


def grid_cells(n: int) -> int:
    """``n`` if it is a grid size a generator may build: at least two cells
    and at most MAX_CELLS, checked before anything is allocated."""
    if n < 2:
        raise SimulationError("need at least two grid cells")
    if n > MAX_CELLS:
        raise SimulationError(f"grid cells must be at most {MAX_CELLS}")
    return n


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=[int(seed), int(stream)]))


@dataclass(frozen=True)
class SimSpec:
    """Process description: kind plus per-kind parameters, grid size, seed.

    Every kind reads T, n and seed.  brownian reads x0 and sigma; poisson x0
    and intensity (> 0); compound_poisson x0, intensity (> 0) and jump_law;
    jump_diffusion every Levy-Ito field (x0, sigma, drift, intensity,
    jump_law); fbm x0, sigma and hurst; pdp x0, switch_rate and regimes;
    deterministic x0 and regimes[0]; convolution_martingale nothing more.
    n may not exceed MAX_CELLS, and intensity * T and switch_rate * T may not
    exceed MAX_EXPECTED_ARRIVALS.
    """

    kind: str
    T: float = 1.0
    n: int = 1000
    seed: int = 0
    x0: float = 0.0
    sigma: float = 1.0
    drift: float = 0.0
    intensity: float = 1.0
    jump_law: JumpLaw | None = None
    hurst: float = 0.5
    regimes: tuple = ()
    switch_rate: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SimulationError(f"unknown process kind {self.kind!r}")
        if not 0.0 < self.T < math.inf:
            raise SimulationError("horizon must be positive and finite")
        grid_cells(self.n)
        if self.sigma < 0.0:
            raise SimulationError("volatility must be nonnegative")
        if self.intensity < 0.0:
            raise SimulationError("jump intensity must be nonnegative")
        # written so that a NaN rate fails too: it would never end the draw
        if not (self.intensity * self.T <= MAX_EXPECTED_ARRIVALS
                and self.switch_rate * self.T <= MAX_EXPECTED_ARRIVALS):
            raise SimulationError(
                f"expected arrivals (rate * T) must be at most {MAX_EXPECTED_ARRIVALS:g}")
        if not 0.0 < self.hurst < 1.0:
            raise SimulationError("hurst exponent must lie in (0, 1)")

    @property
    def base_dt(self) -> float:
        return self.T / self.n


@dataclass
class GroundTruth:
    """Oracle metadata emitted alongside a simulated path."""

    kind: str
    base_dt: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    bracket: CadlagPath | None = None
    bracket_divergent: bool = False
    decomposition: dict | None = None
    compensator: CompensatorSpec | None = None
    regime_bounds: np.ndarray | None = None
    assumes_reversible: bool = False

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "kind": "ground_truth",
            "process": self.kind,
            "base_dt": self.base_dt,
            "jump_times": self.jump_times.tolist(),
            "jump_sizes": self.jump_sizes.tolist(),
            "bracket_divergent": self.bracket_divergent,
            "bracket_terminal": (None if self.bracket is None
                                 else float(self.bracket.values[-1])),
            "decomposition_roles": (sorted(self.decomposition)
                                    if self.decomposition else []),
            "compensator": (self.compensator.to_json_dict()
                            if self.compensator else None),
            "assumes_reversible": self.assumes_reversible,
        }
        if self.regime_bounds is not None:
            d["regime_bounds"] = self.regime_bounds.tolist()
        return d


def _merge_jump_times(base: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Union of the base grid with exact jump times (open interval (0, T))."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return base
    if np.any(np.diff(times) <= 0.0):
        raise SimulationError("sampled jump times must be strictly increasing")
    return np.union1d(base, times)


def _sample_arrivals(rng, lam: float, T: float) -> np.ndarray:
    if lam == 0.0:
        return np.zeros(0)
    out = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam)
        if t >= T:
            break
        out.append(t)
    return np.asarray(out)


def _brownian_values(rng, grid: np.ndarray, sigma: float) -> np.ndarray:
    incr = rng.standard_normal(grid.size - 1) * (sigma * np.sqrt(np.diff(grid)))
    return np.concatenate(([0.0], np.cumsum(incr)))


# -- generators --------------------------------------------------------------

_LEVY_ITO_KINDS = ("brownian", "poisson", "compound_poisson", "jump_diffusion")


def _levy_ito_fields(spec: SimSpec):
    """The per-kind rule: (sigma, drift, intensity, law, compensator) that a
    Levy-Ito kind reads from its spec.  sigma is None for the pure-jump
    kinds, which have no Brownian part and take the pc rule."""
    lam, law = spec.intensity, spec.jump_law or DiracLaw(1.0)
    if spec.kind == "brownian":
        return spec.sigma, 0.0, 0.0, DiracLaw(1.0), None
    if spec.kind == "jump_diffusion":
        comp = CompensatorSpec.compound_poisson(lam, law) if lam > 0 else None
        return spec.sigma, spec.drift, lam, law, comp
    if lam <= 0.0:
        raise SimulationError(f"{spec.kind} intensity must be positive")
    if spec.kind == "poisson":
        return None, 0.0, lam, DiracLaw(1.0), CompensatorSpec.poisson(lam)
    return None, 0.0, lam, law, CompensatorSpec.compound_poisson(lam, law)


def _levy_ito(spec: SimSpec):
    """x0 + drift t + sigma W + compound Poisson, exact jump-time grid."""
    sigma, _, lam, law, _ = _levy_ito_fields(spec)
    rng = _rng(spec.seed)
    times = _sample_arrivals(rng, lam, spec.T)
    sizes = law.sample(rng, times.size)
    keep = sizes != 0.0
    times, sizes = times[keep], sizes[keep]
    grid = _merge_jump_times(uniform_grid(spec.T, spec.n), times)
    w = None if sigma is None else _brownian_values(rng, grid, sigma)
    return _levy_ito_truth(spec, grid, w, times, sizes)


def _levy_ito_truth(spec: SimSpec, grid, w, times, sizes):
    """Path x0 + drift t + w + J on grid, J the sum of the jumps, and its
    ground truth.  w is sigma W on the grid, None for a pure-jump kind."""
    sigma, drift, lam, law, comp = _levy_ito_fields(spec)
    jv, jl = atom_cumsum(grid, times, sizes)
    smooth = spec.x0 + drift * grid
    comp_drift = lam * (law.mean() if lam > 0 else 0.0) * grid
    cont = smooth if w is None else smooth + w
    path = from_arrays(grid, cont + jv, cont + jl,
                       rule=PIECEWISE_CONSTANT if w is None else LINEAR)
    a = smooth + comp_drift
    # closed-form bracket: sigma^2 t plus the running sum of squared jumps
    qv = (0.0 if w is None else sigma ** 2) * grid
    sq, sql = atom_cumsum(grid, times, sizes ** 2)
    gt = GroundTruth(
        kind=spec.kind, base_dt=spec.base_dt, jump_times=times, jump_sizes=sizes,
        bracket=from_arrays(grid, qv + sq, qv + sql, rule=LINEAR),
        decomposition={
            "M_c": (constant_path(grid) if w is None
                    else from_arrays(grid, w, w.copy(), rule=LINEAR)),
            "M_d": from_arrays(grid, jv - comp_drift, jl - comp_drift, rule=LINEAR),
            "A": from_arrays(grid, a, a.copy(), rule=LINEAR),
        },
        compensator=comp, assumes_reversible=w is not None,
    )
    return path, gt


def fbm(spec: SimSpec):
    """Exact-covariance fractional Gaussian path via dense Cholesky.

    Covariance 0.5 (s^2H + t^2H - |t - s|^2H).  Ground truth: the bracket is
    the zero path for H > 1/2, t for H = 1/2, and divergent for H < 1/2.
    """
    if spec.kind != "fbm":
        raise SimulationError("spec kind mismatch")
    if spec.n > FBM_MAX_CELLS:
        raise SimulationError(
            f"exact-covariance sampling is limited to n <= {FBM_MAX_CELLS}")
    H = spec.hurst
    grid = uniform_grid(spec.T, spec.n)
    t = grid[1:]
    two_h = 2.0 * H
    cov = 0.5 * (t[:, None] ** two_h + t[None, :] ** two_h
                 - np.abs(t[:, None] - t[None, :]) ** two_h)
    L = np.linalg.cholesky(cov)
    z = _rng(spec.seed).standard_normal(t.size)
    values = np.concatenate(([0.0], L @ z)) * spec.sigma + spec.x0
    path = from_arrays(grid, values, values.copy(), rule=LINEAR)
    if H > 0.5:
        bracket, divergent = constant_path(grid), False
    elif H == 0.5:
        bracket, divergent = from_arrays(grid, spec.sigma ** 2 * grid,
                                         spec.sigma ** 2 * grid, rule=LINEAR), False
    else:
        bracket, divergent = None, True
    gt = GroundTruth(kind="fbm", base_dt=spec.base_dt,
                     jump_times=np.zeros(0), jump_sizes=np.zeros(0),
                     bracket=bracket, bracket_divergent=divergent)
    return path, gt


def convolution_martingale(spec: SimSpec):
    """Discretized moving average X(t_i) = sum_{j<i} B(t_i - t_j) dW_j from
    two independent Brownian drivers; known bracket t^2 / 2."""
    if spec.kind != "convolution_martingale":
        raise SimulationError("spec kind mismatch")
    grid = uniform_grid(spec.T, spec.n)
    rng = _rng(spec.seed)
    dt = spec.base_dt
    dW = rng.standard_normal(spec.n) * np.sqrt(dt)
    B = np.concatenate(([0.0], np.cumsum(rng.standard_normal(spec.n) * np.sqrt(dt))))
    conv = np.convolve(B, dW)
    values = conv[: grid.size].copy()
    values[0] = 0.0
    path = from_arrays(grid, values, values.copy(), rule=LINEAR)
    gt = GroundTruth(kind="convolution_martingale", base_dt=spec.base_dt,
                     jump_times=np.zeros(0), jump_sizes=np.zeros(0),
                     bracket=from_arrays(grid, 0.5 * grid ** 2,
                                         0.5 * grid ** 2, rule=LINEAR))
    return path, gt


def _default_regimes():
    return (
        lambda t: np.sin(2.0 * np.asarray(t)),
        lambda t: 1.0 + 0.5 * np.asarray(t),
        lambda t: -0.5 + np.asarray(t) ** 2,
    )


def pdp(spec: SimSpec):
    """Piecewise deterministic path: regime functions switched at sampled
    increasing times, each switch a marked jump."""
    if spec.kind != "pdp":
        raise SimulationError("spec kind mismatch")
    regimes = spec.regimes or _default_regimes()
    rng = _rng(spec.seed)
    switches = _sample_arrivals(rng, spec.switch_rate, spec.T)
    if switches.size and np.any(np.diff(switches) <= 0.0):
        raise SimulationError("switch times must be strictly increasing")
    grid = _merge_jump_times(uniform_grid(spec.T, spec.n), switches)
    reg_idx = np.searchsorted(switches, grid, side="right")
    values = np.empty(grid.size)
    left = np.empty(grid.size)
    for k in range(int(reg_idx.max()) + 1):
        sel = reg_idx == k
        if np.any(sel):
            values[sel] = np.asarray(regimes[k % len(regimes)](grid[sel]))
    reg_idx_left = np.searchsorted(switches, grid, side="left")
    for k in range(int(reg_idx_left.max()) + 1):
        sel = reg_idx_left == k
        if np.any(sel):
            left[sel] = np.asarray(regimes[k % len(regimes)](grid[sel]))
    values = spec.x0 + values
    left = spec.x0 + left
    left[0] = values[0]
    path = from_arrays(grid, values, left, rule=LINEAR)
    gt = GroundTruth(kind="pdp", base_dt=spec.base_dt,
                     jump_times=path.jump_times, jump_sizes=path.jump_sizes,
                     regime_bounds=switches)
    return path, gt


def deterministic(spec: SimSpec):
    """Deterministic continuous path sampling spec.regimes[0] on the grid."""
    if spec.kind != "deterministic":
        raise SimulationError("spec kind mismatch")
    if not spec.regimes:
        raise SimulationError("deterministic kind needs one regime function")
    grid = uniform_grid(spec.T, spec.n)
    values = spec.x0 + np.asarray(spec.regimes[0](grid), dtype=float)
    path = from_arrays(grid, values, values.copy(), rule=LINEAR)
    gt = GroundTruth(kind="deterministic", base_dt=spec.base_dt,
                     jump_times=np.zeros(0), jump_sizes=np.zeros(0))
    return path, gt


_GENERATORS = {
    **dict.fromkeys(_LEVY_ITO_KINDS, _levy_ito),
    "fbm": fbm,
    "convolution_martingale": convolution_martingale,
    "pdp": pdp,
    "deterministic": deterministic,
}


def simulate(spec: SimSpec):
    """Dispatch on spec.kind; returns (path, ground_truth)."""
    return _GENERATORS[spec.kind](spec)


def brownian_on_grid(grid: np.ndarray, sigma: float, seed: int,
                     stream: int = 7) -> CadlagPath:
    """Standard Brownian path on an arbitrary existing grid (test batteries)."""
    w = _brownian_values(_rng(seed, stream), np.asarray(grid, dtype=float), sigma)
    return from_arrays(grid, w, w.copy(), rule=LINEAR)
