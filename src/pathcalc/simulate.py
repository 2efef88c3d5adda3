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
no compensator when lam = 0.  The fbm kind samples fractional Gaussian
noise by circulant embedding with numpy's FFT, which uses no BLAS, and
sums it; it obeys the one MAX_CELLS rule of every kind.  The
convolution_martingale kind's moving average is one FFT convolution, so no
kind makes a BLAS call and a path's bits do not depend on its thread count.

Randomness comes from numpy's counter-based Philox generator seeded as
Philox(seed=[seed, stream]); identical specs therefore reproduce bit
identical paths, and derived draws (test batteries) use disjoint streams.
Generators are pure functions of their spec, so Monte Carlo drivers may
call them concurrently with distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jumps import CompensatorSpec, DiracLaw, JumpLaw, atom_cumsum
from .paths import (LINEAR, PIECEWISE_CONSTANT, CadlagPath, _constant_on, _cumsum0,
                    _jumping_at, _samples, _sorted_union, constant_path, uniform_grid)

MAX_EXPECTED_ARRIVALS = 1e6  # arrivals are drawn one exponential at a time
MAX_CELLS = 10**7  # base grid cells; ten times the largest grid in use


class SimulationError(ValueError):
    pass


def grid_cells(n: int) -> int:
    """``n`` as an int if a generator may build a grid of n cells: a whole
    number from 2 to MAX_CELLS, checked before anything is allocated."""
    if n < 2:
        raise SimulationError("need at least two grid cells")
    if n > MAX_CELLS:
        raise SimulationError(f"grid cells must be at most {MAX_CELLS}")
    # after the range, which a huge int fails before it is made a float
    if not float(n).is_integer():
        raise SimulationError(f"grid cells must be a whole number, not {n!r}")
    return int(n)


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
    x0, sigma and drift must be finite, sigma, intensity and switch_rate
    nonnegative; n may not exceed MAX_CELLS, and intensity * T and
    switch_rate * T may not exceed MAX_EXPECTED_ARRIVALS.
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
        object.__setattr__(self, "n", grid_cells(self.n))
        if self.sigma < 0.0:
            raise SimulationError("volatility must be nonnegative")
        for name in ("x0", "sigma", "drift"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(f"{name} must be finite")
        if self.intensity < 0.0:
            raise SimulationError("jump intensity must be nonnegative")
        if self.intensity == 0.0 and self.kind in ("poisson", "compound_poisson"):
            raise SimulationError(f"{self.kind} intensity must be positive")
        if self.switch_rate < 0.0:
            raise SimulationError("switch rate must be nonnegative")
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
    """Oracle metadata of a simulated path; its jump log is empty by default."""

    kind: str
    base_dt: float
    jump_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    jump_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0))
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
    return _sorted_union(base, times)


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
    return _cumsum0(incr)


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
    if spec.kind == "poisson":
        return None, 0.0, lam, DiracLaw(1.0), CompensatorSpec.poisson(lam)
    return None, 0.0, lam, law, CompensatorSpec.compound_poisson(lam, law)


def _levy_ito(spec: SimSpec):
    """x0 + drift t + sigma W + J, J the sum of the compound Poisson jumps,
    on an exact jump-time grid, and its ground truth."""
    sigma, drift, lam, law, comp = _levy_ito_fields(spec)
    rng = _rng(spec.seed)
    times = _sample_arrivals(rng, lam, spec.T)
    sizes = law.sample(rng, times.size)
    keep = sizes != 0.0
    times, sizes = times[keep], sizes[keep]
    grid = _merge_jump_times(uniform_grid(spec.T, spec.n), times)
    rows = np.searchsorted(grid, times)
    w = None if sigma is None else _brownian_values(rng, grid, sigma)
    jv, jl = atom_cumsum(grid, times, sizes)
    smooth = spec.x0 + drift * grid
    comp_drift = lam * (law.mean() if lam > 0 else 0.0) * grid
    cont = smooth if w is None else smooth + w
    # the one check of the fresh grid; every other piece shares it
    A = CadlagPath(grid, smooth + comp_drift)
    path = _jumping_at(A, cont + jv, rows, cont[rows] + jl,
                       PIECEWISE_CONSTANT if w is None else LINEAR)
    # closed-form bracket: sigma^2 t plus the running sum of squared jumps
    qv = (0.0 if w is None else sigma ** 2) * grid
    sq, sql = atom_cumsum(grid, times, sizes ** 2)
    gt = GroundTruth(
        kind=spec.kind, base_dt=spec.base_dt, jump_times=times, jump_sizes=sizes,
        bracket=_jumping_at(A, qv + sq, rows, qv[rows] + sql),
        decomposition={
            "M_c": _constant_on(A) if w is None else _jumping_at(A, w),
            "M_d": _jumping_at(A, jv - comp_drift, rows, jl - comp_drift[rows]),
            "A": A,
        },
        compensator=comp, assumes_reversible=w is not None,
    )
    return path, gt


def _fbm(spec: SimSpec):
    """Fractional Gaussian path by circulant embedding (Davies-Harte 1987).

    The increments are fractional Gaussian noise, with autocovariance
    0.5 (|k+1|^2H - 2|k|^2H + |k-1|^2H) dt^2H at lag k.  The circulant of
    size 2n that embeds it has nonnegative eigenvalues for every H in (0, 1)
    (Dietrich-Newsam 1997); round-off that makes one negative is rejected.
    The real part of one FFT of their square roots times z1 + i z2 is an
    exact sample of the noise, and the path is its running sum.  Ground
    truth: the bracket is the zero path for H > 1/2, t for H = 1/2, and
    divergent for H < 1/2.
    """
    H, n = spec.hurst, spec.n
    two_h, k = 2.0 * H, np.arange(n + 1.0)
    acov = 0.5 * (np.abs(k - 1.0) ** two_h - 2.0 * k ** two_h
                  + (k + 1.0) ** two_h) * spec.base_dt ** two_h
    # the circulant's first row is acov[0..n], acov[n-1..1]; it is symmetric,
    # so rfft gives its eigenvalues 0..n and the rest mirror them
    eig = np.fft.rfft(np.concatenate((acov, acov[-2:0:-1]))).real
    if eig.min() < 0.0:
        raise SimulationError(
            f"circulant embedding of hurst {H} has a negative eigenvalue at n = {n}")
    root = np.sqrt(eig / (2 * n))
    z = _rng(spec.seed).standard_normal((2, 2 * n))
    noise = np.fft.fft(np.concatenate((root, root[-2:0:-1])) * (z[0] + 1j * z[1]))
    grid = uniform_grid(spec.T, n)
    path = CadlagPath(grid, spec.x0 + spec.sigma * _cumsum0(noise[:n].real))
    if H > 0.5:
        bracket, divergent = _constant_on(path), False
    elif H == 0.5:
        bracket, divergent = _jumping_at(path, spec.sigma ** 2 * grid), False
    else:
        bracket, divergent = None, True
    gt = GroundTruth(kind="fbm", base_dt=spec.base_dt,
                     bracket=bracket, bracket_divergent=divergent)
    return path, gt


def _convolution_martingale(spec: SimSpec):
    """Discretized moving average X(t_i) = sum_{j<i} B(t_i - t_j) dW_j from
    two independent Brownian drivers; known bracket t^2 / 2."""
    grid = uniform_grid(spec.T, spec.n)
    rng = _rng(spec.seed)
    dt = spec.base_dt
    dW = rng.standard_normal(spec.n) * np.sqrt(dt)
    B = _cumsum0(rng.standard_normal(spec.n) * np.sqrt(dt))
    # the 2n terms of the linear convolution fill one FFT of size 2n: none wraps
    m = 2 * spec.n
    values = np.fft.irfft(np.fft.rfft(B, m) * np.fft.rfft(dW, m), m)[: grid.size]
    values[0] = 0.0
    path = CadlagPath(grid, values)
    gt = GroundTruth(kind="convolution_martingale", base_dt=spec.base_dt,
                     bracket=_jumping_at(path, 0.5 * grid ** 2))
    return path, gt


def _default_regimes():
    return (lambda t: np.sin(2.0 * t), lambda t: 1.0 + 0.5 * t, lambda t: -0.5 + t ** 2)


def _regime_values(regimes, switches, grid, side: str) -> np.ndarray:
    """The regime functions on the grid, regime k after k switches before
    (``side`` "left", left limits) or at or before ("right") each time."""
    reg_idx = np.searchsorted(switches, grid, side=side)
    out = np.empty(grid.size)
    for k in range(int(reg_idx.max(initial=0)) + 1):
        sel = reg_idx == k
        if np.any(sel):
            out[sel] = regimes[k % len(regimes)](grid[sel])
    return out


def _pdp(spec: SimSpec):
    """Piecewise deterministic path: regime functions switched at sampled
    increasing times, each switch a marked jump."""
    regimes = spec.regimes or _default_regimes()
    rng = _rng(spec.seed)
    switches = _sample_arrivals(rng, spec.switch_rate, spec.T)
    grid = _merge_jump_times(uniform_grid(spec.T, spec.n), switches)
    rows = np.searchsorted(grid, switches)
    values = spec.x0 + _regime_values(regimes, switches, grid, "right")
    lefts = spec.x0 + _regime_values(regimes, switches, grid[rows], "left")
    path = _jumping_at(constant_path(grid), values, rows, lefts)
    gt = GroundTruth(kind="pdp", base_dt=spec.base_dt,
                     jump_times=path.jump_times, jump_sizes=path.jump_sizes,
                     regime_bounds=switches)
    return path, gt


def _deterministic(spec: SimSpec):
    """Deterministic continuous path sampling spec.regimes[0] on the grid."""
    if not spec.regimes:
        raise SimulationError("deterministic kind needs one regime function")
    grid = uniform_grid(spec.T, spec.n)
    values = spec.x0 + _samples(spec.regimes[0](grid), grid.shape)
    path = CadlagPath(grid, values)
    gt = GroundTruth(kind="deterministic", base_dt=spec.base_dt)
    return path, gt


_GENERATORS = {
    **dict.fromkeys(_LEVY_ITO_KINDS, _levy_ito),
    "fbm": _fbm,
    "convolution_martingale": _convolution_martingale,
    "pdp": _pdp,
    "deterministic": _deterministic,
}
KINDS = tuple(_GENERATORS)


def simulate(spec: SimSpec):
    """Dispatch on spec.kind; returns (path, ground_truth)."""
    return _GENERATORS[spec.kind](spec)


def brownian_on_grid(grid: np.ndarray, seed: int, stream: int = 7) -> CadlagPath:
    """Standard Brownian path (W_0 = 0, unit volatility) on an arbitrary
    existing grid, from Philox stream ``stream`` of ``seed`` (test batteries)."""
    w = _brownian_values(_rng(seed, stream), np.asarray(grid, dtype=float), 1.0)
    return CadlagPath(grid, w)


def _brownian_along(base: CadlagPath, seed: int, stream: int = 7) -> CadlagPath:
    """``brownian_on_grid`` on the grid of ``base``, derived from it."""
    return _jumping_at(base, _brownian_values(_rng(seed, stream), base.grid, 1.0))
