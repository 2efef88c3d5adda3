"""Built-in scenario and function catalogs for the CLI and the test suite.

Each scenario carries an ``anchor`` string naming the ground truth it
exercises, a builder and an ``expect`` flag used by the command-line checks
(an expected failure is still reported as a failure exit code; the flag
documents that the outcome is the asserted one).  ``SCENARIOS`` builders
return (path, ground truth), ``ORTH_SCENARIOS`` builders (A, N, base spacing).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ito import FUNCTION_CATALOG, path_of_function
from .jumps import NormalLaw
from .paths import step_path, uniform_grid
from .regularize import DEFAULT_EPS_MAX
from .simulate import (KINDS, GroundTruth, SimSpec, _brownian_along, brownian_on_grid,
                       grid_cells, simulate)


def _sim(kind, **kw):
    """Builder (seed, n) -> (path, ground truth) simulating one spec."""
    return lambda seed, n: simulate(SimSpec(kind, n=n, seed=seed, **kw))


def _step(seed, n):
    path = step_path(1.0, n, 0.5)
    gt = GroundTruth(kind="deterministic", base_dt=1.0 / n,
                     jump_times=path.jump_times, jump_sizes=path.jump_sizes)
    return path, gt


def _against_bm(make, F=None):
    """Orthogonality builder: the path of ``make`` (or F of it) against a
    standard Brownian test path on its grid."""
    def build(seed, n):
        X, gt = make(seed, n)
        A = X if F is None else path_of_function(F, X)
        return A, _brownian_along(X, seed, stream=11), gt.base_dt
    return build


def _self_pair(seed, n):
    N = brownian_on_grid(uniform_grid(1.0, n), seed, stream=11)
    return N, N, 1.0 / n


@dataclass(frozen=True)
class Scenario:
    """``build`` returns (path, ground truth) in ``SCENARIOS``, where
    ``expect`` is whether the qv study converges, and (A, N, base spacing) in
    ``ORTH_SCENARIOS``, where it is the orthogonality decision."""

    id: str
    description: str
    anchor: str
    default_n: int
    make: object
    expect: bool = True
    default_eps0: float = DEFAULT_EPS_MAX

    def build(self, seed: int = 0, n: int | None = None):
        # checked here: the step and self builders do not go through SimSpec
        return self.make(seed, grid_cells(self.default_n if n is None else n))


SCENARIOS: dict[str, Scenario] = {
    s.id: s for s in [
        Scenario("bm", "standard Brownian motion",
                 "bracket grows linearly: [X,X](t) = t", 100000, _sim("brownian")),
        Scenario("poisson", "Poisson counting process, intensity 2",
                 "pure-jump bracket equals the jump count; compensator 2t",
                 50000, _sim("poisson", intensity=2.0)),
        Scenario("cp_normal", "compound Poisson, intensity 1, standard normal sizes",
                 "bracket equals the running sum of squared jump sizes", 50000,
                 _sim("compound_poisson", jump_law=NormalLaw())),
        Scenario("jump_diffusion", "unit-volatility diffusion plus compound Poisson",
                 "bracket t plus the running sum of squared jump sizes", 50000,
                 _sim("jump_diffusion", jump_law=NormalLaw())),
        Scenario("fbm02", "fractional Gaussian path, exponent 0.2",
                 "quadratic variation diverges: the window study must not converge",
                 2000, _sim("fbm", hurst=0.2), expect=False, default_eps0=0.08),
        Scenario("fbm08", "fractional Gaussian path, exponent 0.8",
                 "zero quadratic variation: window estimates decay to zero",
                 2000, _sim("fbm", hurst=0.8), expect=False, default_eps0=0.08),
        Scenario("convolution", "moving-average integral of one Brownian driver "
                 "against another", "closed-form bracket t^2 / 2", 2000,
                 _sim("convolution_martingale"), default_eps0=0.08),
        Scenario("pdp", "piecewise deterministic path with sampled regime switches",
                 "smooth functions of the path are orthogonal to continuous "
                 "martingales", 50000, _sim("pdp", switch_rate=3.0)),
        Scenario("step", "deterministic unit step at t = 0.5",
                 "deterministic cadlag paths are orthogonal to continuous "
                 "martingales; self-bracket is the step itself", 50000, _step),
    ]
}


# the benchmark tracer names catalog:OrthScenario.build
OrthScenario = Scenario


ORTH_SCENARIOS: dict[str, Scenario] = {
    s.id: s for s in [
        Scenario("step_bm", "deterministic step against a Brownian test path",
                 "deterministic cadlag paths are orthogonal to continuous "
                 "martingales", 50000, _against_bm(SCENARIOS["step"].make)),
        Scenario("fbm_bm", "zero-quadratic-variation path against a Brownian "
                 "test path", "zero-bracket paths have vanishing covariation "
                 "with every finite-bracket path", 2000,
                 _against_bm(SCENARIOS["fbm08"].make), default_eps0=0.08),
        Scenario("cp_bm", "pure-jump path against a Brownian test path",
                 "bounded variation pure-jump paths pair to the sum of "
                 "common jumps, which is empty for a continuous test path",
                 50000, _against_bm(_sim("compound_poisson", intensity=2.0,
                                         jump_law=NormalLaw()))),
        Scenario("convolution_bm", "moving-average martingale against an independent "
                 "Brownian test path", "martingale-orthogonal example with bracket t^2 / 2",
                 20000, _against_bm(SCENARIOS["convolution"].make)),
        Scenario("pdp_bm", "smooth function of a regime-switching path against a "
                 "Brownian test path", "piecewise deterministic paths stay orthogonal "
                 "under continuous mappings", 50000,
                 _against_bm(SCENARIOS["pdp"].make, FUNCTION_CATALOG["square"])),
        Scenario("self", "negative control: the test path against itself",
                 "self-covariation converges to the bracket, not to zero",
                 50000, _self_pair, expect=False),
    ]
}


def list_catalog(filter_text: str = "") -> str:
    """Human-readable scenario, function and process listings."""
    out = ["processes:", *(f"  {k}" for k in KINDS if filter_text in k), "functions:"]
    for name, F in FUNCTION_CATALOG.items():
        line = f"  {name:12s} class {F.smoothness}"
        if filter_text in line:
            out.append(line)
    # only an orthogonality scenario's expect=False is a negative control
    for title, catalog, negative in (
            ("scenarios", SCENARIOS, ""),
            ("orthogonality scenarios", ORTH_SCENARIOS, " [expected negative]")):
        out.append(f"{title}:")
        for s in catalog.values():
            flag = "" if s.expect else negative
            line = f"  {s.id:16s} {s.description} -> {s.anchor}{flag}"
            if filter_text in line:
                out.append(line)
    return "\n".join(out) + "\n"
