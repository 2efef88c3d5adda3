"""Outside-in span tracer: wraps pathcalc's public functions from outside.

The package source is untouched.  ``Tracer.install`` replaces each traced
function wherever a ``pathcalc`` module binds it (``ito``, ``dirichlet`` and
``cli`` import kernels and ``qv_limit`` by name, so patching ``regularize``
alone would miss their calls) and ``Tracer.uninstall`` puts the originals
back.  Spans are recorded only while an op is open, kept in memory, and
written out once at the end of the run.

A span records its layer, function, start, end, parent span and op id.  A
layer's self time is its span's duration minus the time its child spans
cover.  Expensive bookkeeping (content fingerprints for the distinct ratios,
bytes retained by limit reports) runs in ``close_op``, after the op's timer
has stopped.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from pathcalc.paths import CadlagPath
from pathcalc.regularize import EpsilonSchedule

# layer -> "module:attribute" of each public function it covers
LAYERS = {
    "regularize.kernel": ["regularize:covariation", "regularize:forward_integral",
                          "regularize:weighted_qv",
                          "regularize:covariation_continuous"],
    "regularize.limit": ["regularize:ucp_limit", "regularize:qv_limit"],
    "jumps.integrate_nu": ["jumps:integrate_nu"],
    "jumps.integrate_mu": ["jumps:integrate_mu"],
    "jumps.compensated_parts": ["jumps:compensated_parts"],
    "ito.harness": ["ito:ito_terms_c12", "ito:ito_terms_measure_form",
                    "ito:ito_c1_lambda"],
    "dirichlet.chain_rule": ["dirichlet:chain_rule_c01"],
    "dirichlet.gamma_ref": ["dirichlet:gamma_c12_reference"],
    "dirichlet.orth": ["dirichlet:orthogonality_test",
                       "dirichlet:orthogonality_battery"],
    "simulate": ["simulate:simulate", "simulate:brownian_on_grid"],
    "catalog.build": ["catalog:Scenario.build", "catalog:OrthScenario.build"],
    "paths.to_csv": ["paths:CadlagPath.to_csv"],
    "cli.main": ["cli:main"],
}

# layers whose arguments are fingerprinted for the distinct ratios
_KEYED = ("regularize.kernel", "regularize.limit")
# layers whose result carries the op's input path (for the jump property)
_SOURCES = ("catalog.build", "simulate")
# layers whose arguments or result are summarized when the op closes
_HELD = _KEYED + _SOURCES + ("jumps.integrate_nu", "paths.to_csv")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    fn: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)
    # call arguments and result, held only until close_op
    call: tuple | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_walls: list[float] = []
        self.op_inputs: list[int | None] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_first = 0
        self._patches = []
        self._signatures = {}

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "pathcalc" or name.startswith("pathcalc.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, attr = target.split(":")
                owner = importlib.import_module(f"pathcalc.{modname}")
                if "." in attr:
                    clsname, attr = attr.split(".")
                    self._patch_method(getattr(owner, clsname), attr, layer)
                else:
                    self._patch_function(mods, getattr(owner, attr), layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_function(self, mods, original, layer):
        wrapped = self._wrap(original, layer)
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapped)

    def _patch_method(self, cls, attr, layer):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer))
        else:
            new = self._wrap(raw, layer)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _wrap(self, fn, layer):
        self._signatures[fn] = inspect.signature(fn)
        keep_call = layer in _HELD
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self._op, layer, fn.__qualname__, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if keep_call:
                span.call = (fn, args, kwargs, result)
            return result

        return traced

    # -- ops ------------------------------------------------------------------

    def open_op(self) -> None:
        self._op = len(self.op_walls)
        self._op_first = len(self.spans)

    def close_op(self, wall: float) -> None:
        """End the op: summarize its spans and drop the held objects."""
        self._op = None
        fingerprints = {}
        for span in self.spans[self._op_first:]:
            if span.call is None:
                continue
            fn, args, kwargs, result = span.call
            span.call = None
            bound = self._signatures[fn].bind(*args, **kwargs)
            bound.apply_defaults()
            a = list(bound.arguments.values())
            if span.layer in _KEYED:
                span.info["key"] = _key(a, fingerprints)
                first = next((v for v in a if isinstance(v, CadlagPath)), None)
                span.info["points"] = first.n_points if first is not None else 0
            if span.layer == "regularize.limit":
                span.info["levels"] = len(bound.arguments["schedule"])
                span.info["converged"] = bool(result.converged)
                span.info["retained"] = _ndarray_bytes(result)
            elif span.layer in _SOURCES:
                path = result[0] if isinstance(result, tuple) else result
                span.info["points"] = path.n_points
                span.info["jumps"] = int(path.jump_marks.size)
            elif span.layer == "jumps.integrate_nu":
                span.info["points"] = bound.arguments["X"].n_points
            elif span.layer == "paths.to_csv":
                span.info["bytes"] = len(result)
        # the op's input path: the first one a catalog or simulator call made
        first = next((s for s in self.spans[self._op_first:]
                      if "jumps" in s.info), None)
        self.op_walls.append(wall)
        self.op_inputs.append(None if first is None else first.info["jumps"])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "op": s.op, "name": s.layer,
                       "fn": s.fn, "start": s.start, "end": s.end}
                rec.update({k: v for k, v in s.info.items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")


def _fingerprint(path, cache) -> str:
    got = cache.get(id(path))
    if got is None:
        h = hashlib.blake2b(digest_size=16)
        for arr in (path.grid, path.values, path.left_values):
            h.update(np.ascontiguousarray(arr).tobytes())
        got = cache[id(path)] = h.hexdigest()
    return got


def _key(values, cache) -> tuple:
    out = []
    for v in values:
        if isinstance(v, CadlagPath):
            out.append(_fingerprint(v, cache))
        elif isinstance(v, EpsilonSchedule):
            out.append(tuple(v.epsilons))
        elif v is None or isinstance(v, (bool, int, float, str)):
            out.append(v)
        else:
            out.append(getattr(v, "__qualname__", type(v).__name__))
    return tuple(out)


def _ndarray_bytes(obj) -> int:
    """Bytes of the distinct ndarray buffers reachable from ``obj``."""
    seen = {}
    todo = [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            seen[id(base)] = base.nbytes
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif is_dataclass(o) and not isinstance(o, type):
            todo.extend(getattr(o, f.name) for f in fields(o))
    return sum(seen.values())


# -- per-layer metrics ----------------------------------------------------------

# per-op totals reported for each layer
PER_OP = {
    "regularize.kernel": ("calls", "self_s", "points"),
    "regularize.limit": ("calls", "levels", "self_s"),
    "jumps.integrate_nu": ("calls", "self_s", "points"),
    "jumps.integrate_mu": ("calls", "self_s"),
    "jumps.compensated_parts": ("calls",),
    "ito.harness": ("calls", "self_s"),
    "dirichlet.chain_rule": ("calls", "self_s"),
    "dirichlet.gamma_ref": ("self_s",),
    "dirichlet.orth": ("calls", "self_s"),
    "simulate": ("calls", "self_s", "points"),
    "catalog.build": ("calls", "self_s"),
    "paths.to_csv": ("calls", "self_s", "bytes"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count/op", "self_s": "s/op", "points": "count/op",
         "levels": "count/op", "bytes": "B/op"}


def layer_metrics(tracer: Tracer, untraced_walls: list[float], outcomes) -> dict:
    """Per-layer metrics over the traced ops; counts and times are per op.

    A call counts once even when it re-enters its own layer (``qv_limit``
    calls ``ucp_limit``); ``outcomes`` are the traced ops' check outcomes.
    """
    spans = tracer.spans
    n_ops = max(len(tracer.op_walls), 1)
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start

    def outermost(s):
        p = s.parent
        while p is not None:
            if spans[p].layer == s.layer:
                return False
            p = spans[p].parent
        return True

    agg = {layer: {"calls": 0, "self_s": 0.0, "points": 0, "levels": 0,
                   "converged": 0, "retained": 0, "bytes": 0, "keys": set()}
           for layer in LAYERS}
    covered = 0.0
    for s in spans:
        a = agg[s.layer]
        a["self_s"] += (s.end - s.start) - child[s.id]
        if s.parent is None:
            covered += s.end - s.start
        if not outermost(s):
            continue
        a["calls"] += 1
        for name in ("points", "levels", "converged", "retained", "bytes"):
            a[name] += s.info.get(name, 0)
        if "key" in s.info:
            a["keys"].add(s.info["key"])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, names in PER_OP.items():
        for name in names:
            out[f"{layer}.{name}"] = (agg[layer][name] / n_ops, UNITS[name])
    for layer in ("regularize.kernel", "jumps.integrate_nu"):
        a = agg[layer]
        out[f"{layer}.ns_per_point"] = (ratio(a["self_s"] * 1e9, a["points"]), "ns")
    for layer in ("regularize.kernel", "regularize.limit"):
        a = agg[layer]
        out[f"{layer}.distinct_ratio"] = (ratio(len(a["keys"]), a["calls"]), "ratio")
    lim = agg["regularize.limit"]
    out["regularize.limit.converged_ratio"] = (ratio(lim["converged"], lim["calls"]),
                                               "ratio")
    out["regularize.limit.retained_mb"] = (
        ratio(lim["retained"], lim["calls"]) / 2**20, "MiB")
    out["cli.bytes_written"] = (sum(o.bytes_written for o in outcomes) / n_ops, "B/op")
    wall = sum(tracer.op_walls)
    out["trace.overhead_ratio"] = (ratio(wall, sum(untraced_walls)), "ratio")
    out["trace.covered_ratio"] = (ratio(covered, wall), "ratio")
    out["trace.uncovered_s"] = ((wall - covered) / n_ops, "s/op")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}
