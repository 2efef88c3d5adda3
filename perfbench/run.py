"""Benchmark runner for pathcalc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` every op runs twice, once
plain and once with the outside-in tracer installed, and the run reports
the per-layer metrics of the traced half.  The last line of standard output
is the result object; a ``# meta`` line before it records the run's
environment and the details behind the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# One caller in one process: BLAS threads are capped before numpy loads so
# timings do not depend on how busy the host's other cores are.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# fresh-interpreter imports timed per run: one before set-up and the rest
# spread over the measured cycles, because an import's time swings by up to
# half from one process to the next (see _time_import)
IMPORT_PROBES = 5
# runs shorter than this many cycles would leave the CLI repeat check empty
MIN_CYCLES = 2
# a run stops starting cycles after this many wall seconds, so that it ends
# in time on a host far slower than the one the cycle costs were taken on
WALL_LIMIT_S = 140.0
# reserved for performance claims; never used while tuning the benchmark
HELD_OUT_SEED = 104729
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "pathcalc" / "__init__.py").is_file():
        print(f"error: no pathcalc source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(src))
    # every run compiles the package afresh, as in a new checkout
    sys.dont_write_bytecode = True
    import numpy as np
    import pathcalc
    if Path(pathcalc.__file__).resolve().parent != (src / "pathcalc").resolve():
        print(f"error: imported pathcalc from {pathcalc.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    from calibrate import Calibrator
    from workloads import WORKLOADS, timed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        cal = Calibrator()
        cal.measure()
        import_samples = [_time_import(src)]
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            c0 = time.process_time()
            w.prepare()
            timed(w.warmup())
            setup_samples.append(time.process_time() - c0)
            cal.measure(setup_samples[-1])
        run = _measure(w, args.seconds, tracing.Tracer() if args.trace else None,
                       cal, t_start + WALL_LIMIT_S,
                       lambda: import_samples.append(_time_import(src)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            (root / WORK_DIR).rmdir()

    outcomes = run["outcomes"]
    meta = {
        "workload": w.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds, "cycles": run["cycles"],
        "cycles_planned": run["planned"],
        "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": _git_sha(root), "blas": _blas(np),
        "import_samples_s": import_samples, "setup_samples_s": setup_samples,
        "fail_ratio": sum(not o.ok for _, o in outcomes) / len(outcomes),
        "failures": Counter(label for label, o in outcomes if not o.ok),
        "failure_details": sorted({f"{label}: {o.detail}"
                                   for label, o in outcomes if not o.ok}),
    }
    if hasattr(w, "skipped"):
        meta["jumpless_seeds_skipped"] = w.skipped
    jumps = [o.jumps for _, o in outcomes if o.jumps is not None]
    if jumps:
        meta["input_jump_share"] = sum(j > 0 for j in jumps) / len(jumps)
        meta["input_jumps_mean"] = sum(jumps) / len(jumps)

    if args.trace:
        tr = run["tracer"]
        metrics = tracing.layer_metrics(tr, run["walls"], run["traced_outcomes"])
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{w.name}-seed{args.seed}.jsonl"
        tr.write(spans_file)
        meta["spans_file"] = str(spans_file.relative_to(root))
    else:
        cpus = run["adjusted"]
        tail_value, tail_pct, beyond = _tail(cpus)
        speed = cal.factor()
        # the set-up ran at the speed of the groups taken around it, the
        # imports at the run's speed
        setup_s = (statistics.median(import_samples) / speed
                   + statistics.median(setup_samples)
                   / cal.factor(0, SETUP_REPEATS + 1))
        meta.update(samples=len(cpus), tail_percentile=tail_pct,
                    tail_samples_beyond=beyond, op_cpu_s=run["cpus"],
                    op_walls_s=run["walls"], op_speed_factors=run["speeds"],
                    speed_factor=speed,
                    calibration_samples=sum(map(len, cal.groups)))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(cpus) / sum(cpus), "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(cpus), "unit": "s"},
            "op_s.tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "unit": "MiB"},
        }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not any(o.wrong for _, o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for _, o in outcomes),
        "metrics": metrics,
    }))
    return 0


def _measure(w, seconds: int, tracer, cal, wall_limit: float, probe) -> dict:
    """Run a fixed number of whole cycles of ops.

    The count follows from ``seconds`` and the workload's nominal cycle cost
    alone, so every run of one seed attempts the same ops and fails the same
    ones.  Ops are timed in process CPU time, which leaves out the time the
    host gives the CPU to other guests.  Untraced, each op runs once and is
    followed by a group of calibration samples, and its time is adjusted by
    the groups on either side of it (see calibrate.py).
    Traced, each op runs once plain and once traced, alternating which goes
    first, over half as many cycles; the plain wall times are the base of
    the tracing overhead ratio.  Checks run after an op's timer stops and,
    in the traced half, after its spans are closed.  ``probe`` runs after
    evenly spaced cycles, ``IMPORT_PROBES - 1`` times at most.
    """
    from workloads import judge, timed
    outcomes, walls, cpus, traced_outcomes = [], [], [], []
    planned = max(MIN_CYCLES, round(seconds / w.cycle_s))
    if tracer:
        planned = max(1, planned // 2)
    first = len(cal.groups)
    if tracer is None:
        cal.measure()
    cycles = 0
    while cycles < planned and time.perf_counter() < wall_limit:
        for k, op in enumerate(w.cycle(cycles)):
            modes = (False,) if tracer is None else (k % 2 == 1, k % 2 == 0)
            for traced in modes:
                # garbage the previous op left must not be collected on
                # this op's clock
                gc.collect()
                if traced:
                    tracer.install()
                    tracer.open_op()
                    try:
                        wall, _, result = timed(op)
                    finally:
                        tracer.uninstall()
                    tracer.close_op(wall)
                    outcome = judge(w, op, result)
                    if outcome.jumps is None:
                        # the input path the op's spans saw handed out
                        outcome.jumps = tracer.op_inputs[-1]
                    traced_outcomes.append(outcome)
                else:
                    wall, cpu, result = timed(op)
                    outcome = judge(w, op, result)
                    walls.append(wall)
                    cpus.append(cpu)
                    cal.measure(cpu)
                outcomes.append((op.label, outcome))
        cycles += 1
        if cycles * (IMPORT_PROBES - 1) // planned > (cycles - 1) * (
                IMPORT_PROBES - 1) // planned:
            probe()
    speeds = [cal.factor(first + i, first + i + 2) for i in range(len(cpus))]
    return {"outcomes": outcomes, "walls": walls, "cpus": cpus, "speeds": speeds,
            "adjusted": [c / f for c, f in zip(cpus, speeds)], "cycles": cycles,
            "planned": planned, "tracer": tracer,
            "traced_outcomes": traced_outcomes}


def _time_import(src: Path) -> float:
    """CPU seconds a fresh interpreter spends importing the workloads, and
    with them numpy and pathcalc.  The run's own import happens once; a
    fresh process can repeat it.  Fresh imports differ by up to half from
    one process to the next, and neither the numpy calibration kernel nor
    the CPU, hash seed or address layout a process gets accounts for it;
    the median of imports spread over the run averages it out."""
    probe = ("import sys, time\n"
             "sys.dont_write_bytecode = True\n"
             "sys.path[:0] = sys.argv[1:]\n"
             "c0 = time.process_time()\n"
             "import workloads\n"
             "print(time.process_time() - c0)\n")
    done = subprocess.run(
        [sys.executable, "-c", probe, str(Path(__file__).resolve().parent), str(src)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def _tail(times: list[float]):
    """Latency at the highest percentile with at least ten samples beyond
    it (nearest rank).  Below twenty samples that percentile would not
    exceed the median, so the tail is the nearest-rank 90th percentile: the
    slowest op would make the tail of a dozen ops a maximum of noise."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n >= 20 else math.ceil(0.9 * n)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas(np) -> dict:
    info = {"threads_requested": os.environ[BLAS_VARS[0]]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads(np)
    return info


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS numpy loaded, if it exposes one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
