"""The repository's benchmark: end-to-end call cost per workload, and
per-layer self time from a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload small_fresh --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the named workload untraced for ``--seconds`` and
prints its end-to-end metrics; ``--trace 1`` traces every default
workload and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Pin every BLAS to one thread and clear the program's own switches,
#: so the backend and chaos mode are the benchmark's choice.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_CHAOS")

#: Fresh processes timed for ``setup_s`` (after one that warms the
#: bytecode cache); the metric is their median.
SETUP_PROBES = 5

#: The calibration loop's time on the reference host, in ns.  A shared
#: virtual machine runs the same instructions up to ~30% slower or
#: faster from one second to the next (measured on a 2-vCPU VM), so
#: every timed quantity is scaled by CAL_REF_NS over the calibration
#: loop's time measured beside it: the drift cancels, and the metrics
#: read as on a host where the loop takes this long.
CAL_REF_NS = 37_000

#: Rounds of each workload's mix in one traced block.  Count metrics
#: come from the first block only, so they repeat exactly per seed.
TRACE_ROUNDS = {"small_fresh": 120, "mid_reuse": 40, "reference_n128": 3,
                "batched_n8": 24}

#: Workloads the driver runs; ``mid_reuse_stamped`` is run by hand.
DEFAULT_WORKLOADS = tuple(TRACE_ROUNDS)


def pin_environment():
    os.environ.update(PINNED_ENV)
    for key in CLEARED_ENV:
        os.environ.pop(key, None)


def benchmark_modules():
    """Names of loaded modules that are this benchmark's own files (the
    tracer leaves their references, such as the raw floors, alone)."""
    return {name for name, module in list(sys.modules.items())
            if name == "__main__" or Path(
                getattr(module, "__file__", None) or "/").resolve().parent
            == HERE}


def import_program():
    """Import ``repro`` from this checkout's ``src``, never from
    anywhere else on the path."""
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return repro


# -- files the run must not touch --------------------------------------

_UNTRACKED_DIRS = {"__pycache__", ".bench_build", ".git"}


def tree_digest(root=ROOT):
    """``{relative path: sha1}`` of every file under ``root`` except
    bytecode caches and build output."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _UNTRACKED_DIRS]
        for name in filenames:
            path = Path(dirpath) / name
            if path.is_file():
                out[str(path.relative_to(root))] = hashlib.sha1(
                    path.read_bytes()).hexdigest()
    return out


def changed_files(before, after):
    return sorted(p for p in set(before) | set(after)
                  if before.get(p) != after.get(p))


# -- machine facts ------------------------------------------------------

def blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes
    found = {}
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def cache_sizes():
    """``{"L2": "2048K", ...}`` for the first CPU, from sysfs."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out["L" + level] = size
    return out


def machine_facts(repro):
    import numpy as np
    import scipy
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "caches": cache_sizes(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": repro.get_backend_name()}


# -- the closed loop ------------------------------------------------------

def calibration_loop(np, a):
    """ns for a fixed piece of the work the program's layers do on every
    call: small-array NumPy copies, casts, views and comparisons."""
    t0 = perf_counter_ns()
    for _ in range(5):
        c = a.copy()
        c.astype(np.float64)
        np.diagonal(c)
        np.array_equal(c, c.T)
        np.nonzero(c)
    return perf_counter_ns() - t0


def speed_scale(reps=3):
    """CAL_REF_NS over the median of ``reps`` calibration loops now."""
    import numpy as np
    a = np.full((8, 8), 0.5)
    return CAL_REF_NS / statistics.median(calibration_loop(np, a)
                                          for _ in range(reps))


class Recorder:
    """Per-kind scaled call and floor times (a failed call's time reads
    as infinite), outcomes and fallbacks; ``raw`` keeps unscaled call
    times."""

    def __init__(self):
        self.calls, self.floors, self.raw = {}, {}, array("d")
        self.attempted = self.failed = self.fallbacks = self.spent_ns = 0
        self.errors = []

    def add(self, kind, call_ns, floor_ns, ok, info, scale=1.0):
        self.attempted += 1
        self.raw.append(call_ns if ok else math.inf)
        call_ns, floor_ns = call_ns * scale, floor_ns * scale
        self.spent_ns += call_ns
        self.calls.setdefault(kind, array("d")).append(
            call_ns if ok else math.inf)
        self.floors.setdefault(kind, array("d")).append(floor_ns)
        if not ok:
            self.failed += 1
        problems = getattr(info, "problems", None) or (info,)
        self.fallbacks += sum(getattr(p, "fallback", None) is not None
                              for p in problems)


def _timed(fn):
    t0 = perf_counter_ns()
    fn()
    return perf_counter_ns() - t0


def run_round(kinds, env, rng, rec, floor_first, tracer=None):
    """One call of each kind, each timed with its raw floor beside it;
    inputs are made and results checked outside the timed region.  The
    round's times are scaled by the host speed measured as it starts."""
    scale = speed_scale()
    for kind in kinds:
        call = kind.bind(env, kind.make(rng))
        run = call.run if tracer is None else \
            (lambda: tracer.call(kind.name, call.run))
        floor_ns = _timed(call.floor) if floor_first else 0
        out, error = None, None
        t0 = perf_counter_ns()
        try:
            out = run()
        except Exception as exc:     # a raising call is a failed call
            error = exc
        call_ns = perf_counter_ns() - t0
        if tracer is not None:
            tracer.roots[-1].tag = scale
        if not floor_first:
            floor_ns = _timed(call.floor)
        ok = False
        if error is None:
            try:
                ok = bool(call.check(out))
            except Exception as exc:  # an unreadable result is failed too
                error = exc
        if error is not None and len(rec.errors) < 5:
            rec.errors.append(f"{kind.name}: {type(error).__name__}: "
                              f"{error}")
        rec.add(kind.name, call_ns, floor_ns, ok, call.info, scale)


def run_for(kinds, env, rng, rec, seconds, rounds=None, tracer=None):
    """Rounds until ``seconds`` have passed (or exactly ``rounds``)."""
    done, deadline = 0, perf_counter() + seconds
    while (done < rounds) if rounds is not None else \
            (done == 0 or perf_counter() < deadline):
        run_round(kinds, env, rng, rec, done % 2 == 0, tracer)
        done += 1
    return done


def _percentile(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _sum_of_medians(series):
    finite = [[v for v in values if v != math.inf]
              for values in series.values()]
    return sum(statistics.median(v) for v in finite if v)


def end_to_end(rec, setup_s):
    times = sorted(v for values in rec.calls.values() for v in values)
    metrics = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": ((rec.attempted - rec.failed) / (rec.spent_ns / 1e9),
                        "1/s"),
        "call_us_p50": (_percentile(times, 0.5) / 1e3, "us"),
        "call_us_p90": (_percentile(times, 0.9) / 1e3, "us"),
        "overhead_x": (_sum_of_medians(rec.calls)
                       / _sum_of_medians(rec.floors), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    raw = sorted(rec.raw)
    return metrics, {
        "failed_frac": (rec.failed / rec.attempted, "ratio"),
        "unscaled_call_us_p50": (_percentile(raw, 0.5) / 1e3, "us"),
        "unscaled_call_us_p90": (_percentile(raw, 0.9) / 1e3, "us"),
    }


# -- set-up time -----------------------------------------------------------

def setup_probe(workload, seed):
    """Child process: seconds from before ``import repro`` until the
    first call of each kind in the mix returns, scaled by the host speed
    measured around them."""
    import numpy as np
    from mix import WORKLOADS, Env
    wl = WORKLOADS[workload]
    kinds = wl.kinds()
    rng = np.random.default_rng(seed)
    inputs = [kind.make(rng) for kind in kinds]
    before = speed_scale(reps=11)
    t0 = perf_counter()
    repro = import_program()
    repro.set_backend(wl.backend)
    env = Env(repro)
    for kind, arrays in zip(kinds, inputs):
        kind.bind(env, arrays).run()
    elapsed = perf_counter() - t0
    print(elapsed * statistics.median([before, speed_scale(reps=11)]))


def measure_setup(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        if i:                    # the first run warms the bytecode cache
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# -- the two kinds of run -------------------------------------------------

def untraced_run(workload, seed, seconds):
    import numpy as np
    from mix import WORKLOADS, Env, raw_lapack
    setup_s = measure_setup(workload, seed)
    repro = import_program()
    wl = WORKLOADS[workload]
    repro.set_backend(wl.backend)
    env = Env(repro, raw_lapack())
    kinds = wl.kinds()
    rng = np.random.default_rng(seed)
    run_for(kinds, env, rng, Recorder(), 0, rounds=3)      # warm-up
    rec = Recorder()
    run_for(kinds, env, rng, rec, seconds)
    metrics, extra = end_to_end(rec, setup_s)
    return repro, rec, metrics, extra, []


def traced_run(seed, seconds):
    import numpy as np
    import layers
    from mix import WORKLOADS, Env, raw_lapack
    from tracer import Tracer, rescale
    repro = import_program()
    env = Env(repro, raw_lapack())
    plan = []
    for i, name in enumerate(DEFAULT_WORKLOADS):
        wl = WORKLOADS[name]
        plan.append((name, wl.backend, wl.kinds(),
                     np.random.default_rng([seed, i])))
    for name, backend, kinds, rng in plan:
        repro.set_backend(backend)
        run_for(kinds, env, rng, Recorder(), 0, rounds=1)  # warm-up
    # trace.overhead_x compares small_fresh traced against untraced
    # blocks run just before and just after the traced ones.
    untraced = Recorder()

    def untraced_block():
        _, backend, kinds, rng = plan[0]
        repro.set_backend(backend)
        run_for(kinds, env, rng, untraced, 0,
                rounds=TRACE_ROUNDS["small_fresh"])
    untraced_block()
    tracer = Tracer()
    tracer.install(*layers.targets(tracer), skip=benchmark_modules())
    recs = {name: Recorder() for name in DEFAULT_WORKLOADS}
    roots, first, fallbacks = {}, {}, {}
    deadline = perf_counter() + seconds
    # Spans are many small objects; collecting them would charge the
    # benchmark's own garbage to whichever layer was running.
    gc.disable()
    try:
        while not first or perf_counter() < deadline:
            for name, backend, kinds, rng in plan:
                repro.set_backend(backend)
                mark = len(tracer.roots)
                run_for(kinds, env, rng, recs[name], 0,
                        rounds=TRACE_ROUNDS[name], tracer=tracer)
                roots.setdefault(name, []).extend(tracer.roots[mark:])
                first.setdefault(name, len(roots[name]))
                fallbacks.setdefault(name, (recs[name].attempted,
                                            recs[name].fallbacks))
    finally:
        tracer.uninstall()
        gc.enable()
    for root in tracer.roots:
        rescale(root, root.tag)
    untraced_block()
    metrics = layers.per_layer(roots, first, fallbacks)
    metrics["trace.overhead_x"] = (
        _sum_of_medians(recs["small_fresh"].calls)
        / _sum_of_medians(untraced.calls), "ratio")
    total = Recorder()
    for name, rec in (("untraced", untraced), *recs.items()):
        total.attempted += rec.attempted
        total.failed += rec.failed
        total.errors += rec.errors
        total.calls.update({f"{name}/{kind}": times
                            for kind, times in rec.calls.items()})
    return repro, total, metrics, {}, layers.ladder_table(roots)


# -- entry point -------------------------------------------------------------

def parse(argv):
    from mix import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    pin_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    args = parse(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    before = tree_digest()
    if args.trace:
        repro, rec, metrics, extra, notes = traced_run(args.seed,
                                                       args.seconds)
    else:
        repro, rec, metrics, extra, notes = untraced_run(
            args.workload, args.seed, args.seconds)
    touched = changed_files(before, tree_digest())
    print("machine:", json.dumps(machine_facts(repro), sort_keys=True))
    for line in notes:
        print(line)
    label = "traced" if args.trace else args.workload
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{label:>14}  {name:<40} {_fmt(value):>14} {unit}")
    for err in rec.errors:
        print("failed call:", err)
    if rec.failed:
        print("failed calls by kind:", json.dumps(
            {kind: sum(t == math.inf for t in times)
             for kind, times in rec.calls.items()}))
    for path in touched:
        print("run changed file:", path)
    result = {
        "correct": rec.failed == 0 and not touched,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
