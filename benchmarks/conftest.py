"""Shared benchmark fixtures and workload builders."""

import json
import pathlib
import time

import numpy as np
import pytest

# (routine, backend) -> timing record, filled by the backend sweep in
# test_vs_reference.py and flushed to BENCH_backends.json at session end
# so the reference-vs-accelerated perf trajectory accumulates over time.
BACKEND_RECORDS = {}

# (routine, backend, batch, mode) -> throughput record, filled by
# test_batch_throughput.py and flushed to BENCH_batch.json: solves/sec
# of the derived batch_* wrapper vs looping the scalar driver.
BATCH_RECORDS = {}

# gate name -> {"ratio": paired-ratio spread, "bound": ..., "pass": ...},
# filled by the gate tests in test_batch_throughput.py and written
# beside the throughput rows of BENCH_batch.json.
BATCH_GATES = {}

# measurement name -> record, filled by test_dispatch_overhead.py and
# flushed to BENCH_dispatch.json: the front door's cached-dispatch
# overhead vs the direct driver call, the cold probe cost, and the
# SPD-traffic win from cached-factor reuse.
DISPATCH_RECORDS = {}


def best_of(*fns, rounds):
    """Best single-call wall time of each of ``fns`` over ``rounds``
    rounds, interleaved call by call, so a burst of background load hits
    every side alike instead of skewing whichever side it lands on."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def paired_ratios(calls, base, rounds):
    """``{name: ratios}`` for every call in ``calls`` but ``base``: the
    per-round ratio of its wall time over ``base``'s in the same round,
    over ``rounds`` interleaved rounds (``calls`` maps a name to a
    zero-argument call, in the order a round runs them).  Each round
    starts at a different call, so none always runs first.  A gate reads
    the median: a burst of host load inflates both sides of one round's
    ratio alike, where it moves one side's best call but not the
    other's."""
    names = list(calls)
    fns = [calls[name] for name in names]
    times = np.empty((rounds, len(names)))
    for i in range(rounds):
        for k in range(len(names)):
            j = (i + k) % len(names)
            t0 = time.perf_counter()
            fns[j]()
            times[i, j] = time.perf_counter() - t0
    b = names.index(base)
    return {name: times[:, j] / times[:, b]
            for j, name in enumerate(names) if j != b}


def spread(ratios):
    """``{"median", "q1", "q3"}`` of one call's :func:`paired_ratios`,
    rounded for a ``BENCH_*.json`` record."""
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {"median": round(float(median), 3), "q1": round(float(q1), 3),
            "q3": round(float(q3), 3)}


def record_backend_timing(routine, backend, n, stats):
    BACKEND_RECORDS[(routine, backend)] = {
        "routine": routine,
        "backend": backend,
        "n": n,
        "min_s": stats.min,
        "mean_s": stats.mean,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    }


def record_batch_timing(routine, backend, batch, n, mode, min_s, rounds):
    BATCH_RECORDS[(routine, backend, batch, mode)] = {
        "routine": routine,
        "backend": backend,
        "batch": batch,
        "n": n,
        "mode": mode,
        "min_s": min_s,
        "solves_per_s": batch / min_s,
        "rounds": rounds,
    }


def _write_backends_report(root):
    rows = [BACKEND_RECORDS[k] for k in sorted(BACKEND_RECORDS)]
    ratios = {}
    for row in rows:
        if row["backend"] != "accelerated":
            continue
        ref = BACKEND_RECORDS.get((row["routine"], "reference"))
        if ref:
            ratios[row["routine"]] = ref["min_s"] / row["min_s"]
    out = {
        "experiment": "XB3-backends",
        "description": "LA_* driver wall time under each registered "
                       "backend (min over rounds); speedup = "
                       "reference/accelerated",
        "results": rows,
        "speedup_accelerated": ratios,
    }
    (root / "BENCH_backends.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")


def checkout_block(root):
    """``change`` when ``repro`` is imported from this checkout's
    ``src``, else ``parent`` (the same benchmark run with
    ``PYTHONPATH=<other checkout>/src``)."""
    import repro
    return "change" if root / "src" in pathlib.Path(repro.__file__).parents \
        else "parent"


def _write_batch_report(root):
    rows = [BATCH_RECORDS[k] for k in sorted(BATCH_RECORDS)]
    speedups = {}
    for (routine, backend, batch, mode) in sorted(BATCH_RECORDS):
        if mode != "batched":
            continue
        looped = BATCH_RECORDS.get((routine, backend, batch, "looped"))
        if looped:
            batched = BATCH_RECORDS[(routine, backend, batch, "batched")]
            speedups.setdefault(routine, {}).setdefault(backend, {})[
                str(batch)] = (batched["solves_per_s"]
                               / looped["solves_per_s"])
    path = root / "BENCH_batch.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out.update({
        "experiment": "XB4-batch",
        "description": "Throughput (solves/sec, min-time round of "
                       "interleaved batched/looped rounds) of the "
                       "derived batch_* wrappers over a problem stack "
                       "vs looping the scalar LA_* driver; speedup = "
                       "batched/looped per (routine, backend, batch); "
                       "'parent' and 'change' are the same file run on "
                       "two checkouts",
    })
    block = {"results": rows, "speedup_batched": speedups}
    if BATCH_GATES:
        block["gates"] = {k: BATCH_GATES[k] for k in sorted(BATCH_GATES)}
    out[checkout_block(root)] = block
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def record_dispatch(name, record):
    DISPATCH_RECORDS[name] = record


def _write_dispatch_report(root):
    out = {
        "experiment": "XB5-dispatch",
        "description": "Front-door auto-dispatch cost: repro.solve on "
                       "a general operand seen before (probed again, "
                       "not cached) vs calling the routed driver "
                       "directly (gate: < 5% overhead on la_gesv-sized "
                       "traffic), the probe cost, and the SPD-traffic "
                       "win from reusing the exactly cached la_posv "
                       "factor",
        "results": {k: DISPATCH_RECORDS[k]
                    for k in sorted(DISPATCH_RECORDS)},
    }
    (root / "BENCH_dispatch.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")


def pytest_sessionfinish(session, exitstatus):
    root = pathlib.Path(__file__).resolve().parents[1]
    if BACKEND_RECORDS:
        _write_backends_report(root)
    if BATCH_RECORDS:
        _write_batch_report(root)
    if DISPATCH_RECORDS:
        _write_dispatch_report(root)


@pytest.fixture
def rng():
    return np.random.default_rng(19980328)


def fig3_system(n=500, nrhs=2, dtype=np.float32, seed=1):
    """The paper Fig. 3 workload: random A, B built so X(:, j) = j."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)).astype(dtype)
    b = np.column_stack([a.sum(axis=1) * j
                         for j in range(1, nrhs + 1)]).astype(dtype)
    return a, b


def poisson1d(n):
    return (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
            + np.diag(np.full(n - 1, -1.0), -1))
