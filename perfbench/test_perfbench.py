"""Self-tests of the benchmark: its oracles, its tracer, its seeds, and
that a run leaves the checkout as it found it.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import ast
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import mix
import run
from tracer import Span, Tracer, bound, layer_self

repro = run.import_program()


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- oracles ----------------------------------------------------------------

def test_oracles_accept_true_answers_and_reject_corrupted_ones():
    rng = np.random.default_rng(0)
    a, b = mix.general(rng, 8), rng.standard_normal(8)
    x = np.linalg.solve(a, b)
    assert mix.solve_ok(a, b, x)
    bad = x.copy()
    bad[3] *= 1 + 1e-6
    assert not mix.solve_ok(a, b, bad)
    assert not mix.solve_ok(a, b, np.full_like(x, np.nan))

    stack, rhs = mix.spd(rng, 8, 4), rng.standard_normal((4, 8))
    xs = np.linalg.solve(stack, rhs[..., None])[..., 0]
    assert mix.solve_ok(stack, rhs, xs)
    xs[2, 0] += 1e-6
    assert not mix.solve_ok(stack, rhs, xs)

    s = mix.symmetric(rng, 8)
    w = np.linalg.eigvalsh(s)
    assert mix.eig_ok(s, w)
    assert not mix.eig_ok(s, w + 1e-6 * np.abs(w).max())

    m, r = rng.standard_normal((16, 8)), rng.standard_normal(16)
    xl = np.linalg.lstsq(m, r, rcond=None)[0]
    assert mix.lstsq_ok(m, r, xl)
    assert not mix.lstsq_ok(m, r, xl + 1e-6)


class Corrupting:
    """A kind whose program call returns a perturbed answer."""

    def __init__(self, kind):
        self.kind, self.name = kind, kind.name

    def make(self, rng):
        return self.kind.make(rng)

    def bind(self, env, arrays):
        call = self.kind.bind(env, arrays)
        honest = call.run
        call.run = lambda: honest() + 1e-3
        return call


def test_a_corrupted_result_counts_as_failed():
    previous = repro.set_backend("accelerated")
    try:
        env = mix.Env(repro, mix.raw_lapack())
        kinds = [k for k in mix.WORKLOADS["small_fresh"].kinds()
                 if k.name in ("solve_general", "la_gesv", "la_syev")]
        rec = run.Recorder()
        run.run_round(kinds + [Corrupting(k) for k in kinds], env,
                      np.random.default_rng(0), rec, floor_first=True)
    finally:
        repro.set_backend(previous)
    assert (rec.attempted, rec.failed) == (6, 3)
    for name in ("solve_general", "la_gesv", "la_syev"):
        first, second = rec.calls[name]
        assert math.isfinite(first) and second == math.inf


def test_the_benchmark_never_clears_or_bypasses_the_structure_cache():
    for name in ("run.py", "mix.py", "layers.py", "tracer.py"):
        tree = ast.parse((run.HERE / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                assert "invalidate" not in callee, (name, callee)
                assert all(k.arg != "assume" for k in node.keywords), name


# -- tracing ----------------------------------------------------------------

def _span(layer, start, end, *children):
    span = Span(layer, layer)
    span.start, span.end, span.children = start, end, list(children)
    return span


def test_self_time_arithmetic_on_a_synthetic_nest():
    mid = _span("b", 10, 50, _span("c", 20, 30), _span("c", 40, 45))
    root = _span("a", 0, 100, mid, _span("b", 60, 70))
    assert mid.self_time == 25
    assert root.self_time == 50
    assert layer_self(root) == {"a": 50, "b": 35, "c": 15}
    assert sum(layer_self(root).values()) == root.duration


def test_the_tracer_restores_every_binding_it_replaced():
    tracer = Tracer()
    targets, methods = layers.targets(tracer)
    tracer.install(targets, methods, skip=run.benchmark_modules())
    try:
        records = list(tracer._undo)
        replaced = {id(original) for *_, original in records}
        assert all(id(obj) in replaced for _, _, obj, _ in targets)
        assert all(bound(*rec[:3]) is not rec[3] for rec in records)
    finally:
        restored = tracer.uninstall()
    assert restored == records
    assert all(bound(*rec[:3]) is rec[3] for rec in records)
    rng = np.random.default_rng(0)
    repro.solve(mix.general(rng, 8), rng.standard_normal(8))
    assert tracer.roots == []


def test_layer_self_times_sum_to_the_traced_call_time():
    rng = np.random.default_rng(0)
    problems = [(mix.general(rng, 8), rng.standard_normal(8)),
                (mix.spd(rng, 8), rng.standard_normal(8))]
    tracer = Tracer()
    previous = repro.set_backend("accelerated")
    tracer.install(*layers.targets(tracer),
                   skip=run.benchmark_modules())
    try:
        for a, b in problems:
            tracer.call("solve", lambda: repro.solve(a, b))
        tracer.call("eig", lambda: repro.eig(problems[1][0]))
    finally:
        tracer.uninstall()
        repro.set_backend(previous)
    assert len(tracer.roots) == 3
    for root in tracer.roots:
        selfs = layer_self(root)
        assert sum(selfs.values()) == root.duration
        assert {"dispatch_front", "specs.route", "core.driver",
                "specs.validate", "core.guard", "backends.proxy",
                "resilience", "backends.resolve", "backends.kernel",
                "lapack.raw"} <= set(selfs)


# -- seeds ------------------------------------------------------------------

def _arrays(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif obj is not None:
        yield np.asarray(obj)


def _inputs(name, seed, rounds=3):
    rng = np.random.default_rng(seed)
    kinds = mix.WORKLOADS[name].kinds()
    made = [kind.make(rng) for _ in range(rounds) for kind in kinds]
    made += [kind.a for kind in kinds if isinstance(kind, mix.Stream)]
    return list(_arrays(made))


@pytest.mark.parametrize("name", sorted(mix.WORKLOADS))
def test_a_seed_gives_identical_inputs(name):
    first, again = _inputs(name, 7), _inputs(name, 7)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    other = _inputs(name, 8)
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))


def test_counts_repeat_for_a_seed_and_runs_change_no_file():
    before = run.tree_digest()
    counts = []
    for _ in range(2):
        result = _result(_bench("--workload", "small_fresh", "--seed", "3",
                                "--seconds", "0", "--trace", "1"))
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count" or k.endswith("_ratio")})
    assert counts[0] == counts[1] and len(counts[0]) == 6
    result = _result(_bench("--workload", "batched_n8", "--seed", "3",
                            "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["attempted"] > 0
    assert run.tree_digest() == before


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    if (run.ROOT / "BENCHMARK.json").is_file():
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "small_fresh", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
