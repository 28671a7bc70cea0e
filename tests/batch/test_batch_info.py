"""``BatchInfo`` keeps a code vector and builds its per-problem ``Info``
tuple only when read.

Whatever a caller reads first, the answers agree: ``codes()``,
``first_failure`` and ``repr`` read the same before and after
``problems`` is built, the tuple is built once, and from then on it is
the source of truth.  The per-problem paths (fallback replay, a
mid-batch deadline) still fill in per-problem telemetry, and the
``healthcheck()`` batch entry reads as before.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import DeadlineExceeded, deadline, exception_policy, faults
from repro.backends import available_backends
from repro.backends.batched import batch_capability
from repro.batch import BatchInfo, batch_gesv, batch_posv
from repro.errors import DEADLINE, Info

from ..conftest import spd_matrix, well_conditioned

BACKENDS = [n for n in ("reference", "accelerated")
            if n in available_backends()]


def _gesv_stack(rng, batch=5, n=4):
    a = np.stack([well_conditioned(rng, n, np.float64)
                  for _ in range(batch)])
    return a, rng.standard_normal((batch, n, 2))


def test_an_unarmed_handle_is_empty():
    info = BatchInfo()
    assert info.batch == 0 and info.problems == () and info.codes() == ()
    assert info.first_failure == -1
    assert repr(info) == "Batch" + repr(Info())


@pytest.mark.parametrize("backend", BACKENDS)
def test_reads_agree_before_and_after_problems_is_built(rng, backend):
    faults.chaos_clear()
    a, b = _gesv_stack(rng)
    a[1] = 0.0
    a[3] = 0.0
    info = BatchInfo()
    batch_gesv(a, b, info=info, backend=backend)
    assert info._problems is None          # nothing built yet
    before = info.codes(), info.first_failure, repr(info), info.batch
    assert before[0][0] == 0 and before[0][1] > 0 and before[1] == 1
    problems = info.problems
    assert info.problems is problems       # built once
    assert tuple(p.value for p in problems) == before[0]
    assert (info.codes(), info.first_failure, repr(info),
            info.batch) == before
    assert int(info) == before[0][1]


def test_the_built_tuple_is_the_source_of_truth(rng):
    a, b = _gesv_stack(rng)
    info = BatchInfo()
    batch_gesv(a, b, info=info)
    assert info.first_failure == -1
    info.problems[2].value = 7
    assert info.codes() == (0, 0, 7, 0, 0)
    assert info.first_failure == 2
    info.problems[2].fallback = "la_gesvx"  # a recorded fallback
    assert info.first_failure == -1


def test_rearming_drops_the_previous_call(rng):
    a, b = _gesv_stack(rng)
    info = BatchInfo()
    bad = a.copy()
    bad[0] = 0.0
    batch_gesv(bad, b.copy(), info=info)
    first = info.problems
    batch_gesv(a[:3].copy(), b[:3].copy(), info=info)
    assert info.codes() == (0, 0, 0) and info.problems is not first


@pytest.mark.parametrize("backend", BACKENDS)
def test_fallback_replay_fills_per_problem_telemetry(rng, backend):
    faults.chaos_clear()
    a = np.stack([spd_matrix(rng, 4, np.float64) for _ in range(4)])
    a[2] = np.diag([1.0, -1.0, 2.0, 3.0])   # indefinite, nonsingular
    b = rng.standard_normal((4, 4, 2))
    info = BatchInfo()
    with exception_policy(fallbacks=True), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch_posv(a, b, info=info, backend=backend)
    assert info.first_failure == -1
    assert [p.fallback is not None for p in info.problems] == \
        [False, False, True, False]
    assert info.codes() == tuple(p.value for p in info.problems)


def test_deadline_marks_the_interrupted_problems(rng):
    a, b = _gesv_stack(rng, batch=32, n=8)
    with pytest.raises(DeadlineExceeded) as excinfo:
        with faults.chaos("gesv", latency=0.02):
            with deadline(0.1):
                batch_gesv(a, b)
    partial = excinfo.value.partial
    codes = partial.codes()
    cut = codes.index(DEADLINE)
    assert all(c == 0 for c in codes[:cut])
    assert all(p.value == DEADLINE for p in partial.problems[cut:])
    assert partial.first_failure == cut


def test_healthcheck_batch_entry_is_unchanged():
    report = repro.healthcheck()
    for name in available_backends():
        assert report["backends"][name]["batch"] == {
            "ok": True, "error": None,
            "modes": batch_capability().get(name, {})}
