"""Which entry points the traced run wraps, and the per-layer metrics
read from its spans.

Each metric comes from the workload where the change it watches should
show (README.md has the layer -> end-to-end map).  Times are medians
over the calls (or kernel calls) that run the layer, in µs unless the
name says otherwise; ``*_per_call``, ``*_ratio`` and ``*_share`` are
read from each workload's first traced block, so the counts repeat
exactly for a seed.
"""

from __future__ import annotations

import statistics
import sys

from tracer import layer_self

#: The SciPy LAPACK routines the accelerated adapters call.
ADAPTED = ("gesv", "getrf", "getrs", "posv", "trtrs", "potrf", "potrs",
           "sysv", "hesv", "gtsv", "ptsv", "gbsv", "pbsv", "syev", "heev",
           "gesvd", "gels")

#: Problems per stack on ``batched_n8``.
BATCH = 64

#: The layer ladder: rung name, layer, outermost first.
RUNGS = (("front_door", "dispatch_front"), ("driver", "core.driver"),
         ("proxy_resilience", "backends.proxy"),
         ("adapter", "backends.kernel"), ("raw", "lapack.raw"))

#: Ladder routine -> the ``small_fresh`` kind whose calls climb it.
LADDER = {"gesv": "solve_general", "posv": "solve_spd",
          "syev": "eig_symmetric"}


def targets(tracer):
    """``(targets, methods)`` for :meth:`tracer.Tracer.install`.  An
    entry point a later change removes is skipped, and its metrics read
    0, so the benchmark keeps running across such changes."""
    out = []

    def add(layer, module_name, names, post=None):
        module = sys.modules.get(module_name)
        for name in names:
            obj = getattr(module, name, None)
            if obj is not None:
                out.append((layer, name, obj, post))

    def drivers(module_name, prefix):
        names = getattr(sys.modules.get(module_name), "__all__", ())
        return [n for n in names if n.startswith(prefix)]

    add("dispatch_front", "repro.dispatch_front.api",
        ("solve", "lstsq", "eig"))
    add("dispatch_front.probe", "repro.dispatch_front.probe",
        ("probe", "probe_stack"))
    add("dispatch_front.cache", "repro.dispatch_front.cache", ("lookup",),
        post=_tag_hit)
    add("dispatch_front.cache", "repro.dispatch_front.cache", ("store",))
    add("specs.route", "repro.specs.routing", ("route", "candidates"))
    add("specs.validate", "repro.specs.engine", ("validate_args",))
    add("core.guard", "repro.core.auxmod", ("driver_guard",))
    add("policy.screen", "repro.policy", ("screen",))
    add("core.driver", "repro.core", drivers("repro.core", "la_"))
    add("f77", "repro.f77", drivers("repro.f77", "la_"))
    add("batch", "repro.batch", drivers("repro.batch", "batch_"))
    add("resilience", "repro.resilience.dispatch", ("call",))
    add("backends.resolve", "repro.backends", ("resolve",),
        post=lambda span, kernel: tracer.kernel(
            getattr(kernel, "__name__", "kernel"), kernel))
    add("lapack.raw", "scipy.linalg.lapack",
        [p + r for p in "sdcz" for r in ADAPTED])
    add("blas", "repro.blas", drivers("repro.blas", ""))
    proxy = getattr(sys.modules.get("repro.backends.kernels"),
                    "KernelProxy", None)
    methods = [("backends.proxy", proxy, "__call__")] if proxy else []
    return out, methods


def _tag_hit(span, structure):
    span.tag = structure is not None
    return structure


# -- reading the spans ----------------------------------------------------

def _median(values, scale=1e3):
    return statistics.median(values) / scale if values else 0.0


def _spans(roots, layer):
    return [s for r in roots for s in r.walk() if s.layer == layer]


def _per_call(selfs, layer):
    """Median over calls running ``layer`` of its summed self time."""
    return _median([s[layer] for s in selfs if layer in s])


def _inclusive_per_call(roots, layer):
    """Median over calls running ``layer`` of its spans' full durations
    (children included)."""
    return _median([sum(s.duration for s in r.walk() if s.layer == layer)
                    for r in roots if any(s.layer == layer
                                          for s in r.walk())])


def _per_unit(roots, unit, layer):
    """Median over ``unit`` spans of ``layer``'s self time inside each."""
    return _median([layer_self(u).get(layer, 0)
                    for u in _spans(roots, unit)])


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(roots, first, fallbacks):
    """``{name: (value, unit)}``: every per-layer metric.  ``roots`` maps
    workload -> root spans, ``first`` the length of its first block,
    ``fallbacks`` workload -> (calls, fallbacks) over the first block."""
    sf, mr = roots["small_fresh"], roots["mid_reuse"]
    ref, bn = roots["reference_n128"], roots["batched_n8"]
    sf1, mr1 = sf[:first["small_fresh"]], mr[:first["mid_reuse"]]
    sf_self = [layer_self(r) for r in sf]
    mr_self = [layer_self(r) for r in mr]
    ref_self = [layer_self(r) for r in ref]
    bn_self = [layer_self(r) for r in bn]

    def count(rs, layer):
        return len(_spans(rs, layer))

    def front_calls(rs):
        return sum(any(c.layer == "dispatch_front" for c in r.children)
                   for r in rs)

    lookups = _spans(mr1, "dispatch_front.cache")
    lookups = [s for s in lookups if s.tag is not None]
    resil = _spans(sf1, "resilience")
    ref_total = sum(r.duration for r in ref)
    calls, fell_back = fallbacks["small_fresh"]
    m = {
        "dispatch_front.self_us": (_per_call(sf_self, "dispatch_front"),
                                   "us"),
        "dispatch_front.probe_us": (
            _inclusive_per_call(sf, "dispatch_front.probe"), "us"),
        "dispatch_front.probes_per_call": (
            _ratio(count(sf1, "dispatch_front.probe"), front_calls(sf1)),
            "count"),
        "dispatch_front.cache_us": (
            _per_call(mr_self, "dispatch_front.cache"), "us"),
        "dispatch_front.cache_hit_ratio": (
            _ratio(sum(s.tag for s in lookups), len(lookups)), "ratio"),
        "specs.route_us": (_per_call(sf_self, "specs.route"), "us"),
        "specs.validate_us": (_per_call(sf_self, "specs.validate"), "us"),
        "core.driver_self_us": (_per_call(sf_self, "core.driver"), "us"),
        "core.guard_us": (_per_call(sf_self, "core.guard"), "us"),
        "policy.screen_us": (_per_call(sf_self, "policy.screen"), "us"),
        "core.fallbacks_per_call": (_ratio(fell_back, calls), "count"),
        "batch.self_us_per_problem": (
            _median([s.self_time / BATCH for s in _spans(bn, "batch")]),
            "us"),
        "backends.proxy_us": (
            _per_unit(sf, "backends.proxy", "backends.proxy"), "us"),
        "backends.resolve_us": (
            _per_unit(sf, "backends.proxy", "backends.resolve"), "us"),
        "backends.resolves_per_kernel_call": (
            _ratio(count(sf1, "backends.resolve"),
                   count(sf1, "backends.proxy")), "count"),
        "backends.adapter_us": (
            _median([s.self_time for s in _spans(sf, "backends.kernel")]),
            "us"),
        "resilience.self_us": (
            _per_unit(sf, "backends.proxy", "resilience"), "us"),
        "resilience.kernel_attempts_per_call": (
            _ratio(sum(c.layer == "backends.kernel"
                       for s in resil for c in s.children), len(resil)),
            "count"),
        "lapack.raw_us": (
            _median([s.duration for s in _spans(sf, "lapack.raw")]), "us"),
    }
    kernels = _spans(ref, "backends.kernel")
    for routine in ("gesv", "posv", "sysv", "syev"):
        m[f"lapack77.{routine}_ms"] = (
            _median([s.duration for s in kernels if s.name == routine],
                    1e6), "ms")
    m["lapack77.kernel_share"] = (
        _ratio(sum(s.get("backends.kernel", 0) for s in ref_self),
               ref_total), "ratio")
    m["blas.share"] = (_ratio(sum(s.get("blas", 0) for s in ref_self),
                              ref_total), "ratio")
    # The same layers on the workload each one's second prediction names.
    m.update({
        "mid_reuse.dispatch_front.self_us": (
            _per_call(mr_self, "dispatch_front"), "us"),
        "mid_reuse.dispatch_front.probe_us": (
            _inclusive_per_call(mr, "dispatch_front.probe"), "us"),
        "mid_reuse.dispatch_front.probes_per_call": (
            _ratio(count(mr1, "dispatch_front.probe"), front_calls(mr1)),
            "count"),
        "mid_reuse.resilience.self_us": (
            _per_unit(mr, "backends.proxy", "resilience"), "us"),
        "reference_n128.resilience.self_us": (
            _per_unit(ref, "backends.proxy", "resilience"), "us"),
        "reference_n128.f77.self_us": (_per_call(ref_self, "f77"), "us"),
        "batched_n8.specs.route_us": (_per_call(bn_self, "specs.route"),
                                      "us"),
        "batched_n8.dispatch_front.probe_us": (
            _inclusive_per_call(bn, "dispatch_front.probe"), "us"),
    })
    for routine, rungs in ladder(sf).items():
        for rung, value in rungs.items():
            m[f"ladder.{routine}.{rung}_us"] = (value, "us")
    return m


def _climb(root):
    """Durations of the first span of each rung, each inside the last."""
    span, out = root, {}
    for rung, layer in RUNGS:
        span = next((s for s in span.walk() if s.layer == layer), None)
        if span is None:
            break
        out[rung] = span.duration
    return out


def ladder(roots):
    """``{routine: {rung: median µs}}`` from ``small_fresh`` calls."""
    out = {}
    for routine, kind in LADDER.items():
        climbs = [_climb(r) for r in roots if r.name == kind]
        out[routine] = {rung: _median([c[rung] for c in climbs
                                       if rung in c])
                        for rung, _ in RUNGS}
    return out


def ladder_table(roots):
    """The ladder as printable lines, raw rung first."""
    rows = ladder(roots["small_fresh"])
    names = [rung for rung, _ in reversed(RUNGS)]
    lines = ["layer ladder, small_fresh, median us per call: "
             + "  ".join(f"{n:>16}" for n in names)]
    for routine, rungs in rows.items():
        lines.append(f"{routine:>47}: "
                     + "  ".join(f"{rungs[n]:16.2f}" for n in names))
    return lines
