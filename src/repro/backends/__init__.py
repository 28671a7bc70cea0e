"""Pluggable compute backends under the F90_LAPACK drivers.

The paper's two-module design (§2, Example 3) keeps ``F77_LAPACK`` — the
explicit-argument-list layer — distinct from the ``F90_LAPACK`` drivers
precisely so the substrate can be swapped.  This package makes that
seam explicit: a registry resolves ``(routine, dtype)`` to a concrete
kernel, and the :mod:`repro.core` drivers dispatch through it instead of
importing :mod:`repro.lapack77` directly (lalint rule LA008 enforces
this).

Two substrates are known:

``reference``
    Today's pure-NumPy :mod:`repro.lapack77` kernels, registered from
    the package's explicit export catalogue.  Always present.
``accelerated``
    Thin adapters over ``scipy.linalg.lapack`` with LAPACK-style info
    translation (:mod:`repro.backends.accelerated`).  Auto-registered
    only when SciPy imports; selecting it without SciPy degrades
    gracefully per routine.

Selection mirrors :mod:`repro.policy`: a process-global knob
(:func:`set_backend`, also initialised from the ``REPRO_BACKEND``
environment variable), a context-manager override
(``with use_backend("accelerated"): ...``), and a per-call ``backend=``
escape hatch on every ``la_*`` driver (the driver shell,
:mod:`repro.core.shell`) and ``batch_*`` wrapper (via
:func:`backend_aware`).
When the selected backend cannot serve a routine the call falls back to
``reference`` and a :class:`~repro.errors.BackendFallbackWarning` is
announced — rate-limited to once per (backend, routine) pair per
:data:`~repro.resilience.ratelimit.WARNING_WINDOW` (60 s), with the
next announcement after a window carrying how many identical warnings
were suppressed meanwhile.

Fault injection (:mod:`repro.faults`) hooks into the reference kernels;
while any fault is armed, :func:`resolve` routes every dispatch to
``reference`` so fault-injection tests stay backend-agnostic.
"""

from __future__ import annotations

import functools
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .. import faults
from .._sync import STATE_LOCK
from ..errors import BackendFallbackWarning
from ..resilience.ratelimit import WARNING_WINDOW, RateLimiter

__all__ = [
    "Backend",
    "KNOWN_BACKENDS",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "get_backend",
    "get_backend_name",
    "set_backend",
    "use_backend",
    "resolve",
    "bound_kernel",
    "driver_kernel",
    "backend_aware",
    "reset_fallback_announcements",
    "on_backend_switch",
    "BackendFallbackWarning",
]

#: Backend names that may always be *selected*, even when the substrate
#: failed to register (selection then degrades to ``reference`` per
#: routine, with a warning).  Unknown names raise ``ValueError``.
KNOWN_BACKENDS = ("reference", "accelerated")

_REGISTRY: dict[str, "Backend"] = {}
_SELECTED = "reference"
_ANNOUNCED = RateLimiter()


class Backend:
    """A named table mapping routine names to concrete kernels.

    ``dtype_chars`` optionally restricts individual routines to NumPy
    dtype characters (e.g. ``{"syev": "fd"}``); routines absent from the
    map accept any dtype the kernel itself accepts.

    ``write_back`` names the entries that write their operands only
    after the underlying call returns, so a failed call leaves them
    untouched.  The dispatch seam (:mod:`repro.resilience.dispatch`)
    serves a failure of such an entry once from the reference kernel;
    a failure of any other entry propagates.  Entries added later with
    :meth:`extend` are not declared.
    """

    def __init__(self, name, table, dtype_chars=None, write_back=()):
        self.name = name
        self._table = dict(table)
        self._dtype_chars = dict(dtype_chars or {})
        self.write_back = frozenset(write_back)

    def routines(self):
        """The routine names this backend can serve (any dtype)."""
        return frozenset(self._table)

    def supports(self, routine, dtype=None):
        """True when ``routine`` (for ``dtype``, if given) is served."""
        if routine not in self._table:
            return False
        if dtype is None:
            return True
        chars = self._dtype_chars.get(routine)
        if chars is None:
            return True
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        return dtype.char in chars

    def get(self, routine, dtype=None):
        """The kernel for ``routine``, or None when unsupported."""
        if not self.supports(routine, dtype):
            return None
        return self._table[routine]

    def extend(self, table, dtype_chars=None):
        """Add (or overwrite) routine entries after registration — the
        hook :mod:`repro.backends.batched` uses to graft the synthetic
        ``*_stack`` entry points onto every registered substrate."""
        self._table.update(table)
        if dtype_chars:
            self._dtype_chars.update(dtype_chars)

    def __repr__(self):
        return "Backend({!r}, {} routines)".format(self.name,
                                                   len(self._table))


def register_backend(backend, replace=False):
    """Add ``backend`` to the registry (``replace=True`` to overwrite)."""
    with STATE_LOCK:
        if backend.name in _REGISTRY and not replace:
            raise ValueError("backend {!r} already registered"
                             .format(backend.name))
        _REGISTRY[backend.name] = backend


def unregister_backend(name):
    """Remove a registered backend (test scaffolding for synthetic
    substrates).  ``reference`` cannot be removed; the selection falls
    back to ``reference`` if it pointed at the removed backend."""
    global _SELECTED
    if name == "reference":
        raise ValueError("the reference backend cannot be unregistered")
    with STATE_LOCK:
        _REGISTRY.pop(name, None)
        if _SELECTED == name:
            _SELECTED = "reference"


def available_backends():
    """Names of the registered (importable) backends, reference first."""
    with STATE_LOCK:
        names = tuple(_REGISTRY)
    return tuple(sorted(names, key=lambda n: (n != "reference", n)))


def get_backend(name):
    """The registered :class:`Backend` called ``name``."""
    with STATE_LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError("no backend registered under {!r}; available: "
                         "{}".format(name, ", ".join(available_backends())))
    return backend


def _validate(name):
    name = str(name).lower()
    with STATE_LOCK:
        known = name in KNOWN_BACKENDS or name in _REGISTRY
        if not known:
            raise ValueError(
                "unknown backend {!r}; known: {}".format(
                    name, ", ".join(sorted(set(KNOWN_BACKENDS) |
                                           set(_REGISTRY)))))
    return name


def get_backend_name():
    """Name of the process-global backend selection."""
    return _SELECTED  # laflow: benign-race — atomic snapshot of one name binding


#: Callbacks fired after every *effective* backend switch, as
#: ``hook(previous, selected)``.  The dispatch front end registers its
#: structure-cache invalidation here; keeping a hook list (instead of a
#: direct import) avoids a backends -> dispatch_front import cycle.
_SWITCH_HOOKS: list = []


def on_backend_switch(hook):
    """Register ``hook(previous, selected)`` to run after each effective
    backend switch; returns ``hook`` (usable as a decorator)."""
    with STATE_LOCK:
        if hook not in _SWITCH_HOOKS:
            _SWITCH_HOOKS.append(hook)
    return hook


def _switched(previous, selected, durable):
    """Post-switch housekeeping, run on every *effective* change.

    The registered switch hooks always fire — the dispatch front end's
    structure cache must drop factors computed by the departed substrate
    no matter how briefly the selection changed.  Reopening the departed
    backend's rate-limited warning windows (so a reroute after the
    switch re-announces once instead of staying suppressed by pre-switch
    history) happens only on *durable* switches — a direct
    :func:`set_backend` or a :func:`use_backend` entry, not the
    context manager's restore: the per-call ``backend=`` escape hatch
    round-trips the selection on every driver call, and resetting on
    each restore would turn one suppressed warning into a flood."""
    if durable:
        _ANNOUNCED.reset(where=lambda key: key[0] == previous)
    with STATE_LOCK:
        hooks = list(_SWITCH_HOOKS)
    for hook in hooks:       # outside the lock: hooks may take it
        hook(previous, selected)


def _select(name, durable):
    global _SELECTED
    validated = _validate(name)
    with STATE_LOCK:
        previous = _SELECTED
        _SELECTED = validated  # laflow: atomic-split — each swap is atomic; use_backend's set/restore are deliberately separate swaps
    if previous != validated:
        _switched(previous, validated, durable)
    return previous


def set_backend(name):
    """Select the process-global backend; returns the previous name.

    ``name`` must be a known backend (``reference`` or ``accelerated``).
    Selecting a known-but-unregistered backend (e.g. ``accelerated``
    without SciPy) is allowed: every dispatch then falls back to
    ``reference`` and announces a :class:`BackendFallbackWarning`.

    An *effective* switch (``name`` differs from the current selection)
    also invalidates per-array caches layered over the seam (the
    dispatch front end's structure cache) and resets the departed
    backend's rate-limited warning windows — see :func:`_switched`.
    """
    return _select(name, durable=True)


@contextmanager
def use_backend(name):
    """Context manager: select ``name`` for the duration of the block.

    Entering counts as a durable switch (warning windows for the
    departed backend reopen); the restore on exit runs only the cache-
    invalidation hooks — see :func:`_switched`.
    """
    previous = _select(name, durable=True)
    try:
        yield
    finally:
        _select(previous, durable=False)


def reset_fallback_announcements():
    """Forget the fallback-warning rate-limit history (so tests can
    assert the warning fires again immediately)."""
    _ANNOUNCED.reset()


def _announce(name, routine, reason):
    emit, suppressed = _ANNOUNCED.tick((name, routine),
                                       window=WARNING_WINDOW)
    if not emit:
        return
    message = ("backend {!r} cannot serve routine {!r} ({}); falling "
               "back to the reference kernel".format(name, routine, reason))
    if suppressed:
        message += (" ({} identical warnings suppressed in the last "
                    "window)".format(suppressed))
    warnings.warn(message, BackendFallbackWarning, stacklevel=4)


def resolve(routine, dtype=None, backend=None):
    """Resolve ``(routine, dtype)`` to a concrete kernel.

    ``backend`` overrides the process-global selection for this lookup.
    Resolution order: armed faults force ``reference`` (the fault hooks
    live in the reference kernels); otherwise the selected backend is
    consulted and, when it cannot serve the routine/dtype, the call
    falls back to ``reference`` with a once-per-pair warning.
    """
    name = _validate(backend) if backend is not None else _SELECTED  # laflow: benign-race — snapshot read; a racing switch serves the prior backend for one call
    reference = _REGISTRY["reference"]  # laflow: benign-race — reference entry is registered once at import and never replaced
    if faults.active():
        kernel = reference.get(routine)
        if kernel is None:
            raise LookupError("unknown routine {!r}".format(routine))
        return kernel
    if name != "reference":
        chosen = _REGISTRY.get(name)  # laflow: benign-race — snapshot read; Backend objects are immutable once registered
        if chosen is None:
            _announce(name, routine, "backend not registered")
        else:
            kernel = chosen.get(routine, dtype)
            if kernel is not None:
                return kernel
            if routine in chosen.routines():
                _announce(name, routine,
                          "dtype {} unsupported".format(np.dtype(dtype)))
            else:
                _announce(name, routine, "routine not provided")
    kernel = reference.get(routine, dtype)
    if kernel is None:
        raise LookupError("unknown routine {!r}".format(routine))
    return kernel


def bound_kernel(driver):
    """The backend-kernel name a ``la_*`` driver is bound to, read from
    its :mod:`repro.specs` registration.

    Raises ``LookupError`` for a driver with no spec or with no kernel
    binding (the spec layer marks pure-wrapper routines that way).
    """
    from ..specs import SPECS
    spec = SPECS.get(driver)
    if spec is None:
        raise LookupError("no driver spec registered for {!r}"
                          .format(driver))
    if spec.kernel is None:
        raise LookupError("driver {!r} has no kernel binding"
                          .format(driver))
    return spec.kernel


def driver_kernel(driver, dtype=None, backend=None):
    """Resolve a ``la_*`` driver straight to its concrete kernel.

    Convenience composition of :func:`bound_kernel` (spec-declared
    binding) and :func:`resolve` (backend selection, dtype support,
    fallback ladder) — ``driver_kernel("la_gesv", np.float64)`` is the
    kernel ``la_gesv`` would dispatch to right now.
    """
    return resolve(bound_kernel(driver), dtype=dtype, backend=backend)


def backend_aware(func):
    """Decorator giving a driver the per-call ``backend=`` escape hatch.

    The wrapped driver accepts a keyword-only ``backend=None``; when
    given, the whole call (including any dispatched substrate calls made
    by fallback ladders) runs under ``use_backend(backend)``.
    """
    @functools.wraps(func)
    def wrapper(*args, backend=None, **kwargs):
        if backend is None:
            return func(*args, **kwargs)
        with use_backend(backend):
            return func(*args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------
# Substrate registration.  Kept at the bottom: importing the substrates
# pulls in repro.lapack77 (whose submodules import repro.config, which
# re-exports this module's selection API), so everything above must
# already be defined.
from .reference import build_reference_backend  # noqa: E402

register_backend(build_reference_backend())

from .accelerated import build_accelerated_backend  # noqa: E402

_accelerated = build_accelerated_backend()
if _accelerated is not None:
    register_backend(_accelerated)

from . import kernels  # noqa: E402,F401 — dispatching proxies
from . import batched  # noqa: E402 — synthetic *_stack entry points

batched.install()

_env = os.environ.get("REPRO_BACKEND", "").strip()
if _env:
    try:
        set_backend(_env)
    except ValueError:
        warnings.warn(
            "ignoring unknown REPRO_BACKEND={!r}; known: {}".format(
                _env, ", ".join(KNOWN_BACKENDS)),
            RuntimeWarning, stacklevel=2)
del _env
