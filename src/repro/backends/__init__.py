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
    Thin adapters over the typed wrappers of SciPy's compiled
    ``_flapack`` extension (the objects ``scipy.linalg.lapack``
    re-exports) with LAPACK-style info translation
    (:mod:`repro.backends.accelerated`).  Auto-registered when SciPy is
    installed, which is checked without importing it: the extension
    loads on the backend's first kernel call, without the
    ``scipy.linalg`` package, so ``import repro`` on the default
    backend loads no SciPy.  Selecting it without SciPy
    degrades gracefully per routine.  If SciPy is installed but fails
    to import at that first call, the backend leaves the registry, the
    dispatch seam serves that call from ``reference``, and later calls
    degrade per routine as if SciPy were absent.

Selection mirrors :mod:`repro.policy`: a process-global knob
(:func:`set_backend`, also initialised from the ``REPRO_BACKEND``
environment variable) and a context-manager override
(``with use_backend("accelerated"): ...``) that switches it for the
whole process.  The per-call ``backend=`` escape hatch on every
``la_*`` driver (the driver shell, :mod:`repro.core.shell`) and
``batch_*`` wrapper (:mod:`repro.batch.generator`) does not switch
anything: it pins the backend for the current context only
(:func:`_pinned`, a :class:`~contextvars.ContextVar` that
:func:`get_backend_name` and :func:`resolve` read before the process
selection), so concurrent pinned calls on other threads never see it.
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

import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .. import faults
from .._sync import STATE_LOCK
from ..errors import BackendFallbackWarning, warn_at_caller
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
    "reset_fallback_announcements",
    "BackendFallbackWarning",
]

#: Backend names that may always be *selected*, even when the substrate
#: failed to register (selection then degrades to ``reference`` per
#: routine, with a warning).  Unknown names raise ``ValueError``.
KNOWN_BACKENDS = ("reference", "accelerated")

#: The dtype chars an unrestricted routine's ``Backend.served`` keys
#: cover: LAPACK's four types.  Any other dtype takes ``Backend.get``.
_SERVED_CHARS = "fdFD"

_REGISTRY: dict[str, "Backend"] = {}
#: Backends dropped from the registry (:func:`unregister_backend`,
#: :func:`_retire`), by name, so the dispatch seam can still read a
#: dropped backend's :attr:`Backend.write_back` (:func:`_writes_back`).
_RETIRED: dict[str, "Backend"] = {}
_SELECTED = "reference"
_ANNOUNCED = RateLimiter()
#: The per-call ``backend=`` pin: read before ``_SELECTED``, set only
#: by :func:`_pinned` for the current context.
_PINNED: ContextVar = ContextVar("repro_backend_pin", default=None)


class Backend:
    """A named table mapping routine names to concrete kernels.

    ``dtype_chars`` optionally restricts individual routines to NumPy
    dtype characters (e.g. ``{"syev": "fd"}``); routines absent from the
    map accept any dtype the kernel itself accepts.

    ``write_back`` names the entries whose failure leaves their operands
    untouched: each writes an operand either after the underlying call
    returns, or in place from inside a call that raises only before it
    starts (f2py converts and checks every argument before LAPACK
    runs).  The dispatch seam
    (:class:`repro.backends.kernels.KernelProxy`) serves a failure of
    such an entry once from the reference kernel; a failure of any
    other entry propagates.  Entries added later with :meth:`extend`
    are not declared.

    ``order`` is the memory order the kernels compute in without a copy
    of their own: ``"F"`` (LAPACK's) unless the backend says otherwise.
    The front door makes its working copies in it
    (:func:`working_order`).

    ``served`` maps ``(routine, dtype char)`` to the kernel :meth:`get`
    returns for it, over the LAPACK dtype chars (``None`` for no
    dtype), so :func:`resolve` serves a clean call with one lookup.
    :meth:`__init__` and :meth:`extend` rebuild it; a key it lacks
    goes through :meth:`get`.
    """

    def __init__(self, name, table, dtype_chars=None, write_back=(),
                 order="F"):
        self.name = name
        self._table = dict(table)
        self._dtype_chars = dict(dtype_chars or {})
        self.write_back = frozenset(write_back)
        self.order = order
        self._build_served()

    def _build_served(self):
        served = {}
        for routine, kernel in self._table.items():
            chars = self._dtype_chars.get(routine)
            served[routine, None] = kernel
            for char in _SERVED_CHARS if chars is None else chars:
                served[routine, char] = kernel
        self.served = served

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
        self._build_served()

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
        _retire(name)
        if _SELECTED == name:
            _SELECTED = "reference"


def _retire(name):
    """Drop ``name`` from the registry and leave the selection alone:
    a backend whose substrate failed to load at its first call
    (:mod:`repro.backends.accelerated`).  Calls that select it then
    fall back to ``reference`` per routine, with a warning, as when it
    never registered."""
    with STATE_LOCK:
        backend = _REGISTRY.pop(name, None)
        if backend is not None:
            _RETIRED[name] = backend


def _writes_back(name, routine):
    """True when backend ``name`` declares ``routine`` write-back
    (:attr:`Backend.write_back`).  A backend no longer registered
    answers for the one last registered under its name: the dispatch
    seam asks after the failed call, and that call may be the one that
    retired it."""
    with STATE_LOCK:
        backend = _REGISTRY.get(name) or _RETIRED.get(name)
    return backend is not None and routine in backend.write_back


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
    """Name of the backend serving this context: the per-call pin when
    one is set, else the process-global selection."""
    return _PINNED.get() or _SELECTED  # laflow: benign-race — atomic snapshot of one name binding


def working_order():
    """The :attr:`Backend.order` of the backend serving this context;
    reference's when that backend is not registered, since every call
    then falls back to reference."""
    name = _PINNED.get() or _SELECTED  # laflow: benign-race — snapshot read; a racing switch lays out one call's copies for the prior backend
    backend = _REGISTRY.get(name) or _REGISTRY["reference"]  # laflow: benign-race — snapshot read; Backend objects are immutable once registered
    return backend.order


def _select(name, durable):
    """Swap the process-global selection; returns the previous name.

    A *durable* effective switch (a direct :func:`set_backend` or a
    :func:`use_backend` entry) also reopens the departed backend's
    rate-limited warning windows, so a reroute after the switch
    re-announces once instead of staying suppressed by pre-switch
    history.  :func:`use_backend`'s restore is not durable: two
    consecutive blocks on the same fallback backend announce once."""
    global _SELECTED
    validated = _validate(name)
    with STATE_LOCK:
        previous = _SELECTED
        _SELECTED = validated  # laflow: atomic-split — each swap is atomic; use_backend's set/restore are deliberately separate swaps
    if durable and previous != validated:
        _ANNOUNCED.reset(where=lambda key: key[0] == previous)
    return previous


def set_backend(name):
    """Select the process-global backend; returns the previous name.

    ``name`` must be a known backend (``reference`` or ``accelerated``).
    Selecting a known-but-unregistered backend (e.g. ``accelerated``
    without SciPy) is allowed: every dispatch then falls back to
    ``reference`` and announces a :class:`BackendFallbackWarning`.

    An *effective* switch (``name`` differs from the current selection)
    resets the departed backend's rate-limited warning windows — see
    :func:`_select`.
    """
    return _select(name, durable=True)


@contextmanager
def use_backend(name):
    """Context manager: select ``name`` for the whole process for the
    duration of the block.

    Entering counts as a durable switch (warning windows for the
    departed backend reopen); the restore on exit does not — see
    :func:`_select`.  Two threads scoping the selection at once are
    last-restore-wins; a per-call ``backend=`` pins one call instead.
    """
    previous = _select(name, durable=True)
    try:
        yield
    finally:
        _select(previous, durable=False)


@contextmanager
def _pinned(name):
    """Pin ``name`` for the current context: the per-call ``backend=``
    of the driver shell and the batched wrappers.  The process
    selection, the warning windows and every other thread are left
    alone."""
    token = _PINNED.set(_validate(name))
    try:
        yield
    finally:
        _PINNED.reset(token)


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
    warn_at_caller(message, BackendFallbackWarning)


def resolve(routine, dtype=None, backend=None):
    """Resolve ``(routine, dtype)`` to a concrete kernel.

    ``backend`` overrides the pin and the process-global selection for
    this lookup.  Resolution order: armed faults force ``reference``
    (the fault hooks live in the reference kernels); otherwise the
    selected backend is consulted and, when it cannot serve the
    routine/dtype, the call falls back to ``reference`` with a
    once-per-pair warning.  With no fault armed, a pair the selected
    backend serves is one lookup in its :attr:`Backend.served`.
    """
    if backend is not None:
        name = _validate(backend)
    else:
        name = _PINNED.get() or _SELECTED  # laflow: benign-race — snapshot read; a racing switch serves the prior backend for one call
    if not faults.active():
        chosen = _REGISTRY.get(name)  # laflow: benign-race — snapshot read; Backend objects are immutable once registered
        if chosen is not None:
            try:
                char = dtype.char
            except AttributeError:      # None, or a dtype spelling
                char = dtype
            kernel = chosen.served.get((routine, char))
            if kernel is not None:
                return kernel
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


def _serves(routine, dtype):
    """True when the backend serving this context serves ``routine``
    for ``dtype`` itself, with no fallback to reference (the batched
    wrappers' test for a native ``*_stack`` entry)."""
    name = _PINNED.get() or _SELECTED  # laflow: benign-race — snapshot read; a racing switch answers for the prior backend for one call
    chosen = _REGISTRY.get(name)  # laflow: benign-race — snapshot read; Backend objects are immutable once registered
    return chosen is not None and chosen.supports(routine, dtype)


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
