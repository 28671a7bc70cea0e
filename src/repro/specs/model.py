"""Data model for the declarative driver-spec layer.

A :class:`DriverSpec` is the machine-readable description of one
``la_*`` wrapper: its arguments with their 1-based LAPACK positions,
the ordered argument checks (each bound to the negative ``LINFO`` code
it produces), the derived dimensions those checks consult, the dtype
domain and generic-dispatch pair, the backend kernel the driver is
bound to, and the meaning of positive ``INFO`` values.

Everything here is plain data — no numpy, no driver imports — so the
registry can be loaded by tooling (``lalint``, the catalogue emitter)
without touching the numerical stack.  The evaluation semantics of the
check vocabulary live in :mod:`repro.specs.engine`, which compiles each
spec's ladder on first use (:attr:`DriverSpec.validator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

__all__ = ["ArgSpec", "Check", "DriverSpec"]

#: Check kinds understood by the validation engine.  Kept as data so
#: lalint and the registry can agree on the vocabulary without importing
#: the engine.
CHECK_KINDS = frozenset({
    "square",          # arg is a square 2-D array
    "square_conform",  # square and shape[0] == dim
    "matrix2d",        # arg is a 2-D array
    "vector1d",        # arg is a 1-D array
    "rhs",             # 1-D/2-D with dim rows (the check_rhs contract)
    "rhs_same",        # rhs plus shape identical to a reference arg
    "nonneg",          # derived dimension is non-negative
    "offdiag",         # off-diagonal vector of length max(0, dim-1)
    "offdiag_pair",    # two off-diagonal vectors share that length
    "optlen",          # optional vector: when given, length == dim
    "reqlen",          # required vector of length == dim
    "minlen",          # vector of length >= dim (optional via param)
    "packed",          # 1-D packed triangle of order dim (or self-sized)
    "flag",            # option letter within a domain
    "intenum",         # integer drawn from a small enum
    "band",            # band storage: derived kl/ku both non-negative
    "fact_requires",   # fact='F' demands the factored arguments
    "range_pair",      # half-open eigenvalue range: vl < vu
    "index_pair",      # eigenvalue index range: 0 <= il <= iu
    "same_shape",      # arg.shape == reference arg.shape
    "cols_conform",    # 2-D with the same column count as a reference
    "square_same",     # square and same shape as a reference arg
    "custom",          # named predicate registered in the engine
})

#: Derived-dimension sources (see ``engine._dim_expr``).
DIM_SOURCES = frozenset({"rows2d", "cols2d", "len", "tri", "min"})


@dataclass(frozen=True)
class ArgSpec:
    """One wrapper argument.

    ``position`` is the 1-based LAPACK position that negative ``LINFO``
    codes are keyed to.  ``in_table`` marks the arguments that appear in
    the shared error-exit table (:data:`repro.testing.error_exits.
    ERROR_EXIT_CODES` is derived from exactly these flags).
    """

    name: str
    position: int
    kind: str = "matrix"     # matrix | rhs | vector | flag | scalar | info
    required: bool = True
    intent: str = "in"       # in | inout | out
    workspace: bool = False  # wrapper allocates this output when omitted
    in_table: bool = False


@dataclass(frozen=True)
class Check:
    """One ordered validation step.

    ``code`` is the negative ``LINFO`` value emitted on violation;
    ``args`` names the argument(s) under test, ``dim`` a derived
    dimension from :attr:`DriverSpec.dims`, and ``params`` carries
    kind-specific options (flag domains, band styles, enum values,
    custom-predicate names).
    """

    code: int
    kind: str
    args: tuple = ()
    dim: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DriverSpec:
    """Declarative description of one ``la_*`` driver."""

    name: str                       # "la_gesv"
    section: str                    # Appendix-G catalogue section
    summary: str                    # one-line catalogue description
    args: tuple = ()                # ArgSpec, signature order
    checks: tuple = ()              # Check, ladder order (first wins)
    dims: tuple = ()                # (var, source, *arg-or-dim refs)
    kernel: str | None = None       # bound backend-kernel name
    reference_only: bool = True     # accelerated backend lacks the kernel
    dtypes: str = "both"            # real | complex | both
    pair: str | None = None         # generic real<->complex partner
    positive_info: str = ""         # meaning of INFO > 0
    warn: str | None = None         # warning-band semantics, if any
    screen: str | None = None       # entry gate (repro.core.shell):
    # None runs none; "always" screens the required array operands on
    # every call; "nonempty" does so unless the rhs has no rows (the
    # n = 0 quick return comes first).
    batchable: bool = False         # repro.batch derives a batch_* wrapper
    problem_kind: str | None = None  # front-door verb: solve | lstsq | eig
    structure: tuple = ()           # matrix structures this driver is the
    # preferred route for (labels from repro.specs.routing.STRUCTURES).
    # The dispatch front end derives its probe->driver routing table
    # from exactly these two fields — there is no hand-written ladder
    # anywhere (lalint LA022 forbids one).

    @cached_property
    def validator(self):
        """This spec's check ladder compiled into one function,
        ``validator(**bound) -> LINFO`` (0 when the arguments conform).
        Built on first use by :func:`repro.specs.engine.compile_validator`
        and kept on the instance, so a spec built outside the registry
        validates the same way.  Threads racing the first use may each
        compile; the functions are equivalent and one is kept."""
        from .engine import compile_validator
        return compile_validator(self)

    @property
    def srname(self) -> str:
        return self.name.upper()

    @property
    def flags(self) -> dict:
        """Flag-argument domains, collected from the flag checks."""
        return {c.args[0]: tuple(c.params.get("options", ()))
                for c in self.checks if c.kind == "flag"}

    @property
    def table_codes(self) -> dict:
        """This driver's row of the derived error-exit table."""
        return {a.name: -a.position for a in self.args if a.in_table}

    @property
    def array_args(self) -> tuple:
        """Names of the array operands (matrix / rhs / vector kinds)."""
        return tuple(a.name for a in self.args
                     if a.kind in ("matrix", "rhs", "vector"))

    @property
    def written_args(self) -> tuple:
        """Array operands the driver's kernel may write in place — the
        read/write half of the effect signature lalint derives per
        kernel (intent ``inout``/``out`` array arguments)."""
        return tuple(a.name for a in self.args
                     if a.kind in ("matrix", "rhs", "vector")
                     and a.intent in ("inout", "out"))

    @property
    def batch_stacked(self) -> tuple:
        """Array operands that gain a leading batch axis in the derived
        ``batch_*`` wrapper — every per-problem array (the batched layer
        stacks all of them; there is no per-argument opt-out)."""
        return self.array_args

    @cached_property
    def batch_walk(self) -> tuple:
        """``(name, position, required, ndims)`` per stacked operand, in
        argument order: the stack-level pass of
        :func:`repro.specs.engine.validate_batch`, derived once per
        spec instead of once per batched call.  ``ndims`` holds the
        operand's accepted stack ranks."""
        from .engine import _STACK_NDIM
        stacked = set(self.batch_stacked)
        return tuple((a.name, a.position, a.required, _STACK_NDIM[a.kind])
                     for a in self.args if a.name in stacked)

    @property
    def batch_broadcast(self) -> tuple:
        """Arguments shared (broadcast) across the whole batch: option
        flags and scalars.  The derived wrapper accepts one value and
        applies it to every problem; a flag's default is the first
        option in its declared domain (``uplo='U'``, ``jobz='N'``,
        ``trans='N'`` — matching the parent drivers)."""
        return tuple(a.name for a in self.args
                     if a.kind in ("flag", "scalar"))

    def arg(self, name: str) -> ArgSpec | None:
        for a in self.args:
            if a.name == name:
                return a
        return None

    def call_sequence(self) -> str:
        """``la_gesv(a, b, ipiv=, info=)`` — catalogue call summary."""
        parts = [a.name if a.required else f"{a.name}=" for a in self.args]
        return f"{self.name}({', '.join(parts)})"
