"""The probe against an ``np.array_equal``-based oracle.

:func:`~repro.dispatch_front.probe.probe` and
:func:`~repro.dispatch_front.probe.probe_stack` compare with
``x == y`` reduced by ``np.count_nonzero`` or ``.all()`` (``probe``
after a mirrored-pair early exit) and test ``dtype.kind == "c"``.  The
oracle below is the probe as it was written with ``np.array_equal``
and ``np.iscomplexobj``; on structured matrices and on near-misses
(NaN and ±Inf entries, mirrored ``0.0``/``-0.0`` pairs, one-ulp edits,
a complex diagonal, complex-symmetric and complex-Hermitian inputs,
non-square and wrong-rank arrays, n in {0, 1, 2, 8, 65}, and the
operands built around the mirrored pair) every field of the verdict
must agree.
"""

import numpy as np
import pytest

from repro.dispatch_front.probe import bandwidths, probe, probe_stack

from .test_probe import mirrored_pair_cases

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = dict(max_examples=150, deadline=None, derandomize=True)

FIELDS = ("label", "kl", "ku", "uplo", "symmetric", "hermitian")


# -- the oracle: equality through np.array_equal --------------------------

def _oracle_equals_adjoint(a, conj):
    if a.size and not np.array_equal(
            a[0], a[:, 0].conj() if conj else a[:, 0]):
        return False
    return np.array_equal(a, a.conj().T if conj else a.T)


def _oracle_positive_diagonal(a):
    diag = np.diagonal(a)
    if np.iscomplexobj(diag):
        if (diag.imag != 0).any():
            return False
        diag = diag.real
    return bool((diag > 0).all())


def oracle_probe(a):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return dict(label="general", kl=0, ku=0, uplo="U",
                    symmetric=False, hermitian=False)
    n = a.shape[0]
    kl, ku = bandwidths(a)
    iscomplex = np.iscomplexobj(a)
    symmetric = _oracle_equals_adjoint(a, conj=False)
    hermitian = _oracle_equals_adjoint(a, conj=True) if iscomplex \
        else symmetric
    label, uplo = "general", "U"
    if kl == 0 and ku == 0:
        label = "diagonal"
    elif ku == 0:
        label, uplo = "triangular", "L"
    elif kl == 0:
        label = "triangular"
    elif kl <= 1 and ku <= 1:
        label = "tridiagonal"
    elif 2 * kl + ku + 1 < n:
        label = "banded"
    elif hermitian:
        if _oracle_positive_diagonal(a):
            label = "hpd" if iscomplex else "spd"
        else:
            label = "hermitian" if iscomplex else "symmetric"
    elif symmetric:
        label = "symmetric"
    return dict(label=label, kl=kl, ku=ku, uplo=uplo,
                symmetric=symmetric, hermitian=hermitian)


def _oracle_trial_cholesky(a):
    if not _oracle_positive_diagonal(a):
        return None
    from repro.backends.kernels import potrf
    factor = a.copy()
    return factor if int(potrf(factor, "U")) == 0 else None


def oracle_probe_stack(a):
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] == 0:
        return dict(label="general", kl=0, ku=0, uplo="U",
                    symmetric=False, hermitian=False)
    iscomplex = np.iscomplexobj(a)
    swapped = a.transpose(0, 2, 1)
    symmetric = np.array_equal(a, swapped)
    hermitian = np.array_equal(a, swapped.conj()) if iscomplex \
        else symmetric
    label = "general"
    if hermitian:
        label = "hermitian" if iscomplex else "symmetric"
        if _oracle_trial_cholesky(a[0]) is not None:
            label = "hpd" if iscomplex else "spd"
    elif symmetric:
        label = "symmetric"
    width = max(0, a.shape[1] - 1)
    return dict(label=label, kl=width, ku=width, uplo="U",
                symmetric=symmetric, hermitian=hermitian)


def verdict(structure):
    return {f: getattr(structure, f) for f in FIELDS}


# -- operands ---------------------------------------------------------------

ORDERS = (0, 1, 2, 8, 65)
DTYPES = (np.float64, np.float32, np.complex128, np.complex64)
SHAPES = ("general", "symmetric", "hermitian", "definite",
          "complex_symmetric", "diagonal", "upper", "lower", "tridiagonal",
          "banded", "zero")
EDITS = ("nan", "nan_diag", "inf", "inf_pair", "signed_zero_pair",
         "signed_zero_diag", "ulp", "imag_diag", "neg_diag")


def structured(rng, n, dtype, shape):
    g = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        g = g + 1j * rng.standard_normal((n, n))
    if shape == "symmetric" or shape == "complex_symmetric":
        a = g + g.T
    elif shape == "hermitian":
        a = g + g.conj().T
    elif shape == "definite":
        a = g @ g.conj().T + n * np.eye(n)
    elif shape == "diagonal":
        a = np.diag(np.diag(g))
    elif shape == "upper":
        a = np.triu(g)
    elif shape == "lower":
        a = np.tril(g)
    elif shape == "tridiagonal":
        a = np.triu(np.tril(g, 1), -1)
    elif shape == "banded":
        a = np.triu(np.tril(g, int(rng.integers(0, 3))),
                    -int(rng.integers(0, 3)))
    elif shape == "zero":
        a = np.zeros((n, n))
    else:
        a = g
    return np.asarray(a, dtype=dtype)


def near_miss(rng, a, edit):
    """One edit at a random position; mirrored edits keep the pair."""
    n = a.shape[-1]
    if n == 0:
        return a
    i, j = (int(v) for v in rng.integers(0, n, 2))
    if edit == "nan":
        a[..., i, j] = np.nan
    elif edit == "nan_diag":
        a[..., i, i] = np.nan
    elif edit == "inf":
        a[..., i, j] = np.inf
    elif edit == "inf_pair":
        a[..., i, j] = a[..., j, i] = -np.inf
    elif edit == "signed_zero_pair":
        a[..., i, j], a[..., j, i] = 0.0, -0.0
    elif edit == "signed_zero_diag":
        a[..., i, i] = -0.0
    elif edit == "ulp":
        a[..., i, j] = np.nextafter(a[..., i, j].real, np.inf)
    elif edit == "imag_diag" and a.dtype.kind == "c":
        a[..., i, i] += 1e-30j
    elif edit == "neg_diag":
        a[..., i, i] = -abs(a[..., i, i])
    return a


@st.composite
def operands(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from(ORDERS))
    a = structured(rng, n, draw(st.sampled_from(DTYPES)),
                   draw(st.sampled_from(SHAPES)))
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        a = near_miss(rng, a, edit)
    return a


@settings(**SETTINGS)
@given(a=operands(), form=st.sampled_from(
    ["square", "square", "square", "wide", "tall", "vector", "stack"]))
def test_probe_matches_array_equal_oracle(a, form):
    if form == "wide":
        a = a[:, 1:]
    elif form == "tall":
        a = a[1:, :]
    elif form == "vector":
        a = a.reshape(-1)
    elif form == "stack":
        a = a[None]
    assert verdict(probe(a)) == oracle_probe(a)


@settings(**SETTINGS)
@given(a=operands(), batch=st.integers(1, 3), edit=st.sampled_from(
    (None,) + EDITS), slice_=st.integers(0, 2),
    form=st.sampled_from(["stack", "stack", "stack", "wide", "flat"]))
def test_probe_stack_matches_array_equal_oracle(a, batch, edit, slice_,
                                                form):
    stack = np.repeat(a[None], batch, axis=0)
    if edit is not None:
        k = slice_ % batch
        stack[k] = near_miss(np.random.default_rng(k), stack[k], edit)
    if form == "wide":
        stack = stack[:, :, 1:]
    elif form == "flat":
        stack = stack[0]
    assert verdict(probe_stack(stack)) == oracle_probe_stack(stack)


@pytest.mark.parametrize("dtype", DTYPES)
def test_signed_zero_mirror_probes_symmetric(dtype):
    """Value equality, not bit equality: a mirrored 0.0/-0.0 pair is
    symmetric (and the probe says so for stacks too)."""
    a = np.asarray([[2.0, 0.0, 1.0], [-0.0, 3.0, 0.0],
                    [1.0, 0.0, 4.0]], dtype=dtype)
    st_ = probe(a)
    assert st_.symmetric and st_.hermitian
    assert st_.label == ("hpd" if a.dtype.kind == "c" else "spd")
    assert probe_stack(np.stack([a, a])).symmetric


@pytest.mark.parametrize("a", mirrored_pair_cases())
def test_mirrored_pair_cases_match_the_oracle(a):
    """The probe's first symmetry test is one mirrored pair; every
    operand built around that pair (NaN/NaN, 0.0/-0.0, NaN/1.0, one
    ulp, a conjugate pair next to a non-real diagonal, a pair that
    agrees while row 0 does not, a NaN diagonal, n in {0, 1, 2}) gets
    the oracle's verdict, alone and as a one-slice stack."""
    assert verdict(probe(a)) == oracle_probe(a)
    assert verdict(probe_stack(a[None])) == oracle_probe_stack(a[None])


def test_nan_breaks_symmetry_even_on_the_diagonal():
    a = np.eye(3)
    a[1, 1] = np.nan
    assert not probe(a).symmetric
    assert probe(a).label == "diagonal"
    assert not probe_stack(a[None]).symmetric
