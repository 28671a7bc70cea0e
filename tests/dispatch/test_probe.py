"""Structure probing: exact classification, adversarial near-misses,
and the stacked variant.

The probe is deliberately exact — element-wise ``a == a.T``, never a
tolerance — because the front door promises bit-identity with the
routed driver: a matrix that is within eps of symmetric but not equal
to its transpose would give ``la_sysv`` a *different* answer than
``la_gesv``, so it must route as general.  Exact means value equality,
not bit equality: a mirrored ``0.0``/``-0.0`` pair probes as symmetric,
and a NaN equals nothing (``test_probe_parity.py`` pins both).
"""

import numpy as np

from repro.dispatch_front.probe import (Structure, bandwidths, probe,
                                        probe_stack)


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_bandwidths():
    a = np.zeros((5, 5))
    a[np.diag_indices(5)] = 1.0
    assert bandwidths(a) == (0, 0)
    a[2, 0] = 1.0
    a[0, 1] = 1.0
    assert bandwidths(a) == (2, 1)


def test_diagonal_and_triangular():
    d = np.diag(np.arange(1.0, 5.0))
    assert probe(d).label == "diagonal"
    up = np.triu(_rng().standard_normal((6, 6))) + 6 * np.eye(6)
    st = probe(up)
    assert (st.label, st.uplo) == ("triangular", "U")
    lo = np.tril(_rng(1).standard_normal((6, 6))) + 6 * np.eye(6)
    st = probe(lo)
    assert (st.label, st.uplo) == ("triangular", "L")


def test_tridiagonal_and_banded():
    n = 12
    g = _rng(2).standard_normal((n, n))
    tri = np.triu(np.tril(g, 1), -1) + n * np.eye(n)
    assert probe(tri).label == "tridiagonal"
    band = np.triu(np.tril(g, 2), -3) + n * np.eye(n)
    st = probe(band)
    assert st.label == "banded"
    assert (st.kl, st.ku) == (3, 2)


def test_spd_is_labelled_without_factoring(monkeypatch):
    # The probe only checks a strictly positive real diagonal; la_posv's
    # own potrf is the definiteness test, so probing runs no kernel.
    from repro.backends import kernels
    calls = []
    real_call = kernels.KernelProxy.__call__
    monkeypatch.setattr(kernels.KernelProxy, "__call__",
                        lambda self, *args, **kwargs: (
                            calls.append(self.routine),
                            real_call(self, *args, **kwargs))[1])
    g = _rng(3).standard_normal((7, 7))
    a = g @ g.T + 7 * np.eye(7)
    a = (a + a.T) / 2
    st = probe(a)
    assert st.label == "spd"
    assert st.symmetric and st.hermitian
    assert st.cholesky is None
    assert st.probe_cost > 0.0
    # Positive diagonal, indefinite (eigenvalues 7, -1, -1, -1): the
    # probe still says spd; the executed solve falls back.
    assert probe(2 * np.ones((4, 4)) - np.eye(4)).label == "spd"
    assert calls == []


def _pair_edits(a):
    """Edits of a square ``a`` (n >= 3) around the mirrored pair
    ``a[1, 0]``/``a[0, 1]`` that the symmetry tests look at first."""
    real = a.real.dtype.type
    entries = [{(1, 0): np.nan, (0, 1): np.nan},
               {(1, 0): 0.0, (0, 1): -0.0},
               {(1, 0): np.nan, (0, 1): 1.0},
               {(1, 0): 1.0, (0, 1): np.nextafter(real(1), real(2))},
               {(2, 0): a[2, 0] + 1},       # the pair agrees, row 0 not
               {(2, 2): np.nan},
               {(0, 0): np.nan}]
    if a.dtype.kind == "c":         # conjugate pair, non-real diagonal
        entries.append({(0, 1): 1 + 2j, (1, 0): 1 - 2j,
                        (1, 1): a[1, 1] + 1j})
    edits = []
    for edit in entries:
        c = a.copy()
        for ij, value in edit.items():
            c[ij] = value
        edits.append(c)
    return edits


def mirrored_pair_cases(seed=11):
    """Operands around the probe's mirrored-pair exit: NaN/NaN,
    ``0.0``/``-0.0``, NaN/1.0 and one-ulp pairs, a conjugate pair next
    to a non-real diagonal, a pair that agrees while row 0 does not, a
    NaN on the diagonal only, and n in {0, 1, 2} — on Hermitian,
    complex-symmetric and general bases of every dtype."""
    rng = _rng(seed)
    cases = [np.zeros((0, 0)), np.array([[2.0]]), np.array([[np.nan]]),
             np.array([[1.0, 2.0], [2.0, 3.0]]),
             np.array([[1.0, 2.0], [-2.0, 3.0]]),
             np.array([[1.0, 0.0], [-0.0, 3.0]]),
             np.array([[1.0, np.nan], [np.nan, 1.0]]),
             np.array([[np.nan, 1.0], [1.0, 2.0]]),
             np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]]),
             np.array([[2.0 + 1j, 1 + 1j], [1 - 1j, 3.0]])]
    for dtype in (np.float64, np.float32, np.complex128, np.complex64):
        g = rng.standard_normal((5, 5))
        if np.dtype(dtype).kind == "c":
            g = g + 1j * rng.standard_normal((5, 5))
        m = g @ g.conj().T
        for base in ((m + m.conj().T) / 2 + 5 * np.eye(5), g + g.T, g):
            base = base.astype(dtype)
            cases += [base] + _pair_edits(base)
    return cases


def test_early_exits_match_the_full_tests():
    """The corner and mirrored-pair shortcuts return what the full
    ``nonzero`` sweep and ``array_equal`` would, including on signed
    zeros and NaNs."""
    def full_bandwidths(a):
        rows, cols = np.nonzero(a)
        if rows.size == 0:
            return 0, 0
        off = cols - rows
        return int(max(0, -off.min())), int(max(0, off.max()))

    rng = _rng(9)
    cases = []
    for n in (1, 2, 3, 6):
        g = rng.standard_normal((n, n))
        cases += [g, g + g.T, np.triu(g), np.tril(g, 1), np.eye(n)]
    for corner in (0.0, -0.0, np.nan):
        c = rng.standard_normal((5, 5))
        c = c + c.T
        c[4, 0] = c[0, 4] = corner
        cases.append(c)
        d = c.copy()
        d[0, 4] = 1.0
        cases.append(d)
    z = np.zeros((5, 5))
    z[0, 3] = -0.0
    z[3, 0] = 0.0
    cases += [z, np.zeros((4, 6)), np.ones((3, 5)),
              np.full((4, 4), np.nan)]
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    cases += [h, h + h.conj().T, h + h.T]
    cases += mirrored_pair_cases()
    for a in cases:
        assert bandwidths(a) == full_bandwidths(a), a
        if a.shape[0] != a.shape[1]:
            continue
        st = probe(a)
        assert st.symmetric == np.array_equal(a, a.T), a
        assert st.hermitian == np.array_equal(a, a.conj().T), a


def test_hpd_versus_complex_symmetric():
    g = _rng(4).standard_normal((6, 6)) \
        + 1j * _rng(5).standard_normal((6, 6))
    m = g @ g.conj().T
    hpd = (m + m.conj().T) / 2 + 6 * np.eye(6)
    st = probe(hpd)
    assert st.label == "hpd"
    assert st.hermitian and not st.symmetric
    csym = g + g.T          # complex symmetric, not Hermitian
    np.fill_diagonal(csym, csym.diagonal() + 6)
    assert probe(csym).label == "symmetric"


def test_indefinite_symmetric_is_not_spd():
    g = _rng(6).standard_normal((8, 8))
    a = g + g.T
    np.fill_diagonal(a, a.diagonal() - 50.0)    # negative definite
    st = probe(a)
    assert st.label == "symmetric"
    assert st.cholesky is None


def test_near_miss_almost_symmetric_routes_general():
    g = _rng(7).standard_normal((8, 8))
    a = g + g.T + 8 * np.eye(8)
    a[0, 7] += 1e-12            # within eps of symmetric — still general
    assert probe(a).label == "general"


def test_near_miss_bandwidth_n_minus_1_is_not_banded():
    n = 8
    a = np.eye(n)
    a[n - 1, 0] = 1.0           # kl = n-1
    a[0, n - 1] = 2.0           # ku = n-1, and not symmetric
    st = probe(a)
    assert st.label == "general"
    assert (st.kl, st.ku) == (n - 1, n - 1)


def test_non_square_probes_general():
    assert probe(np.ones((3, 5))).label == "general"
    assert probe(np.ones(4)).label == "general"


def test_structure_label_is_validated():
    try:
        Structure("banded-ish")
    except ValueError as exc:
        assert "banded-ish" in str(exc)
    else:
        raise AssertionError("bogus label accepted")


def test_probe_stack_classifies_uniform_stacks():
    g = _rng(8).standard_normal((3, 5, 5))
    sym = g + g.transpose(0, 2, 1) - 10 * np.eye(5)   # indefinite
    st = probe_stack(sym)
    assert st.label == "symmetric"
    spd = np.einsum("kij,klj->kil", g, g) + 5 * np.eye(5)
    spd = (spd + spd.transpose(0, 2, 1)) / 2
    assert probe_stack(spd).label == "spd"
    assert probe_stack(g).label == "general"
    assert probe_stack(np.ones((2, 3, 5))).label == "general"
