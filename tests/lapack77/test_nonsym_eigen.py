"""Nonsymmetric eigensolvers: Hessenberg, Schur, eigenvectors, ordering."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.lapack77.hessenberg import gebal, gebak, gehrd, orghr
from repro.lapack77.nonsym_eigen import gees, geesx, geev, geevx
from repro.lapack77.schur import (eig_of_schur, hseqr, schur_blocks, trevc,
                                  trexc, trsen, trsyl)

from ..conftest import rand_matrix, tol_for


def sorted_eigs(w):
    w = np.asarray(w, dtype=complex)
    return w[np.lexsort((w.imag, w.real))]


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_gehrd_similarity(rng, dtype, n):
    a0 = rand_matrix(rng, n, n, dtype)
    a = a0.copy()
    tau = gehrd(a)
    q = orghr(a, tau)
    h = np.triu(a, -1)
    np.testing.assert_allclose(np.conj(q.T) @ a0 @ q, h, rtol=0,
                               atol=tol_for(dtype, 500) * max(
                                   1, np.abs(a0).max()))
    np.testing.assert_allclose(np.conj(q.T) @ q, np.eye(n), rtol=0,
                               atol=tol_for(dtype, 200))


def test_gebal_similarity_preserves_eigs(rng):
    n = 10
    a0 = rand_matrix(rng, n, n, np.float64)
    a0[0] *= 1e6  # badly scaled
    a = a0.copy()
    ilo, ihi, scale = gebal(a, job="B")
    np.testing.assert_allclose(sorted_eigs(np.linalg.eigvals(a)),
                               sorted_eigs(np.linalg.eigvals(a0)),
                               rtol=1e-6, atol=1e-8)


# One Inf in a 6x6 used to make gebal's power-of-two search spin forever
# (c = inf keeps ``g >= r`` true).  Each case runs in a child process
# with a time limit, so a regression fails instead of hanging the suite.
_NONFINITE_CHILD = """
import json, sys
import numpy as np
from repro import Info, eig, la_geev, use_backend
from repro.lapack77.hessenberg import gebal
backend, i, j = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
a = np.random.default_rng(0).standard_normal((6, 6))
a[i, j] = np.inf
gebal(a.copy(), job="B")
out = {}
with use_backend(backend):
    for name, call in (("la_geev", la_geev), ("eig", eig)):
        info = Info()
        w = call(a.copy(), info=info)
        out[name] = [int(info), bool(np.all(np.isfinite(w)))]
print(json.dumps(out))
"""


@pytest.mark.parametrize("backend", ["reference", "accelerated"])
@pytest.mark.parametrize("where", [(2, 2), (0, 5), (3, 1)],
                         ids=["diagonal", "corner", "interior"])
def test_geev_with_an_inf_terminates(backend, where):
    repo = pathlib.Path(__file__).parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _NONFINITE_CHILD, backend,
         *map(str, where)],
        env=env, cwd=str(repo), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for name, (info, finite) in json.loads(proc.stdout).items():
        assert info != 0 or not finite, name


def test_gebal_isolates_triangular_part():
    # A matrix with an isolated eigenvalue (row of zeros off-diagonal).
    a = np.array([[1.0, 0.0, 0.0],
                  [2.0, 3.0, 4.0],
                  [5.0, 6.0, 7.0]])
    ilo, ihi, scale = gebal(a.copy(), job="P")
    assert ilo > 0 or ihi < 2


@pytest.mark.parametrize("n", [2, 6, 15, 40])
def test_hseqr_real_eigenvalues(rng, n):
    a0 = rand_matrix(rng, n, n, np.float64)
    a = a0.copy()
    tau = gehrd(a)
    z = orghr(a, tau)
    for j in range(n - 2):
        a[j + 2:, j] = 0
    w, info = hseqr(a, z)
    assert info == 0
    np.testing.assert_allclose(sorted_eigs(w),
                               sorted_eigs(np.linalg.eigvals(a0)),
                               rtol=1e-8, atol=1e-8)
    # Schur: A = Z T Z^T with T quasi-triangular.
    np.testing.assert_allclose(z @ a @ z.T, a0, atol=1e-9)
    assert np.allclose(np.tril(a, -2), 0)
    np.testing.assert_allclose(z.T @ z, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [2, 6, 15, 40])
def test_hseqr_complex_eigenvalues(rng, n):
    a0 = rand_matrix(rng, n, n, np.complex128)
    a = a0.copy()
    tau = gehrd(a)
    z = orghr(a, tau)
    for j in range(n - 2):
        a[j + 2:, j] = 0
    w, info = hseqr(a, z)
    assert info == 0
    np.testing.assert_allclose(sorted_eigs(w),
                               sorted_eigs(np.linalg.eigvals(a0)),
                               rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(z @ a @ np.conj(z.T), a0, atol=1e-9)
    assert np.allclose(np.tril(a, -1), 0)


def test_hseqr_defective_jordan_block():
    # Jordan block: classic hard case (eigenvalues equal, defective).
    n = 6
    a = np.eye(n) * 2 + np.diag(np.ones(n - 1), 1)
    h = a.copy()
    w, info = hseqr(h, None, wantt=False)
    assert info == 0
    np.testing.assert_allclose(np.sort(w.real), np.full(n, 2.0), atol=1e-2)
    assert np.allclose(w.imag, 0, atol=1e-2)


@pytest.mark.parametrize("dtype_", [np.float64, np.complex128])
def test_geev_eigenpairs(rng, dtype_):
    n = 20
    a0 = rand_matrix(rng, n, n, dtype_)
    w, vl, vr, info = geev(a0.copy(), jobvl="V", jobvr="V")
    assert info == 0
    ref = np.linalg.eigvals(a0)
    np.testing.assert_allclose(sorted_eigs(w), sorted_eigs(ref), atol=1e-8)
    ac = a0.astype(complex)
    for j in range(n):
        assert np.linalg.norm(ac @ vr[:, j] - w[j] * vr[:, j]) < 1e-7
        assert np.linalg.norm(np.conj(vl[:, j]) @ ac
                              - w[j] * np.conj(vl[:, j])) < 1e-7


def test_geev_conjugate_pairs_real_input(rng):
    # Rotation-like matrix: guaranteed complex pairs.
    a = np.array([[0.0, -2.0], [2.0, 0.0]])
    w, vl, vr, info = geev(a.copy(), jobvr="V")
    assert info == 0
    np.testing.assert_allclose(sorted_eigs(w), [-2j, 2j], atol=1e-12)


def test_gees_schur_form(rng):
    n = 15
    a0 = rand_matrix(rng, n, n, np.float64)
    t = a0.copy()
    w, vs, sdim, info = gees(t, jobvs="V")
    assert info == 0
    np.testing.assert_allclose(vs @ t @ vs.T, a0, atol=1e-9)
    np.testing.assert_allclose(vs.T @ vs, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(sorted_eigs(w),
                               sorted_eigs(np.linalg.eigvals(a0)), atol=1e-8)


def test_gees_with_selection(rng):
    n = 12
    a0 = rand_matrix(rng, n, n, np.float64)
    t = a0.copy()
    w, vs, sdim, info = gees(t, jobvs="V",
                             select=lambda lam: lam.real > 0)
    assert info == 0
    ref = np.linalg.eigvals(a0)
    expect = np.sum(ref.real > 0)
    # 2x2 blocks move as units, so sdim can exceed by pair-partners only.
    assert sdim >= expect - 1 and sdim <= expect + 1
    # Leading sdim eigenvalues of T include all the selected ones.
    lead = eig_of_schur(t)[:sdim]
    assert np.sum(lead.real > 0) == expect
    np.testing.assert_allclose(vs @ t @ vs.T, a0, atol=1e-8)


def test_gees_complex_selection(rng):
    n = 10
    a0 = rand_matrix(rng, n, n, np.complex128)
    t = a0.copy()
    w, vs, sdim, info = gees(t, jobvs="V",
                             select=lambda lam: abs(lam) > 0.8)
    assert info == 0
    ref = np.linalg.eigvals(a0)
    assert sdim == np.sum(np.abs(ref) > 0.8)
    lead = np.diag(t)[:sdim]
    assert np.all(np.abs(lead) > 0.8)
    np.testing.assert_allclose(vs @ t @ np.conj(vs.T), a0, atol=1e-8)


def test_trevc_right_vectors_triangular(rng):
    n = 8
    t = np.triu(rand_matrix(rng, n, n, np.complex128))
    t[np.arange(n), np.arange(n)] += np.arange(n) * 2  # distinct eigs
    v = trevc(t, None, side="R")
    for j in range(n):
        lam = t[j, j]
        assert np.linalg.norm(t @ v[:, j] - lam * v[:, j]) < 1e-8


def test_trevc_left_vectors(rng):
    n = 8
    t = np.triu(rand_matrix(rng, n, n, np.complex128))
    t[np.arange(n), np.arange(n)] += np.arange(n) * 2
    v = trevc(t, None, side="L")
    for j in range(n):
        lam = t[j, j]
        assert np.linalg.norm(np.conj(v[:, j]) @ t
                              - lam * np.conj(v[:, j])) < 1e-8


def test_trexc_moves_eigenvalue(rng):
    n = 8
    a0 = rand_matrix(rng, n, n, np.float64)
    t = a0.copy()
    w, vs, sdim, info = gees(t, jobvs="V")
    blocks = schur_blocks(t)
    # Move the last block to the front.
    start, size = blocks[-1]
    target = eig_of_schur(t)[start]
    info = trexc(t, vs, start, 0)
    assert info == 0
    np.testing.assert_allclose(vs @ t @ vs.T, a0, atol=1e-8)
    lead = eig_of_schur(t)[0]
    candidates = eig_of_schur(t)[:2]
    assert np.min(np.abs(candidates - target)) < 1e-8


@pytest.mark.parametrize("isgn", [1, -1])
@pytest.mark.parametrize("dtype_", [np.float64, np.complex128])
def test_trsyl(rng, isgn, dtype_):
    m, n = 6, 5
    a0 = rand_matrix(rng, m, m, dtype_)
    b0 = rand_matrix(rng, n, n, dtype_)
    ta = a0.copy()
    wa, qa, _, ia = gees(ta, jobvs="V")
    tb = b0.copy()
    wb, qb, _, ib = gees(tb, jobvs="V")
    c = rand_matrix(rng, m, n, dtype_)
    c0 = c.copy()
    scale, info = trsyl(ta, tb, c, isgn=isgn)
    resid = ta @ c + isgn * (c @ tb) - scale * c0
    assert np.abs(resid).max() < 1e-8


def test_trsen_condition_numbers(rng):
    n = 10
    a0 = rand_matrix(rng, n, n, np.float64)
    t = a0.copy()
    w, vs, sdim, info = gees(t, jobvs="V")
    select = np.zeros(n, dtype=bool)
    select[:3] = True  # pick current leading blocks (no moves needed)
    w2, sdim2, s_cond, sep, rinfo = trsen(t, vs, select.copy())
    assert 0 < s_cond <= 1
    assert sep >= 0
    np.testing.assert_allclose(vs @ t @ vs.T, a0, atol=1e-8)


def test_geesx(rng):
    n = 10
    a0 = rand_matrix(rng, n, n, np.float64)
    t = a0.copy()
    w, vs, sdim, rconde, rcondv, info = geesx(
        t, jobvs="V", select=lambda lam: lam.real < 0, sense="B")
    assert info == 0
    assert 0 < rconde <= 1
    np.testing.assert_allclose(vs @ t @ vs.T, a0, atol=1e-8)


def test_geevx(rng):
    n = 12
    a0 = rand_matrix(rng, n, n, np.float64)
    (w, vl, vr, ilo, ihi, scale, abnrm, rconde, rcondv,
     info) = geevx(a0.copy(), jobvl="V", jobvr="V", sense="B")
    assert info == 0
    np.testing.assert_allclose(sorted_eigs(w),
                               sorted_eigs(np.linalg.eigvals(a0)),
                               atol=1e-8)
    assert np.all((rconde > 0) & (rconde <= 1 + 1e-12))
    ac = a0.astype(complex)
    for j in range(n):
        assert np.linalg.norm(ac @ vr[:, j] - w[j] * vr[:, j]) < 1e-7


def test_geevx_condition_number_meaningful(rng):
    # A nearly-defective matrix has tiny eigenvalue condition numbers.
    eps = 1e-8
    a = np.array([[1.0, 1.0], [eps, 1.0]])
    # balanc='N': diagonal balancing would genuinely repair this matrix's
    # conditioning (that is what balancing is for), so measure it raw.
    *_, rconde, rcondv, info = geevx(a.copy(), balanc="N", sense="E")
    assert info == 0
    assert np.all(rconde < 1e-3)  # highly sensitive eigenvalues
    b = np.diag([1.0, 2.0])  # perfectly conditioned
    *_, rconde_b, rcondv_b, info_b = geevx(b.copy(), sense="E")
    assert np.allclose(rconde_b, 1.0)
