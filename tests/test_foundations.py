"""Foundation modules: storage layouts, machine parameters, ilaenv/config,
norms and auxiliaries, the condition estimator, precision mapping."""

import numpy as np
import pytest

from repro import config
from repro.core.auxmod import la_ws_gels, la_ws_gelss, lsame
from repro.core.precision import DP, SP, is_complex, real_dtype_of, same_kind, wp
from repro.lapack77.lacon import lacon
from repro.lapack77.lautil import (lacpy, langt, lanhs, lansp, lanst,
                                   lantr, lapy2, lapy3, larnv, laset,
                                   lassq, laswp)
from repro.lapack77.machine import lamch
from repro.storage import (band_to_full, full_to_band, pack, packed_index,
                           packed_size, unpack)

from .conftest import rand_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestMachine:
    def test_eps_values(self):
        assert lamch("E", np.float32) == np.finfo(np.float32).eps
        assert lamch("E", np.float64) == np.finfo(np.float64).eps
        # Complex dtypes report their real component's parameters.
        assert lamch("E", np.complex64) == np.finfo(np.float32).eps

    def test_safe_min_invertible(self):
        for dt in (np.float32, np.float64):
            s = lamch("S", dt)
            assert np.isfinite(1.0 / s)

    def test_overflow_underflow(self):
        assert lamch("O", np.float64) == np.finfo(np.float64).max
        assert lamch("U", np.float64) == np.finfo(np.float64).tiny
        assert lamch("B", np.float64) == 2.0

    def test_unknown_query_raises(self):
        with pytest.raises(ValueError):
            lamch("Q")


class TestConfig:
    def test_ilaenv_block_sizes(self):
        assert config.ilaenv(1, "getrf") >= 1
        assert config.ilaenv(1, "SGETRF") == config.ilaenv(1, "getrf")
        assert config.ilaenv(1, "unknown_routine") == 1

    def test_ilaenv_minimum_block_and_crossover(self):
        for name in ("getrf", "DPOTRF", "geqrf", "zhetrd"):
            assert config.ilaenv(2, name) == 2
        for name in ("getrf", "SGETRF", "potrf", "cpotrf"):
            assert config.ilaenv(3, name) == 96
        for name in ("getri", "dgeqrf", "sytrd", "gbtrf"):
            assert config.ilaenv(3, name) == 128
        assert config.ilaenv(2, "unknown_routine") == 2
        assert config.ilaenv(3, "unknown_routine") == 0
        # Block-size overrides leave the crossover alone.
        with config.block_size_override("getrf", 7):
            assert config.ilaenv(3, "getrf") == 96

    def test_override_restores(self):
        old = config.get_block_size("getrf")
        with config.block_size_override("getrf", 7):
            assert config.get_block_size("getrf") == 7
        assert config.get_block_size("getrf") == old

    def test_set_block_size_validates(self):
        with pytest.raises(ValueError):
            config.set_block_size("getrf", 0)


class TestPrecision:
    def test_wp_mapping(self):
        assert wp(SP) == np.float32
        assert wp(DP) == np.float64
        assert wp(SP, complex=True) == np.complex64
        assert wp(DP, complex=True) == np.complex128
        with pytest.raises(ValueError):
            wp("QP")

    def test_real_dtype_of(self):
        assert real_dtype_of(np.complex128) == np.float64
        assert real_dtype_of(np.float32) == np.float32

    def test_same_kind(self):
        a = np.zeros(2, np.float32)
        b = np.zeros(2, np.complex64)
        c = np.zeros(2, np.float64)
        assert same_kind(a, b)
        assert not same_kind(a, c)

    def test_is_complex(self):
        assert is_complex(np.zeros(1, complex))
        assert not is_complex(np.zeros(1))


class TestAuxmod:
    def test_lsame(self):
        assert lsame("u", "U") and lsame("N", "n")
        assert not lsame("U", "L")
        assert not lsame("", "U")

    def test_workspace_queries_positive(self):
        assert la_ws_gels("S", 100, 50, 10) > 50
        assert la_ws_gelss("D", 100, 50, 10) > 100


class TestStorage:
    def test_packed_size_and_index(self):
        assert packed_size(4) == 10
        # Column-major packing of the upper triangle.
        assert packed_index(0, 0, 4, "U") == 0
        assert packed_index(0, 1, 4, "U") == 1
        assert packed_index(1, 1, 4, "U") == 2
        assert packed_index(0, 0, 4, "L") == 0
        assert packed_index(3, 0, 4, "L") == 3
        with pytest.raises(IndexError):
            packed_index(2, 1, 4, "U")
        with pytest.raises(IndexError):
            packed_index(1, 2, 4, "L")

    @pytest.mark.parametrize("uplo", ["U", "L"])
    def test_pack_unpack_hermitian(self, rng, uplo):
        n = 6
        a = rand_matrix(rng, n, n, np.complex128)
        a = a + np.conj(a.T)
        np.fill_diagonal(a, a.diagonal().real)
        ap = pack(a, uplo)
        assert ap.shape == (packed_size(n),)
        full = unpack(ap, n, uplo=uplo, hermitian=True)
        np.testing.assert_allclose(full, a)

    def test_pack_requires_square(self, rng):
        with pytest.raises(ValueError):
            pack(rand_matrix(rng, 3, 4, np.float64))

    def test_band_rectangular(self, rng):
        m, n, kl, ku = 7, 5, 2, 1
        a = rand_matrix(rng, m, n, np.float64)
        for i in range(m):
            for j in range(n):
                if j - i > ku or i - j > kl:
                    a[i, j] = 0
        ab = full_to_band(a, kl, ku)
        assert ab.shape == (kl + ku + 1, n)
        np.testing.assert_array_equal(band_to_full(ab, m, n, kl, ku), a)


class TestLautil:
    def test_laswp_roundtrip(self, rng):
        a = rand_matrix(rng, 6, 4, np.float64)
        a0 = a.copy()
        ipiv = np.array([2, 3, 2, 5, 4, 5])
        laswp(a, ipiv)
        laswp(a, ipiv, forward=False)
        np.testing.assert_array_equal(a, a0)

    def test_lacpy_triangles(self, rng):
        a = rand_matrix(rng, 5, 5, np.float64)
        b = np.zeros_like(a)
        lacpy(a, b, uplo="U")
        np.testing.assert_array_equal(np.triu(b), np.triu(a))
        assert np.all(np.tril(b, -1) == 0)

    def test_laset(self):
        a = np.ones((4, 5))
        laset(a, alpha=2.0, beta=7.0)
        assert np.all(a.diagonal() == 7.0)
        assert np.all(a[np.triu_indices(4, 1, 5)] == 2.0)

    def test_lassq_overflow_safe(self):
        scale, sumsq = lassq(np.array([3e300, 4e300]))
        assert np.isclose(scale * np.sqrt(sumsq), 5e300, rtol=1e-12)

    def test_lapy(self):
        assert lapy2(3, 4) == 5
        assert np.isclose(lapy3(1, 2, 2), 3)
        assert lapy3(0, 0, 0) == 0

    def test_larnv_distributions(self, rng):
        v1 = larnv(1, 1000, rng=rng)
        assert 0 <= v1.min() and v1.max() <= 1
        v2 = larnv(2, 1000, rng=rng)
        assert v2.min() < -0.5 and v2.max() > 0.5
        v3 = larnv(3, 1000, dtype=np.complex128, rng=rng)
        assert np.iscomplexobj(v3)
        with pytest.raises(ValueError):
            larnv(4, 5, rng=rng)

    def test_structured_norms(self, rng):
        n = 6
        dl = rng.standard_normal(n - 1)
        d = rng.standard_normal(n)
        du = rng.standard_normal(n - 1)
        full = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        assert np.isclose(langt("1", dl, d, du), np.linalg.norm(full, 1))
        assert np.isclose(lanst("I", d, dl), np.linalg.norm(
            np.diag(d) + np.diag(dl, 1) + np.diag(dl, -1), np.inf))
        h = np.triu(rng.standard_normal((n, n)), -1)
        assert np.isclose(lanhs("F", h), np.linalg.norm(h, "fro"))
        t = np.triu(rng.standard_normal((n, n)))
        assert np.isclose(lantr("M", t, "U"), np.abs(t).max())
        # Unit-diagonal triangular norm replaces the diagonal by ones.
        t2 = t.copy()
        np.fill_diagonal(t2, 1.0)
        assert np.isclose(lantr("1", t, "U", diag="U"),
                          np.linalg.norm(np.triu(t2), 1))
        sym = rng.standard_normal((n, n))
        sym = sym + sym.T
        ap = pack(sym, "U")
        assert np.isclose(lansp("1", ap, n, "U"), np.linalg.norm(sym, 1))


class TestLacon:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_estimates_one_norm(self, rng, n):
        a = rng.standard_normal((n, n)) + np.eye(n) * 2
        est = lacon(n, lambda x: a @ x, lambda x: a.T @ x)
        true = np.linalg.norm(a, 1)
        assert true / 3 <= est <= true * 1.01

    def test_complex(self, rng):
        n = 20
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        est = lacon(n, lambda x: a @ x, lambda x: np.conj(a.T) @ x,
                    dtype=np.complex128)
        true = np.linalg.norm(a, 1)
        assert true / 3 <= est <= true * 1.01

    def test_zero_dimension(self):
        assert lacon(0, None, None) == 0.0
