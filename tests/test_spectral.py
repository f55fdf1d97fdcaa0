import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submig import forward as fwd
from submig import geometry as geo
from submig import spectral


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def lead_entries(u):
    # the documented lead: lowest index with magnitude >= (1 - 1e-12) * max
    mag = np.abs(u)
    tied = mag >= (1.0 - 1e-12) * mag.max(axis=0)
    return u[np.argmax(tied, axis=0), np.arange(u.shape[1])]


def check_contract(k, factors, tol=1e-10):
    n = k.shape[0]
    recon = (factors.u * factors.s) @ factors.v.conj().T
    scale = max(np.linalg.norm(k), 1.0)
    assert np.linalg.norm(recon - k) <= tol * scale
    assert np.max(np.abs(factors.u.conj().T @ factors.u - np.eye(n))) <= tol
    assert np.max(np.abs(factors.v.conj().T @ factors.v - np.eye(n))) <= tol
    assert np.all(np.diff(factors.s) <= 0.0)
    assert np.all(factors.s >= 0.0)


class TestSvd:
    def test_identity(self):
        f = spectral.svd(np.eye(4, dtype=complex))
        assert np.allclose(f.s, 1.0, atol=1e-14)

    def test_rank_one_outer(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = spectral.svd(np.outer(a, b.conj()))
        assert f.s[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)
        assert np.all(f.s[1:] < 1e-12 * f.s[0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_8x8_against_eigh_oracle(self, seed):
        k = random_complex(8, seed)
        f = spectral.svd(k)
        check_contract(k, f)
        # independent oracle: eigenvalues of K^H K are squared singular values
        eigs = np.sort(np.linalg.eigvalsh(k.conj().T @ k))[::-1]
        oracle = np.sqrt(np.clip(eigs, 0.0, None))
        assert np.max(np.abs(f.s - oracle) / oracle[0]) < 1e-8

    def test_zero_matrix(self):
        f = spectral.svd(np.zeros((5, 5), dtype=complex))
        assert np.all(f.s == 0.0)
        check_contract(np.zeros((5, 5), dtype=complex), f)
        assert spectral.effective_rank(f, 0.01) == 0

    def test_phase_convention(self):
        f = spectral.svd(random_complex(6, 11))
        lead = lead_entries(f.u)
        assert np.all(np.abs(lead.imag) < 1e-12 * np.abs(lead))
        assert np.all(lead.real > 0.0)

    def test_phase_convention_with_exactly_tied_magnitudes(self):
        # K = Q diag(s), Q the unitary 4-point DFT: every entry of every left
        # vector has magnitude 1/2, so the lead is row 0 and U is Q itself
        n = 4
        q = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / 2.0
        f = spectral.svd(q * np.array([4.0, 3.0, 2.0, 1.0]))
        assert np.all(np.abs(f.u[0].imag) <= 1e-15 * f.u[0].real)
        assert np.max(np.abs(f.u - q)) < 1e-14

    def test_unit_scalar_invariance(self):
        k = random_complex(7, 5)
        s1 = spectral.svd(k).s
        s2 = spectral.svd(np.exp(0.7j) * k).s
        assert np.max(np.abs(s1 - s2)) < 1e-10 * s1[0]

    def test_determinism(self):
        k = random_complex(9, 13)
        f1 = spectral.svd(k)
        f2 = spectral.svd(k)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral.svd(np.ones((3, 4)))
        bad = np.ones((3, 3), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            spectral.svd(bad)

    def test_rejects_an_overflowing_singular_value(self):
        # finite entries whose largest singular value, 3e308, is not a float
        with pytest.raises(ValueError, match="largest singular value overflows"):
            spectral.svd(np.full((3, 3), 1e308, dtype=complex))

    @given(st.integers(0, 10_000), st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_contract_property(self, seed, n):
        k = random_complex(n, seed)
        check_contract(k, spectral.svd(k))


class TestRankDeficientMsr:
    # clean sigma1 data: far fewer nonzero singular values than directions
    @pytest.fixture(scope="class", params=[0.5, 0.3, 1.5])
    def factors(self, request):
        dirs = fwd.make_directions(48)
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma1"))
        k = fwd.assemble_msr(dirs, 2 * np.pi / request.param, inc)
        return k.entries, spectral.svd(k)

    def test_contract(self, factors):
        k, f = factors
        check_contract(k, f, tol=1e-12)

    def test_tiny_singular_values_exactly_zero(self, factors):
        k, f = factors
        cutoff = k.shape[0] * np.finfo(float).eps * f.s[0]
        assert np.all((f.s == 0.0) | (f.s > cutoff))
        raw = np.linalg.svd(k, compute_uv=False)
        assert np.count_nonzero(raw <= cutoff) > 0
        assert np.count_nonzero(f.s == 0.0) == np.count_nonzero(raw <= cutoff)
        assert np.count_nonzero(f.s) >= spectral.effective_rank(f, 0.01)

    def test_phase_convention_on_every_vector(self, factors):
        # clean data ties magnitudes to a few ulp (at 1.5, column 3 has rows
        # 6, 18, 30 and 42 within 4.3 eps), so the lead follows the rule
        _, f = factors
        lead = lead_entries(f.u)
        assert np.all(np.abs(lead.imag) <= 1e-15 * lead.real)

    def test_signal_projector_reproduces_matrix(self, factors):
        # U_m V_m^H carries the signal subspace whatever phases LAPACK chose
        k, f = factors
        m = np.count_nonzero(f.s)
        recon = (f.u[:, :m] * f.s[:m]) @ f.v[:, :m].conj().T
        assert np.linalg.norm(recon - k) <= 1e-12 * np.linalg.norm(k)


class TestEffectiveRank:
    def _factors(self, s):
        n = len(s)
        return spectral.SvdFactors(
            u=np.eye(n, dtype=complex), s=np.asarray(s, float), v=np.eye(n, dtype=complex)
        )

    def test_direct_count(self):
        assert spectral.effective_rank(self._factors([1.0, 0.5, 0.005]), 0.01) == 2

    def test_all_retained(self):
        assert spectral.effective_rank(self._factors([1.0, 1.0, 1.0]), 0.01) == 3

    def test_monotone_in_tau(self):
        f = self._factors([1.0, 0.3, 0.1, 0.02, 0.001])
        taus = [0.001, 0.01, 0.05, 0.2, 0.5]
        ranks = [spectral.effective_rank(f, t) for t in taus]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_tau_domain(self):
        f = self._factors([1.0])
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                spectral.effective_rank(f, bad)


def test_spectrum_csv_roundtrip(tmp_path):
    f = spectral.svd(random_complex(5, 3))
    path = tmp_path / "spec.csv"
    spectral.save_spectrum_csv(f, omega=12.5, path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# submig spectrum v1"
    assert lines[2] == "m,sigma,ratio"
    assert len(lines) == 3 + 5
    first = lines[3].split(",")
    assert float(first[1]) == f.s[0]
    assert float(first[2]) == 1.0
