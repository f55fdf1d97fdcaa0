import math

import numpy as np
import pytest

from submig import forward as fwd
from submig import geometry as geo
from submig import spectral


def sigma1_inclusion(eps=5.0, mu=5.0):
    return geo.ThinInclusion(curve=geo.get_curve("sigma1"), permittivity=eps, permeability=mu)


def far_field_entry(j, l, dirs, omega, inclusion, samples):
    """Per-entry oracle: MSR entry for observation -theta_j and incidence theta_l."""
    n = dirs.count
    if not (0 <= j < n and 0 <= l < n):
        raise IndexError(f"direction indices ({j}, {l}) out of range for N={n}")
    tj, tl = dirs.thetas[j], dirs.thetas[l]
    eps0, mu0 = 1.0, 1.0  # the unit background
    mu = inclusion.permeability
    c0 = inclusion.permittivity - eps0
    ev_t = 2.0 * (1.0 / mu - 1.0 / mu0)
    ev_n = 2.0 * (1.0 / mu0 - mu / mu0**2)
    total = 0.0 + 0.0j
    for smp in samples:
        bracket = (
            c0
            + ev_t * (tj @ smp.tangent) * (tl @ smp.tangent)
            + ev_n * (tj @ smp.normal) * (tl @ smp.normal)
        )
        total += smp.weight * bracket * np.exp(1j * omega * ((tj + tl) @ smp.point))
    h = inclusion.half_thickness
    return h * omega**2 * (1.0 + 1.0j) / (4.0 * math.sqrt(omega * math.pi)) * total


class TestMakeDirections:
    def test_n4_exact(self):
        d = fwd.make_directions(4)
        expected = np.array([[-1, 0], [0, -1], [1, 0], [0, 1]], dtype=float)
        assert np.allclose(d.thetas, expected, atol=1e-15)

    def test_n48_equiangular_units(self):
        d = fwd.make_directions(48)
        assert d.count == 48
        assert np.allclose(np.hypot(d.thetas[:, 0], d.thetas[:, 1]), 1.0, atol=1e-14)
        ang = np.unwrap(np.arctan2(d.thetas[:, 1], d.thetas[:, 0]))
        assert np.allclose(np.diff(ang), 2 * math.pi / 48, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 48])
    def test_directions_sum_to_zero(self, n):
        assert np.max(np.abs(fwd.make_directions(n).thetas.sum(axis=0))) < 1e-12

    def test_needs_two(self):
        with pytest.raises(ValueError):
            fwd.make_directions(1)


class TestFrequencySet:
    def test_band(self):
        fs = fwd.FrequencySet.from_band(0.5, 0.3, 10)
        assert fs.count == 10
        assert fs.wavelengths[0] == 0.5 and fs.wavelengths[-1] == 0.3
        assert np.all(np.diff(fs.omegas) > 0.0)

    def test_single(self):
        fs = fwd.FrequencySet.from_band(0.5, 0.3, 1)
        assert fs.wavelengths.tolist() == [0.5]

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            fwd.FrequencySet(wavelengths=np.array([0.3, 0.5]))


class TestFarFieldEntry:
    def test_zero_contrast(self):
        inc = geo.ThinInclusion(
            curve=geo.get_curve("sigma1"), permittivity=1.0, permeability=1.0
        )
        dirs = fwd.make_directions(8)
        samples = geo.sample_curve(inc, 3)
        assert far_field_entry(0, 5, dirs, 12.0, inc, samples) == 0.0

    def test_symmetric_in_indices(self):
        inc = sigma1_inclusion()
        dirs = fwd.make_directions(8)
        samples = geo.sample_curve(inc, 3)
        a = far_field_entry(2, 6, dirs, 12.0, inc, samples)
        b = far_field_entry(6, 2, dirs, 12.0, inc, samples)
        assert a == pytest.approx(b, rel=1e-14)

    def test_single_sample_at_origin_closed_form(self):
        # phase factor is 1, so the entry is the prefactor times the bracket
        inc = sigma1_inclusion(eps=5.0, mu=5.0)
        dirs = fwd.make_directions(6)
        t = np.array([1.0, 0.0])
        n = np.array([0.0, 1.0])
        smp = geo.CurveSample(point=np.zeros(2), tangent=t, normal=n, weight=1.3)
        omega = 10.0
        j, l = 1, 4
        got = far_field_entry(j, l, dirs, omega, inc, [smp])
        tj, tl = dirs.thetas[j], dirs.thetas[l]
        bracket = (
            4.0
            + 2.0 * (1 / 5 - 1) * (tj @ t) * (tl @ t)
            + 2.0 * (1 - 5) * (tj @ n) * (tl @ n)
        )
        pref = 0.015 * omega**2 * (1 + 1j) / (4 * math.sqrt(omega * math.pi))
        assert got == pytest.approx(pref * 1.3 * bracket, rel=1e-14)

    def test_index_out_of_range(self):
        inc = sigma1_inclusion()
        dirs = fwd.make_directions(4)
        samples = geo.sample_curve(inc, 2)
        with pytest.raises(IndexError):
            far_field_entry(0, 4, dirs, 12.0, inc, samples)


class TestAssembleMsr:
    def test_zero_contrast_zero_matrix(self):
        inc = geo.ThinInclusion(
            curve=geo.get_curve("sigma1"), permittivity=1.0, permeability=1.0
        )
        k = fwd.assemble_msr(fwd.make_directions(16), 2 * math.pi / 0.5, inc)
        assert np.all(k.entries == 0.0)

    def test_exact_symmetry(self):
        k = fwd.assemble_msr(fwd.make_directions(48), 2 * math.pi / 0.5, sigma1_inclusion())
        asym = np.linalg.norm(k.entries - k.entries.T)
        assert asym <= 1e-12 * np.linalg.norm(k.entries)

    def test_matches_entrywise_formula(self):
        inc = sigma1_inclusion()
        dirs = fwd.make_directions(12)
        omega = 2 * math.pi / 0.5
        k = fwd.assemble_msr(dirs, omega, inc)
        m = geo.effective_segment_count(inc.curve, 2 * math.pi / omega)
        samples = geo.sample_curve(inc, m)
        for j, l in [(0, 0), (3, 7), (11, 2)]:
            assert k.entries[j, l] == pytest.approx(
                far_field_entry(j, l, dirs, omega, inc, samples), rel=1e-12
            )

    def test_effective_rank_tracks_segment_count(self):
        # permittivity contrast only: one outer product per segment point
        inc = sigma1_inclusion(eps=5.0, mu=1.0)
        k = fwd.assemble_msr(fwd.make_directions(48), 2 * math.pi / 0.5, inc)
        m = geo.effective_segment_count(inc.curve, 0.5)
        rank = spectral.effective_rank(spectral.svd(k), 0.01)
        assert abs(rank - m) <= 2

    def test_rank_bounded_by_3m(self):
        inc = sigma1_inclusion()
        for lam in (0.5, 0.4, 0.3):
            k = fwd.assemble_msr(fwd.make_directions(48), 2 * math.pi / lam, inc)
            f = spectral.svd(k)
            m = geo.effective_segment_count(inc.curve, lam)
            rank = spectral.effective_rank(f, 0.01)
            assert 1 <= rank <= 3 * m

    def test_linearity_in_permittivity_contrast(self):
        dirs = fwd.make_directions(16)
        omega = 2 * math.pi / 0.5
        base = geo.ThinInclusion(
            curve=geo.get_curve("sigma1"), permittivity=2.0, permeability=1.0
        )
        double = geo.ThinInclusion(
            curve=geo.get_curve("sigma1"), permittivity=3.0, permeability=1.0
        )
        k1 = fwd.assemble_msr(dirs, omega, base).entries
        k2 = fwd.assemble_msr(dirs, omega, double).entries
        assert np.allclose(k2, 2.0 * k1, rtol=1e-12)

    def test_prefactor_frequency_scaling(self):
        # single point sample at the origin: bracket is omega-independent
        inc = sigma1_inclusion()
        dirs = fwd.make_directions(8)
        smp = geo.CurveSample(
            point=np.zeros(2),
            tangent=np.array([1.0, 0.0]),
            normal=np.array([0.0, 1.0]),
            weight=1.0,
        )
        norms = []
        for omega in (5.0, 10.0, 20.0):
            k = np.array(
                [
                    [far_field_entry(j, l, dirs, omega, inc, [smp]) for l in range(8)]
                    for j in range(8)
                ]
            )
            norms.append(np.linalg.norm(k))
        assert norms[1] / norms[0] == pytest.approx(2.0**1.5, rel=1e-12)
        assert norms[2] / norms[1] == pytest.approx(2.0**1.5, rel=1e-12)

    def test_prefactor_must_be_nonzero_and_finite(self):
        dirs = fwd.make_directions(8)
        # omega^2 underflows to 0 below omega ~ 2e-162: the matrix would be all zeros
        with pytest.raises(fwd.ConfigurationError, match="underflows to 0.*lambda_max"):
            fwd.assemble_msr(dirs, 2 * math.pi / 1e300, sigma1_inclusion())
        thick = geo.ThinInclusion(curve=geo.get_curve("sigma1"), half_thickness=1e308)
        with pytest.raises(fwd.ConfigurationError, match="overflows.*h is too large"):
            fwd.assemble_msr(dirs, 2 * math.pi / 0.5, thick)
        # a subnormal omega^2 (about 4e-321) still gives a nonzero matrix
        k = fwd.assemble_msr(dirs, 2 * math.pi / 1e161, sigma1_inclusion())
        assert np.any(k.entries != 0.0)

    def test_resolution_violation(self):
        with pytest.raises(fwd.ConfigurationError):
            fwd.assemble_msr(fwd.make_directions(4), 2 * math.pi / 0.3, sigma1_inclusion())


class TestAddAwgn:
    def _clean(self):
        return fwd.assemble_msr(fwd.make_directions(24), 2 * math.pi / 0.5, sigma1_inclusion())

    def test_no_noise_sentinel(self):
        k = self._clean()
        out = fwd.add_awgn(k, math.inf, 3)
        assert np.array_equal(out.entries, k.entries)
        assert out.provenance == "clean"

    def test_seeded_determinism(self):
        k = self._clean()
        a = fwd.add_awgn(k, 10.0, 42)
        b = fwd.add_awgn(k, 10.0, 42)
        assert np.array_equal(a.entries, b.entries)
        assert a.provenance == "noisy" and a.snr_db == 10.0 and a.seed == 42

    def test_different_seeds_differ(self):
        k = self._clean()
        assert not np.array_equal(
            fwd.add_awgn(k, 10.0, 0).entries, fwd.add_awgn(k, 10.0, 1).entries
        )

    def test_empirical_snr_calibration(self):
        k = self._clean()
        ps = np.mean(np.abs(k.entries) ** 2)
        noise_power = []
        for seed in range(200):
            noisy = fwd.add_awgn(k, 10.0, seed)
            noise_power.append(np.mean(np.abs(noisy.entries - k.entries) ** 2))
        snr = 10.0 * math.log10(ps / np.mean(noise_power))
        assert 9.5 <= snr <= 10.5

    def test_invalid_snr(self):
        k = self._clean()
        with pytest.raises(ValueError):
            fwd.add_awgn(k, math.nan, 0)
        with pytest.raises(ValueError):
            fwd.add_awgn(k, -math.inf, 0)

    def test_overflowing_noise_factor_is_a_value_error(self):
        # 10^(-snr_db/10) overflows a double below about -3082.5 dB
        k = self._clean()
        with pytest.raises(ValueError, match="snr_db"):
            fwd.add_awgn(k, -4000.0, 0)
        with pytest.raises(ValueError, match="snr_db"):
            fwd.add_awgn(k, -3083.0, 0)
        assert np.all(np.isfinite(fwd.add_awgn(k, -3000.0, 0).entries))

    @pytest.mark.parametrize("h", [1e-200, 1e-160])
    def test_underflowing_signal_power_is_a_value_error(self, h):
        # entries of ~4e-200 square to 0; at h = 1e-160 the power is subnormal
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma1"), half_thickness=h)
        k = fwd.assemble_msr(fwd.make_directions(48), 2 * math.pi / 0.5, inc)
        assert np.any(k.entries)
        with pytest.raises(ValueError, match="signal power"):
            fwd.add_awgn(k, 10.0, 0)
        assert np.array_equal(fwd.add_awgn(k, math.inf, 0).entries, k.entries)

    def test_zero_matrix_gets_zero_noise(self):
        k = self._clean()
        zero = fwd.MsrMatrix(k.omega, np.zeros_like(k.entries), k.dirs)
        out = fwd.add_awgn(zero, 10.0, 0)
        assert not np.any(out.entries) and out.provenance == "noisy"

    def test_normal_power_noise_follows_its_formula(self):
        k = self._clean()
        power = float(np.mean(np.abs(k.entries) ** 2))
        sigma = math.sqrt(power * 10.0 ** (-10.0 / 10.0) / 2.0)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        n = k.dirs.count
        want = k.entries + sigma * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.array_equal(fwd.add_awgn(k, 10.0, 5).entries, want)

    def test_stream_seed_derivation(self):
        a = fwd.derive_stream_seed(0, 0)
        b = fwd.derive_stream_seed(0, 1)
        c = fwd.derive_stream_seed(1, 0)
        assert len({a, b, c}) == 3
        assert fwd.derive_stream_seed(0, 0) == a


class TestSerialization:
    def test_roundtrip_lossless(self, tmp_path):
        k = fwd.add_awgn(
            fwd.assemble_msr(fwd.make_directions(12), 2 * math.pi / 0.5, sigma1_inclusion()),
            10.0,
            7,
        )
        path = tmp_path / "msr.txt"
        fwd.save_msr(k, path)
        back = fwd.load_msr(path)
        assert np.array_equal(back.entries, k.entries)
        assert back.omega == k.omega
        assert back.provenance == "noisy"
        assert back.snr_db == 10.0
        assert back.seed == 7

    def test_rows_match_per_entry_formatting(self, tmp_path):
        n = 4
        rng = np.random.default_rng(3)
        entries = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        entries[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(0.1, -1.0 / 3.0)]
        entries[1, 0] = complex(123456789.01234567, -9.8765432109876543e-300)
        # column-major entries: the writer must not depend on the memory layout
        k = fwd.MsrMatrix(2.0, np.asfortranarray(entries), fwd.make_directions(n))
        path = tmp_path / "msr.txt"
        fwd.save_msr(k, path)
        rows = path.read_text().splitlines()[6:]
        want = [" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in entries]
        assert rows == want
        assert rows[0].split()[:4] == ["-0", "0", "0", "-0"]

    def test_header_versioned(self, tmp_path):
        k = fwd.assemble_msr(fwd.make_directions(8), 2 * math.pi / 0.5, sigma1_inclusion())
        path = tmp_path / "msr.txt"
        fwd.save_msr(k, path)
        assert path.read_text().splitlines()[0] == "# submig msr v1"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            fwd.load_msr(path)
