import math
import tracemalloc

import numpy as np
import pytest

from submig import forward as fwd
from submig import geometry as geo
from submig import imaging as img
from submig import specfun, spectral

OMEGA_05 = 2 * math.pi / 0.5


def sigma1_inclusion(eps=5.0, mu=5.0):
    return geo.ThinInclusion(curve=geo.get_curve("sigma1"), permittivity=eps, permeability=mu)


def pipeline(inclusion, wavelengths, n=48, snr_db=math.inf, seed=0):
    dirs = fwd.make_directions(n)
    ks = []
    for i, lam in enumerate(wavelengths):
        k = fwd.assemble_msr(dirs, 2 * math.pi / lam, inclusion)
        if snr_db != math.inf:
            k = fwd.add_awgn(k, snr_db, fwd.derive_stream_seed(seed, i))
        ks.append((k, spectral.svd(k)))
    return dirs, ks


def multi(ks, grid, weight="MF", cfg=None, tau=0.01):
    sums = img.subspace_correlations(ks, grid, cfg, tau, (weight,))
    return img.map_multi(sums[weight], [k.omega for k, _ in ks], grid, weight)


def pointwise_correlation(k, factors, grid, cfg, tau=0.01):
    # the definition: full steering matrix, both subspace projections
    m = spectral.effective_rank(factors, tau)
    amps = cfg.c[0] + cfg.c[1] * k.dirs.thetas[:, 0] + cfg.c[2] * k.dirs.thetas[:, 1]
    w = amps * np.exp(1j * k.omega * (grid.points() @ k.dirs.thetas.T)) / np.linalg.norm(amps)
    left = w.conj() @ factors.u[:, :m]
    right = w.conj() @ factors.v[:, :m].conj()
    return np.sum(left * right, axis=1).reshape(grid.ny, grid.nx)


class TestTestVector:
    def test_monopole_components(self):
        dirs = fwd.make_directions(8)
        w = img.test_vector((0.0, 0.0), OMEGA_05, dirs, img.SteeringConfig(c=(1, 0, 0)))
        assert np.allclose(w, 1.0 / math.sqrt(8), atol=1e-14)

    def test_unit_norm(self):
        dirs = fwd.make_directions(48)
        w = img.test_vector((0.3, -0.1), OMEGA_05, dirs)
        assert np.vdot(w, w).real == pytest.approx(1.0, abs=1e-14)

    def test_component_formula(self):
        dirs = fwd.make_directions(48)
        z = np.array([0.3, -0.1])
        w = img.test_vector(z, OMEGA_05, dirs)
        amps = 1.0 + dirs.thetas[:, 1]
        expected = amps * np.exp(1j * OMEGA_05 * (dirs.thetas @ z))
        expected = expected / np.linalg.norm(amps)
        assert np.allclose(w, expected, atol=1e-14)
        # first direction is (-1, 0): amplitude 1, phase exp(-i omega 0.3)
        assert w[0] * np.linalg.norm(amps) == pytest.approx(
            np.exp(-1j * OMEGA_05 * 0.3), rel=1e-12
        )

    def test_degenerate_steering(self):
        dirs = fwd.DirectionSet(thetas=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(img.DegenerateSteeringError):
            img.test_vector((0.0, 0.0), OMEGA_05, dirs, img.SteeringConfig(c=(0, 0, 1)))

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError):
            img.SteeringConfig(c=(0.0, 0.0, 0.0))


class TestMapSingle:
    def test_zero_contrast_empty_subspace(self):
        inc = sigma1_inclusion(eps=1.0, mu=1.0)
        dirs, ks = pipeline(inc, [0.5], n=16)
        k, factors = ks[0]
        with pytest.raises(img.EmptySubspaceError):
            img.map_single(k, factors, img.ImageGrid(nx=21, ny=21))

    def test_synthetic_rank_one_peak_location(self):
        dirs = fwd.make_directions(32)
        target = np.array([0.31, -0.22])
        w = img.test_vector(target, OMEGA_05, dirs)
        k = fwd.MsrMatrix(omega=OMEGA_05, entries=np.outer(w, w), dirs=dirs)
        grid = img.ImageGrid(nx=81, ny=81)
        out = img.map_single(k, spectral.svd(k), grid)
        iy, ix = np.unravel_index(np.argmax(out.values), out.values.shape)
        cell = np.hypot(grid.xs[1] - grid.xs[0], grid.ys[1] - grid.ys[0])
        assert np.hypot(grid.xs[ix] - target[0], grid.ys[iy] - target[1]) <= cell

    def test_on_curve_dominates_median(self):
        # monopole-dominated contrast keeps the signal subspace at M vectors
        inc = sigma1_inclusion(eps=5.0, mu=1.0)
        dirs, ks = pipeline(inc, [0.5])
        k, factors = ks[0]
        grid = img.ImageGrid(nx=101, ny=101)
        out = img.map_single(k, factors, grid)
        samples = geo.sample_curve(inc, 5)
        on_curve = []
        for smp in samples:
            ix = np.argmin(np.abs(grid.xs - smp.point[0]))
            iy = np.argmin(np.abs(grid.ys - smp.point[1]))
            on_curve.append(out.values[iy, ix])
        assert min(on_curve) >= 5.0 * np.median(out.values)

    def test_tag_and_band(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        out = img.map_single(*ks[0], img.ImageGrid(nx=11, ny=11))
        assert out.tag == "SF"
        assert out.omegas == (OMEGA_05,)


def random_factors(n, omega, seed, sigma_min=1e-3):
    # an SVD of a generic matrix: U and V unrelated, so U_m V_m^H is not symmetric
    rng = np.random.default_rng(seed)
    u, v = (
        np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        for _ in range(2)
    )
    s = np.geomspace(1.0, sigma_min, n)
    k = fwd.MsrMatrix(omega=omega, entries=(u * s) @ v.conj().T, dirs=fwd.make_directions(n))
    return k, spectral.SvdFactors(u=u, s=s, v=v)


def expanded_axes(grid, omega):
    # whether each axis is interpolated from Chebyshev nodes at this band edge
    x = img._axis_nodes(grid.xs, omega * (grid.x_max - grid.x_min))[1] is not None
    y = img._axis_nodes(grid.ys, omega * (grid.y_max - grid.y_min))[1] is not None
    return x, y


def assert_sf_matches_pointwise(grid, cfg, expanded):
    _, ks = pipeline(sigma1_inclusion(), [0.4], n=32, snr_db=10.0, seed=5)
    assert expanded_axes(grid, ks[0][0].omega) == expanded
    got = img.map_single(*ks[0], grid, cfg).values
    want = np.abs(pointwise_correlation(*ks[0], grid, cfg))
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


class TestCorrelationKernel:
    @pytest.mark.parametrize(
        "grid, cfg",
        [
            (img.ImageGrid(nx=23, ny=37), img.SteeringConfig()),
            (img.ImageGrid(x_min=-2, x_max=0.5, nx=40, ny=16), img.SteeringConfig(c=(1, 1, 0))),
            (img.ImageGrid(nx=2, ny=2), img.SteeringConfig(c=(1, 0, 1))),
        ],
    )
    def test_matches_pointwise_definition(self, grid, cfg):
        assert_sf_matches_pointwise(grid, cfg, (False, False))

    # at lambda = 0.4 an axis of width 2 has K = 72 nodes, x in [-2, 0.5] 84,
    # x in [-0.3, 0.6] 44 and y in [-1.2, 0.9] 72
    @pytest.mark.parametrize(
        "grid, cfg, expanded",
        [
            (img.ImageGrid(nx=101, ny=97), img.SteeringConfig(), (True, True)),
            (img.ImageGrid(x_min=-2, x_max=0.5, nx=120, ny=40), img.SteeringConfig(c=(1, 1, 0)),
             (True, False)),
            (img.ImageGrid(x_min=-0.3, x_max=0.6, y_min=-1.2, y_max=0.9, nx=33, ny=150),
             img.SteeringConfig(c=(1, 0.5, -1)), (False, True)),
        ],
        ids=["both-axes", "x-axis", "y-axis"],
    )
    def test_expanded_axes_match_pointwise_definition(self, grid, cfg, expanded):
        assert_sf_matches_pointwise(grid, cfg, expanded)

    # kappa = 2 omega h on an axis of half-width h, from below the rule's floor
    # at 8 to the top of its range; the grid has one point more than nodes
    @pytest.mark.parametrize("kappa", [5.0, 12.0, 30.0, 41.9, 75.0, 130.0, 200.0])
    def test_node_rule_across_kappa(self, kappa):
        k, factors = random_factors(24, OMEGA_05, seed=int(kappa))
        cfg = img.SteeringConfig(c=(1, 1, 0))
        half = kappa / (2 * OMEGA_05)
        count = 2 * specfun._node_count(0, kappa)
        # the long axis off the origin, the short axis taken at its points
        long_axis = dict(x_min=0.3 - half, x_max=0.3 + half, nx=count + 1)
        short_axis = dict(y_min=-0.2, y_max=0.25, ny=9)
        for grid in (
            img.ImageGrid(**long_axis, **short_axis),
            img.ImageGrid(
                x_min=short_axis["y_min"], x_max=short_axis["y_max"], nx=9,
                y_min=long_axis["x_min"], y_max=long_axis["x_max"], ny=count + 1,
            ),
        ):
            assert sum(expanded_axes(grid, k.omega)) == 1
            got = img.subspace_correlations([(k, factors)], grid, cfg, tags=("SF",))["SF"]
            want = pointwise_correlation(k, factors, grid, cfg)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_interpolation_keeps_node_values(self):
        grid = img.ImageGrid(x_min=-0.7, x_max=1.3, nx=150)
        nodes, matrix = img._axis_nodes(grid.xs, 30.0)
        assert matrix.shape == (150, nodes.size) and np.all(np.diff(nodes) > 0)
        # at the nodes themselves the matrix is the identity, bit for bit
        assert np.array_equal(img._interpolation_matrix(nodes, nodes), np.eye(nodes.size))
        # a point on a node takes that node's value alone; the others interpolate
        values = np.random.default_rng(0).standard_normal(nodes.size)
        points = np.array([nodes[3], 0.123, nodes[-1], nodes[0], nodes[40]])
        got = img._interpolation_matrix(points, nodes) @ values
        assert np.array_equal(got[[0, 2, 3, 4]], values[[3, -1, 0, 40]])
        # the weights are those of the nodes: T_{K-1}(x - 0.3) on [-0.7, 1.3] is kept
        def chebyshev(x):
            return np.cos((nodes.size - 1) * np.arccos(np.clip(x - 0.3, -1.0, 1.0)))

        assert np.max(np.abs(matrix @ chebyshev(nodes) - chebyshev(grid.xs))) <= 1e-12

    def test_grid_ends_are_nodes_on_the_unit_square(self):
        grid = img.ImageGrid(nx=201, ny=201)
        nodes, matrix = img._axis_nodes(grid.xs, 41.9)
        assert nodes.size == 84 and (nodes[0], nodes[-1]) == (-1.0, 1.0)
        assert np.array_equal(matrix[[0, -1]], np.eye(84)[[0, -1]])

    # pair counts n(n+1)/2 against blocks of 256: 136 is under one block, 130816
    # is exactly 511 blocks, 1176 is four blocks and 152 pairs
    @pytest.mark.parametrize("n, blocks", [(16, 0), (511, 511), (48, 4)])
    def test_asymmetric_projector_matches_pointwise(self, n, blocks):
        pairs = n * (n + 1) // 2
        assert pairs // img._CHUNK_PAIRS == blocks
        assert (pairs % img._CHUNK_PAIRS == 0) == (n == 511)
        grid = img.ImageGrid(x_min=-0.7, x_max=1.2, y_min=-0.4, y_max=0.5, nx=13, ny=7)
        cfg = img.SteeringConfig(c=(1, 1, 0))
        ks = [random_factors(n, OMEGA_05, seed=n), random_factors(n, 0.8 * OMEGA_05, seed=n + 1)]
        m = spectral.effective_rank(ks[0][1], 0.01)
        assert 0 < m < n
        projector = ks[0][1].u[:, :m] @ ks[0][1].v[:, :m].conj().T
        assert np.max(np.abs(projector - projector.T)) > 0.1 * np.max(np.abs(projector))
        want = [pointwise_correlation(k, factors, grid, cfg) for k, factors in ks]
        for f in range(len(ks)):
            got = img.subspace_correlations(ks[f : f + 1], grid, cfg, tags=("SF",))["SF"]
            assert np.max(np.abs(got - want[f])) <= 1e-13 * np.max(np.abs(want[f]))
        # both frequencies through one pass: SF is the last, WMF(1) the weighted sum
        sums = img.subspace_correlations(ks, grid, cfg, tags=("SF", "WMF(1)"))
        assert np.max(np.abs(sums["SF"] - want[1])) <= 1e-13 * np.max(np.abs(want[1]))
        weighted = sum(k.omega * c for (k, _), c in zip(ks, want))
        assert np.max(np.abs(sums["WMF(1)"] - weighted)) <= 1e-13 * np.max(np.abs(weighted))

    def test_memory_bounded_by_pair_blocks(self):
        n, grid = 96, img.ImageGrid(nx=101, ny=101)
        assert n * (n + 1) // 2 == 4656
        ks = [random_factors(n, OMEGA_05, seed=7), random_factors(n, 0.9 * OMEGA_05, seed=8)]
        tracemalloc.start()
        try:
            img.subspace_correlations(ks, grid, tags=("MF",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the MF sum, the frequency buffer and one weighted term, plus a few
        # (pair block x axis) tables: ~2.4 blocks here
        one_map = grid.ny * grid.nx * 16
        block = (grid.nx + grid.ny) * img._CHUNK_PAIRS * 16
        assert peak < 3 * one_map + 4 * block, (peak - 3 * one_map) / block

    def test_memory_independent_of_frequency_count(self):
        # one sum per tag and one reused buffer, whatever F: the pass's peak at
        # F = 20 stays within one map of its peak at F = 2
        grid = img.ImageGrid(nx=201, ny=201)
        one_map = grid.ny * grid.nx * 16
        ks = [random_factors(16, OMEGA_05 * (1.0 - 0.01 * f), seed=f) for f in range(20)]
        peaks = {}
        for count in (2, 20):
            tracemalloc.start()
            try:
                img.subspace_correlations(ks[:count], grid, tags=("MF", "WMF(1)", "LOG"))
                _, peaks[count] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert abs(peaks[20] - peaks[2]) < one_map, peaks


class TestMapMulti:
    def test_single_frequency_reduces_to_sf(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        grid = img.ImageGrid(nx=31, ny=31)
        single = img.map_single(*ks[0], grid)
        assert np.allclose(multi(ks, grid).values, single.values / 1.0, atol=1e-14)

    def test_power0_is_mf_times_f(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, np.linspace(0.5, 0.3, 3))
        grid = img.ImageGrid(nx=21, ny=21)
        mf = multi(ks, grid, "MF")
        w0 = multi(ks, grid, "WMF(0)")
        assert np.allclose(w0.values, 3.0 * mf.values, rtol=1e-12)
        assert mf.tag == "MF" and w0.tag == "WMF(0)"

    def test_global_phase_invariance(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, np.linspace(0.5, 0.3, 3))
        grid = img.ImageGrid(nx=21, ny=21)
        base = multi(ks, grid, "LOG")
        phase = np.exp(0.9j)
        ks_rot = []
        for k, _ in ks:
            k2 = fwd.MsrMatrix(omega=k.omega, entries=phase * k.entries, dirs=k.dirs)
            ks_rot.append((k2, spectral.svd(k2)))
        rot = multi(ks_rot, grid, "LOG")
        assert np.max(np.abs(rot.values - base.values)) < 1e-9

    def test_grid_restriction_consistency(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5, 0.4])
        full = img.ImageGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=21, ny=21)
        sub = img.ImageGrid(x_min=-1, x_max=0, y_min=-1, y_max=0, nx=11, ny=11)
        out_full = multi(ks, full)
        out_sub = multi(ks, sub)
        assert np.allclose(out_sub.values, out_full.values[:11, :11], atol=1e-12)

    def test_log_requires_omega_above_one(self):
        grid = img.ImageGrid(nx=11, ny=11)
        total = np.zeros((11, 11), dtype=complex)
        with pytest.raises(ValueError, match="omega > 1"):
            img.map_multi(total, [2 * math.pi / 15.0], grid, "LOG")

    def test_mixed_direction_sets_rejected(self):
        inc = sigma1_inclusion()
        _, ks_a = pipeline(inc, [0.5], n=48)
        _, ks_b = pipeline(inc, [0.4], n=24)
        with pytest.raises(fwd.ConfigurationError):
            img.subspace_correlations(ks_a + ks_b, img.ImageGrid(nx=11, ny=11))

    def test_unknown_weight(self):
        _, ks = pipeline(sigma1_inclusion(), [0.5], n=16)
        grid = img.ImageGrid(nx=11, ny=11)
        total = np.zeros((11, 11), dtype=complex)
        # the run's tags are the only vocabulary: the old weight names are unknown,
        # and so are a trailing newline, a non-ASCII digit, a padded power and
        # near-misses of SF
        bad = ("cubic", "one", "power(0)", "log", "WMF()", "WMF(-1)", "MF\n",
               "WMF(1)\n", "WMF(\u0663)", "WMF(01)", "WMF(00)", "sf", "SF(1)", "SF\n")
        for weight in bad:
            with pytest.raises(ValueError, match="unknown weight"):
                img.map_multi(total, [OMEGA_05], grid, weight)
            with pytest.raises(ValueError, match="unknown weight"):
                img.subspace_correlations(ks, grid, tags=("MF", weight))

    @pytest.mark.parametrize("weight", ["MF", "WMF(1)", "LOG"])
    def test_matches_weighted_pointwise_sum(self, weight):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, np.linspace(0.5, 0.3, 3), snr_db=10.0, seed=2)
        grid = img.ImageGrid(nx=23, ny=19)
        cfg = img.SteeringConfig(c=(1, 1, 0))
        # every tag from one pass: the sums do not disturb each other
        tags = ("SF", "MF", "WMF(1)", "LOG")
        sums = img.subspace_correlations(ks, grid, cfg, 0.05, tags)
        assert tuple(sums) == tags and sums[weight].shape == (19, 23)
        omegas = [k.omega for k, _ in ks]
        got = img.map_multi(sums[weight], omegas, grid, weight)
        xi = {"MF": np.full(3, 1.0 / 3.0), "WMF(1)": np.array(omegas), "LOG": np.log(omegas)}
        want = np.abs(sum(
            x * pointwise_correlation(k, f, grid, cfg, 0.05)
            for x, (k, f) in zip(xi[weight], ks)
        ))
        assert np.max(np.abs(got.values - want)) <= 1e-13 * want.max()
        assert (got.tag, got.omegas) == (weight, tuple(omegas))

    def test_sf_is_the_last_correlation(self):
        inc = sigma1_inclusion()
        _, ks = pipeline(inc, [0.5, 0.4, 0.3], snr_db=10.0, seed=1)
        grid = img.ImageGrid(nx=17, ny=13)
        sums = img.subspace_correlations(ks, grid, tau=0.05, tags=("MF", "SF"))
        omegas = [k.omega for k, _ in ks]
        got = img.map_multi(sums["SF"], omegas, grid, "SF")
        last = img.subspace_correlations(ks[-1:], grid, tau=0.05, tags=("SF",))["SF"]
        assert np.array_equal(sums["SF"], last)
        assert np.array_equal(got.values, np.abs(last))
        assert (got.tag, got.omegas) == ("SF", (omegas[-1],))
        single = img.map_single(*ks[-1], grid, tau=0.05)
        assert np.array_equal(got.values, single.values)
        assert (single.tag, single.omegas) == (got.tag, got.omegas)

    def test_sums_equal_the_loop_over_stored_correlations(self):
        # the sums take each tag's terms in the order of a loop over all F
        # stored correlations, so maps are bitwise those of that loop
        _, ks = pipeline(sigma1_inclusion(), [0.5, 0.45, 0.4, 0.35], snr_db=10.0, seed=4)
        grid = img.ImageGrid(nx=19, ny=17)
        stored = [img.subspace_correlations([kf], grid, tags=("SF",))["SF"] for kf in ks]
        omegas = [k.omega for k, _ in ks]
        tags = ("SF", "MF", "WMF(2)", "LOG")
        sums = img.subspace_correlations(ks, grid, tags=tags)
        for tag in tags:
            # the plain loop, zero weights included: skipping the frequencies
            # no tag weighs changes no bit
            want = np.zeros((grid.ny, grid.nx), dtype=complex)
            for c_f, xi_f in zip(stored, img._weights(tag, omegas)):
                want += xi_f * c_f
            assert np.array_equal(sums[tag], want), tag
            assert np.array_equal(
                img.map_multi(sums[tag], omegas, grid, tag).values, np.abs(want)
            ), tag
        # MF is |sum_f (1/F) c_f|
        mf = np.zeros((grid.ny, grid.nx), dtype=complex)
        for c_f in stored:
            mf += (1.0 / len(ks)) * c_f
        assert np.array_equal(img.map_multi(sums["MF"], omegas, grid, "MF").values, np.abs(mf))
        assert np.array_equal(sums["SF"], stored[-1])

    def test_sums_are_summed_on_the_core_and_expanded_once(self):
        # on a grid above K each tag's sum is the loop over separately computed
        # per-frequency cores, expanded to the grid once: bit for bit
        _, ks = pipeline(sigma1_inclusion(), [0.5, 0.45, 0.4, 0.35], snr_db=10.0, seed=4)
        grid = img.ImageGrid(x_min=-1.1, x_max=0.9, nx=131, ny=97)
        omegas = [k.omega for k, _ in ks]
        assert expanded_axes(grid, max(omegas)) == (True, True)
        xs, x_expand = img._axis_nodes(grid.xs, max(omegas) * (grid.x_max - grid.x_min))
        ys, y_expand = img._axis_nodes(grid.ys, max(omegas) * (grid.y_max - grid.y_min))
        cfg = img.SteeringConfig()
        stored = []
        for k, factors in ks:
            stored.append(np.empty((ys.size, xs.size), dtype=complex))
            img._subspace_correlation(k, factors, xs, ys, cfg, 0.01, out=stored[-1])
        tags = ("SF", "MF", "WMF(2)", "LOG")
        sums = img.subspace_correlations(ks, grid, tags=tags)
        for tag in tags:
            core = np.zeros((ys.size, xs.size), dtype=complex)
            for c_f, xi_f in zip(stored, img._weights(tag, omegas)):
                core += xi_f * c_f
            assert np.array_equal(sums[tag], y_expand @ core @ x_expand.T), tag
        assert np.array_equal(sums["SF"], y_expand @ stored[-1] @ x_expand.T)

    def test_every_tag_is_its_weights(self):
        omegas = [OMEGA_05, 1.5 * OMEGA_05, 2.0 * OMEGA_05]
        want = {
            "SF": [0.0, 0.0, 1.0],
            "MF": [1.0 / 3.0] * 3,
            "WMF(2)": np.array(omegas) ** 2,
            "LOG": np.log(omegas),
        }
        for tag, xi in want.items():
            got = img._weights(tag, omegas)
            assert isinstance(got, np.ndarray) and np.array_equal(got, xi), tag
            # the config's check parses a tag without a band
            empty = img._weights(tag, [])
            assert isinstance(empty, np.ndarray) and empty.shape == (0,), tag

    def test_mismatched_correlations_rejected(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5, 0.4])
        grid = img.ImageGrid(nx=11, ny=13)
        total = img.subspace_correlations(ks, grid)["MF"]
        assert total.shape == (13, 11)
        omegas = [k.omega for k, _ in ks]
        for bad in (total[:1], total[:, :10], total.T, total[None], total[0]):
            with pytest.raises(ValueError, match="correlations"):
                img.map_multi(bad, omegas, grid)
        with pytest.raises(ValueError, match="correlations"):
            img.map_multi(total, [], grid)

    def test_correlations_validate_like_the_maps(self):
        inc = sigma1_inclusion()
        _, ks = pipeline(inc, [0.5], n=16)
        grid = img.ImageGrid(nx=11, ny=11)
        with pytest.raises(ValueError, match="at least one frequency"):
            img.subspace_correlations([], grid)
        with pytest.raises(ValueError, match="threshold"):
            img.subspace_correlations(ks, grid, tau=1.0)


class TestExports:
    def _map(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        return img.map_single(*ks[0], img.ImageGrid(nx=11, ny=11))

    def test_csv_layout(self, tmp_path):
        out = self._map()
        path = tmp_path / "map.csv"
        img.save_map_csv(out, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# submig map v1"
        assert lines[4] == "x,y,value"
        assert len(lines) == 5 + 11 * 11
        x, y, v = (float(tok) for tok in lines[5].split(","))
        assert (x, y) == (-1.0, -1.0)
        assert v == out.values[0, 0]

    @pytest.mark.parametrize("normalized", [False, True])
    def test_csv_bytes_match_a_single_join(self, tmp_path, normalized):
        # values from 1e-9 up write some reprs in scientific notation
        grid = img.ImageGrid(x_min=-0.3, x_max=0.7, y_min=-1.1, y_max=0.2, nx=7, ny=45)
        rng = np.random.default_rng(3)
        values = rng.random((45, 7)) * 10.0 ** rng.uniform(-9, 2, (45, 7))
        image = img.ImageMap(grid, values, "WMF(2)", (OMEGA_05, 0.8 * OMEGA_05))
        path = tmp_path / "map.csv"
        img.save_map_csv(image, path, normalized=normalized)
        # the writer the blocks replace: every line formatted, then one join
        vals = image.normalized() if normalized else image.values
        lines = [
            "# submig map v1",
            f"# tag {image.tag}",
            f"# normalized {'yes' if normalized else 'no'}",
            "# omegas " + ",".join(repr(w) for w in image.omegas),
            "x,y,value",
        ]
        for y, row in zip(grid.ys.tolist(), vals.tolist()):
            lines.extend(f"{x!r},{y!r},{v!r}" for x, v in zip(grid.xs.tolist(), row))
        want = ("\n".join(lines) + "\n").encode("ascii")
        assert b"e-" in want
        assert path.read_bytes() == want

    def test_csv_memory_bounded_by_one_row(self, tmp_path):
        # the 201-square map's 40401 lines are never held at once (a single
        # join peaked at ~7.5 MiB; one row is ~0.07 MiB)
        grid = img.ImageGrid(nx=201, ny=201)
        values = np.random.default_rng(5).random((201, 201))
        image = img.ImageMap(grid, values, "MF", (OMEGA_05,))
        tracemalloc.start()
        try:
            img.save_map_csv(image, tmp_path / "map.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20, peak / 2**20

    def test_pgm_16bit(self, tmp_path):
        out = self._map()
        path = tmp_path / "map.pgm"
        img.save_map_pgm(out, path)
        data = path.read_bytes()
        header, _, rest = data.partition(b"65535\n")
        assert header.startswith(b"P5\n")
        pixels = np.frombuffer(rest, dtype=">u2").reshape(11, 11)
        # top row of the file is the largest y
        iy, ix = np.unravel_index(np.argmax(out.values), out.values.shape)
        assert pixels[10 - iy, ix] == 65535


def test_grid_validation():
    with pytest.raises(ValueError):
        img.ImageGrid(nx=1)
    with pytest.raises(ValueError):
        img.ImageGrid(x_min=1.0, x_max=-1.0)
    with pytest.raises(ValueError, match="finite"):
        img.ImageGrid(x_min=-math.inf)


@pytest.mark.parametrize("field, size", [("nx", 2.5), ("ny", 41.0), ("nx", True), ("ny", "41")])
def test_grid_resolution_must_be_an_integer(field, size):
    with pytest.raises(ValueError, match=f"grid {field} must be an integer"):
        img.ImageGrid(**{field: size})


def test_grid_accepts_numpy_integers():
    grid = img.ImageGrid(nx=np.int64(5), ny=np.int32(3))
    assert (type(grid.nx), type(grid.ny)) == (int, int)
    assert grid == img.ImageGrid(nx=5, ny=3)
    assert grid.points().shape == (15, 2)


def test_grid_points_order():
    grid = img.ImageGrid(x_min=0, x_max=1, y_min=0, y_max=2, nx=2, ny=3)
    pts = grid.points()
    assert np.allclose(pts[0], [0, 0])
    assert np.allclose(pts[1], [1, 0])  # x varies fastest
    assert np.allclose(pts[-1], [1, 2])
