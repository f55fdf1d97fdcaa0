"""Output checks: independent oracles, a committed reference, mpmath.

The imaging oracle factors each response matrix with ``np.linalg.svd`` and
correlates the documented steering vectors with the projector ``U_m V_m^H``,
which does not depend on the SVD's phase convention; the map metrics are
recomputed from each map with their documented definitions.  The closed forms
are recomputed by Gauss-Legendre quadrature over scipy's Bessel functions at
every point, and by mpmath at the first points.  These checks hold for every
seed.  Scalars are also compared with ``reference.json``, which holds the
outputs of the program at the commit that introduced the benchmark, for the
seeds it covers.  Rank-based outputs (the peak position, the top-k
localization error, ``m_eff``) are compared only where the values that decide
the rank are separated by more than the tolerance.  scipy and mpmath are
imported when a check first needs them, after the run has read its peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import ROOT  # noqa: F401  (puts src/ on sys.path)
from submig import forward, geometry  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

# relative tolerance of every non-timestamp artifact across program versions
ARTIFACT_TOL = 1e-13
# closed-form values rest on adaptive quadrature with rel_tol 1e-10
CLOSED_FORM_TOL = 1e-9
MAP_SAMPLES = 64
MPMATH_POINTS = 2
# the map-quality definitions sample each curve at this many parameter values
CURVE_SAMPLES = 2001
# Gauss-Legendre panels over the band; at the workload's radii J0^2 and J1^2
# complete only a few oscillations there, so the rule is exact to rounding
GL_PANELS, GL_ORDER = 16, 64

_WMF_RE = re.compile(r"^WMF\((\d+)\)$")
_SCALARS = ("sidelobe_energy", "peak_value")
CLOSED_FORM_KEYS = ("mf", "wmf1", "log", "e1", "e2")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def tag_slug(tag: str) -> str:
    return tag.lower().replace("(", "").replace(")", "")


def _close(a: float, b: float, tol: float, scale: float | None = None) -> bool:
    scale = abs(b) if scale is None else scale
    return abs(a - b) <= tol * scale


# ---------------------------------------------------------------------------
# imaging oracle

class PipelineOracle:
    """Maps and effective ranks of one experiment config, computed independently."""

    def __init__(self, cfg):
        self.cfg = cfg
        n = cfg.directions
        ang = 2.0 * math.pi * np.arange(n) / n
        self.thetas = -np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        c0, c1, c2 = cfg.c
        amps = c0 + c1 * self.thetas[:, 0] + c2 * self.thetas[:, 1]
        self.amps = amps / np.linalg.norm(amps)
        lambdas = (
            np.linspace(cfg.lambda_max, cfg.lambda_min, cfg.frequencies)
            if cfg.frequencies > 1
            else np.array([cfg.lambda_max])
        )
        self.omegas = 2.0 * math.pi / lambdas
        self.matrices = self._matrices()
        self.m_eff, self.rank_separated, self.projectors = [], [], []
        for k in self.matrices:
            u, s, vh = np.linalg.svd(k)
            m = int(np.sum(s >= cfg.tau * s[0]))
            self.m_eff.append(m)
            self.rank_separated.append(
                bool(np.min(np.abs(s - cfg.tau * s[0])) > ARTIFACT_TOL * s[0])
            )
            self.projectors.append(u[:, :m] @ vh[:m, :])
        inclusions = [spec.resolve() for spec in cfg.inclusions]
        self.k_top = sum(
            geometry.effective_segment_count(inc.curve, cfg.lambda_min) for inc in inclusions
        )
        self.curves = [inc.curve for inc in inclusions]
        self.tube = cfg.lambda_min / 2.0
        self._distances = None

    def _matrices(self) -> list[np.ndarray]:
        # the inputs of the SVD, rebuilt through the public forward API
        cfg = self.cfg
        dirs = forward.make_directions(cfg.directions)
        inclusions = [spec.resolve() for spec in cfg.inclusions]
        out = []
        for index, omega in enumerate(self.omegas):
            entries = sum(
                forward.assemble_msr(dirs, float(omega), inc).entries for inc in inclusions
            )
            k = forward.MsrMatrix(omega=float(omega), entries=entries, dirs=dirs)
            if cfg.snr_db != math.inf:
                seed = forward.derive_stream_seed(cfg.seed, index)
                k = forward.add_awgn(k, cfg.snr_db, seed)
            out.append(np.asarray(k.entries))
        return out

    def map_values(self, tag: str, points: np.ndarray) -> np.ndarray:
        if tag == "MF":
            weights = np.ones(len(self.omegas)) / len(self.omegas)
        elif tag == "LOG":
            weights = np.log(self.omegas)
        elif _WMF_RE.match(tag):
            weights = self.omegas ** int(_WMF_RE.match(tag).group(1))
        else:
            raise ValueError(f"oracle has no functional {tag!r}")
        total = np.zeros(points.shape[0], dtype=complex)
        for omega, proj, xi in zip(self.omegas, self.projectors, weights):
            w = self.amps * np.exp(1j * omega * (points @ self.thetas.T))
            total += xi * np.einsum("pa,ab,pb->p", w.conj(), proj, w.conj())
        return np.abs(total)

    def grid_points(self, flat_idx: np.ndarray) -> np.ndarray:
        g = self.cfg.grid
        xs = np.linspace(g.x_min, g.x_max, g.nx)
        ys = np.linspace(g.y_min, g.y_max, g.ny)
        return np.column_stack([xs[flat_idx % g.nx], ys[flat_idx // g.nx]])

    def grid_distances(self) -> np.ndarray:
        """Distance of every grid point (flat, row-major) to the sampled curves."""
        if self._distances is None:
            from scipy.spatial import cKDTree

            anchors = np.concatenate([
                np.asarray(c.position(np.linspace(c.s_min, c.s_max, CURVE_SAMPLES)), dtype=float)
                for c in self.curves
            ])
            g = self.cfg.grid
            points = self.grid_points(np.arange(g.nx * g.ny))
            self._distances = cKDTree(anchors).query(points)[0]
        return self._distances


# ---------------------------------------------------------------------------
# output extraction: every workload reduced to comparable scalars and maps

def _read_map_csv(path: Path, ny: int, nx: int) -> np.ndarray:
    lines = path.read_text(encoding="ascii").splitlines()
    start = lines.index("x,y,value") + 1
    vals = np.array([float(line.rsplit(",", 1)[1]) for line in lines[start:]])
    return vals.reshape(ny, nx)


def extract(workload: str, inputs: dict, outputs: dict) -> dict:
    """Scalars in reference form plus the full maps each run produced."""
    if workload == "closed_form":
        e1, e2 = outputs["e1_e2"]
        return {
            "unit": outputs["unit"],
            "mf": float(outputs["mf"]),
            "wmf1": float(outputs["wmf1"]),
            "log": float(outputs["log"]),
            "e1": float(e1),
            "e2": float(e2),
        }
    if workload == "fig1":
        out = Path(outputs["out_dir"])
        cfg = inputs["configs"][0]
        payload = json.loads((out / "metrics.json").read_text(encoding="ascii"))
        maps = {
            tag: _read_map_csv(out / f"map_{tag_slug(tag)}.csv", cfg.grid.ny, cfg.grid.nx)
            for tag in cfg.functionals
        }
        runs = [{"m_eff": list(payload["m_eff"]), "metrics": payload["metrics"]}]
        return {
            "runs": runs,
            "maps": [maps],
            "rc": outputs["rc"],
            "stdout": outputs["stdout"],
            "files": sorted(p.name for p in out.iterdir()),
        }
    reports = outputs["reports"]
    return {
        "runs": [{"m_eff": list(r.m_eff), "metrics": r.metrics} for r in reports],
        "maps": [{tag: img.values for tag, img in r.maps.items()} for r in reports],
    }


def reference_form(workload: str, extracted: list[dict]) -> dict:
    """What reference.json stores, from the extracted outputs of one pass."""
    if workload == "closed_form":
        return {key: [unit[key] for unit in extracted] for key in CLOSED_FORM_KEYS}
    return {"runs": extracted[0]["runs"]}


# ---------------------------------------------------------------------------
# checks

def _check_fig1_files(inputs: dict, outputs: dict, oracle: PipelineOracle) -> list[str]:
    problems = []
    cfg = inputs["configs"][0]
    out = Path(outputs["out_dir"])
    if outputs["rc"] != 0:
        problems.append(f"cli.main returned {outputs['rc']}")
    if "artifacts written to" not in outputs["stdout"]:
        problems.append("cli output does not report the artifact directory")
    expected = ["config.txt", "metrics.json"]
    expected += [f"msr_f{i:02d}.txt" for i in range(cfg.frequencies)]
    expected += [f"spectrum_f{i:02d}.csv" for i in range(cfg.frequencies)]
    for tag in cfg.functionals:
        slug = tag_slug(tag)
        expected += [f"map_{slug}.csv", f"map_{slug}_norm.csv", f"map_{slug}.pgm"]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return problems + [f"missing artifacts {missing}"]
    # the first persisted matrix against the rebuilt one (17 digits round-trip)
    rows = (out / "msr_f00.txt").read_text(encoding="ascii").splitlines()
    body = [r for r in rows if not r.startswith("#")]
    vals = np.array([[float(t) for t in r.split()] for r in body])
    k = vals[:, 0::2] + 1j * vals[:, 1::2]
    ref = oracle.matrices[0]
    if k.shape != ref.shape or np.max(np.abs(k - ref)) > ARTIFACT_TOL * np.max(np.abs(ref)):
        problems.append("msr_f00.txt differs from the rebuilt response matrix")
    for tag in cfg.functionals:
        slug = tag_slug(tag)
        raw = _read_map_csv(out / f"map_{slug}.csv", cfg.grid.ny, cfg.grid.nx)
        norm = _read_map_csv(out / f"map_{slug}_norm.csv", cfg.grid.ny, cfg.grid.nx)
        if np.max(np.abs(norm - raw / raw.max())) > ARTIFACT_TOL:
            problems.append(f"map_{slug}_norm.csv is not the max-normalized map")
        size = (out / f"map_{slug}.pgm").stat().st_size
        if size < 2 * cfg.grid.nx * cfg.grid.ny:
            problems.append(f"map_{slug}.pgm holds {size} bytes, too few for the grid")
    return problems


def _check_maps(maps: dict, oracle: PipelineOracle, sample_idx: np.ndarray) -> list[str]:
    problems = []
    for tag, values in maps.items():
        flat = np.asarray(values).ravel()
        peak = float(flat.max())
        idx = np.unique(np.append(sample_idx, int(np.argmax(flat))))
        want = oracle.map_values(tag, oracle.grid_points(idx))
        err = float(np.max(np.abs(flat[idx] - want)))
        if not err <= ARTIFACT_TOL * peak:
            problems.append(f"{tag} map differs from the oracle by {err / peak:.3g} of its peak")
    return problems


def _check_metrics(metrics: dict, maps: dict, oracle: PipelineOracle) -> list[str]:
    """Sidelobe energy, localization error and peak position, recomputed from each map."""
    problems = []
    dist = oracle.grid_distances()
    # grid points within rounding of the tube edge may fall on either side
    outside_lo = dist > oracle.tube * (1.0 + ARTIFACT_TOL)
    outside_hi = dist > oracle.tube * (1.0 - ARTIFACT_TOL)
    k = oracle.k_top
    for tag, values in maps.items():
        got = metrics[tag]
        flat = np.asarray(values).ravel()
        total = flat.sum()
        lo, hi = flat[outside_lo].sum() / total, flat[outside_hi].sum() / total
        if not lo * (1.0 - ARTIFACT_TOL) <= got["sidelobe_energy"] <= hi * (1.0 + ARTIFACT_TOL):
            problems.append(
                f"{tag} sidelobe_energy = {got['sidelobe_energy']!r}, recomputed {lo!r}"
            )
        order = np.argsort(-flat, kind="stable")
        tol = ARTIFACT_TOL * flat[order[0]]
        if flat[order[k - 1]] - flat[order[k]] > tol:
            want = float(dist[order[:k]].mean())
            if not _close(got["localization_error"], want, ARTIFACT_TOL):
                problems.append(
                    f"{tag} localization_error = {got['localization_error']!r}, recomputed {want!r}"
                )
        if flat[order[0]] - flat[order[1]] > tol:
            want_x, want_y = oracle.grid_points(order[:1])[0]
            if (got["peak_x"], got["peak_y"]) != (want_x, want_y):
                problems.append(
                    f"{tag} peak at ({got['peak_x']}, {got['peak_y']}), "
                    f"map maximum at ({want_x}, {want_y})"
                )
    return problems


def _check_run(run: dict, maps: dict, oracle: PipelineOracle, ref: dict | None) -> list[str]:
    problems = []
    m_eff = list(run["m_eff"])
    if len(m_eff) != len(oracle.m_eff):
        return [f"{len(m_eff)} effective ranks for {len(oracle.m_eff)} frequencies"]
    for f, (got, want, sep) in enumerate(zip(m_eff, oracle.m_eff, oracle.rank_separated)):
        if sep and got != want:
            problems.append(f"m_eff[{f}] = {got}, oracle says {want}")
        if sep and ref is not None and got != ref["m_eff"][f]:
            problems.append(f"m_eff[{f}] = {got}, reference says {ref['m_eff'][f]}")
    for tag, values in maps.items():
        got = run["metrics"][tag]
        flat = np.sort(np.asarray(values).ravel())[::-1]
        tol = ARTIFACT_TOL * flat[0]
        if not _close(got["peak_value"], float(flat[0]), ARTIFACT_TOL):
            problems.append(f"{tag} peak_value is not the map maximum")
        if ref is None:
            continue
        want = ref["metrics"][tag]
        for key in _SCALARS:
            if not _close(got[key], want[key], ARTIFACT_TOL):
                problems.append(f"{tag} {key} = {got[key]!r}, reference {want[key]!r}")
        k = oracle.k_top
        if flat[k - 1] - flat[k] > tol and not _close(
            got["localization_error"], want["localization_error"], ARTIFACT_TOL
        ):
            problems.append(
                f"{tag} localization_error = {got['localization_error']!r}, "
                f"reference {want['localization_error']!r}"
            )
        if flat[0] - flat[1] > tol and (
            got["peak_x"] != want["peak_x"] or got["peak_y"] != want["peak_y"]
        ):
            problems.append(
                f"{tag} peak at ({got['peak_x']}, {got['peak_y']}), "
                f"reference ({want['peak_x']}, {want['peak_y']})"
            )
    return problems


def _quadrature_closed_form(inputs: dict, unit: int) -> dict:
    """The closed forms of one unit by Gauss-Legendre over scipy's J0 and J1."""
    from scipy import special

    band = inputs["band"]
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    edges = np.linspace(band.omega1, band.omega_f, GL_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (half * x + edges[:-1, None] + half).ravel()
    weights = (half * w).ravel()
    radii = np.hypot(*(inputs["points"][unit] - inputs["scatterers"].points).T)
    j0sq = (special.j0(np.outer(radii, nodes)) ** 2).sum(axis=0)
    scale = band.count / band.width
    r = float(inputs["radii"][unit])
    return {
        "mf": scale * float(j0sq @ weights),
        "wmf1": scale * float(j0sq @ (weights * nodes)),
        "log": scale * float(j0sq @ (weights * np.log(nodes))),
        "e1": float(special.j0(r * nodes) ** 2 @ weights),
        "e2": float(((np.log(nodes) - 1.0) * special.j1(r * nodes) ** 2) @ weights),
    }


def _mpmath_closed_form(inputs: dict, unit: int) -> dict:
    import mpmath as mp

    mp.mp.dps = 20
    band = inputs["band"]
    a, b = mp.mpf(band.omega1), mp.mpf(band.omega_f)
    scale = band.count / band.width

    def integral(weight, order, r):
        return mp.quad(lambda w: weight(w) * mp.besselj(order, w * r) ** 2, [a, b])

    radii = np.hypot(*(inputs["points"][unit] - inputs["scatterers"].points).T)
    r = mp.mpf(float(inputs["radii"][unit]))
    want = {
        key: scale * float(sum(integral(weight, 0, mp.mpf(float(rm))) for rm in radii))
        for key, weight in (("mf", lambda w: 1), ("wmf1", lambda w: w), ("log", mp.log))
    }
    want["e1"] = float(integral(lambda w: 1, 0, r))
    want["e2"] = float(integral(lambda w: mp.log(w) - 1, 1, r))
    return want


def _closed_form_problems(got: dict, want: dict, source: str) -> list[str]:
    return [
        f"{key} at point {got['unit']} = {got[key]!r}, {source} {want[key]!r}"
        for key in CLOSED_FORM_KEYS
        if not _close(got[key], want[key], CLOSED_FORM_TOL, max(abs(want[key]), 1.0))
    ]


class Checker:
    """Checks every iteration of one workload run.

    The first iteration of each unit is checked against the oracles, and
    against the reference where it has the run's seed; later ones must
    reproduce it exactly, maps included (runs are deterministic).
    """

    def __init__(self, workload: str, inputs: dict, reference: dict | None):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self._first: dict[int, dict] = {}
        self._first_problems: dict[int, list[str]] = {}
        self._oracles: list[PipelineOracle] | None = None

    def oracles(self) -> list[PipelineOracle]:
        if self._oracles is None:
            self._oracles = [PipelineOracle(cfg) for cfg in self.inputs["configs"]]
        return self._oracles

    def check(self, outputs: dict) -> list[str]:
        try:
            got = extract(self.workload, self.inputs, outputs)
        except (OSError, ValueError, KeyError) as err:
            return [f"outputs unreadable: {err!r}"]
        unit = got.get("unit", 0)
        if unit in self._first:
            if _fingerprint(got) != self._first[unit]:
                return ["outputs differ from the first iteration of this run"]
        else:
            self._first[unit] = _fingerprint(got)
            self._first_problems[unit] = self._full_check(got, outputs)
        return list(self._first_problems[unit])

    def _full_check(self, got: dict, outputs: dict) -> list[str]:
        ref = self.reference
        if self.workload == "closed_form":
            i = got["unit"]
            problems = _closed_form_problems(
                got, _quadrature_closed_form(self.inputs, i), "quadrature"
            )
            if ref is not None:
                problems += _closed_form_problems(
                    got, {key: ref[key][i] for key in CLOSED_FORM_KEYS}, "reference"
                )
            if i < MPMATH_POINTS:
                problems += _closed_form_problems(
                    got, _mpmath_closed_form(self.inputs, i), "mpmath"
                )
            return problems
        oracles = self.oracles()
        problems = []
        if self.workload == "fig1":
            problems += _check_fig1_files(self.inputs, outputs, oracles[0])
        rng = np.random.default_rng(20140409)
        for i, (run, maps, oracle) in enumerate(zip(got["runs"], got["maps"], oracles)):
            g = oracle.cfg.grid
            sample_idx = rng.choice(g.nx * g.ny, size=min(MAP_SAMPLES, g.nx * g.ny), replace=False)
            problems += _check_maps(maps, oracle, sample_idx)
            problems += _check_metrics(run["metrics"], maps, oracle)
            problems += _check_run(run, maps, oracle, None if ref is None else ref["runs"][i])
        return problems


def _fingerprint(got: dict) -> str:
    """Exact digest of the extracted outputs: scalars as JSON, maps by their bytes."""
    digest = hashlib.sha256()
    for maps in got.get("maps", []):
        for tag in sorted(maps):
            digest.update(tag.encode("ascii"))
            digest.update(np.ascontiguousarray(maps[tag], dtype=float).tobytes())
    scalars = {k: v for k, v in got.items() if k != "maps"}
    digest.update(json.dumps(scalars, sort_keys=True).encode("ascii"))
    return digest.hexdigest()
