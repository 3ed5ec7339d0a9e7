"""The three benchmark workloads: ``render``, ``fit`` and ``probe``.

Each is a closed loop with one client: ``round`` returns only when its last
call has returned, and the runner starts the next round after that.  Inputs
come from the seed alone.  Every call's output is checked; a wrong output or
a ``FitDivergence`` counts as a failed op.  The program is driven only
through its public calls (the CLI's ``main`` and names the package exports).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time

import numpy as np

import rayfields as rf
from rayfields import cli, estimlab, images, scenegen

THREADS_ENV = "OBSURF_THREADS"

# Object kinds of each generated scene.  The mix is fixed, so that a scene's
# cost does not depend on the seed; every kind is present, so that every
# per-kind field layer is exercised.
MIX_4 = {"gaussian_blob": 2, "soft_sphere": 1, "soft_box": 1}
MIX_8 = {"gaussian_blob": 3, "soft_sphere": 3, "soft_box": 2}
MIX_3 = {"gaussian_blob": 1, "soft_sphere": 1, "soft_box": 1}

# A binomial miss rate this many standard errors from its closed form is a
# wrong output (a correct sampler lands there about once in 10^6 calls).
MISS_RATE_SE = 5.0

# A probe ray is used only if one component holds this share of its mass.
SEGMENT_MARGIN = 0.9


# Sizes of one op.  "full" is the benchmark; "smoke" only proves the
# harness end to end (perfbench/test_smoke.py).
SIZES = {
    "full": {
        "setups": {"render": 3, "fit": 3, "probe": 9},
        "render": {"mix": MIX_4, "resolution": 64, "views": 3, "n_coarse": 64, "n_fine": 128},
        "fit": {"mix": MIX_8, "obs_resolution": 16, "iterations": 10, "batch_size": 512},
        "probe": {"mix": MIX_4, "resolution": 32, "k": 50, "trials": 50, "segment_rays": 12,
                  "n_coarse": 64, "n_fine": 128, "ari_pixels": (15, 20), "ari_labels": 4,
                  "ari_calls": 200},
        "trace_rounds": {"render": 2, "fit": 30, "probe": 60},
    },
    "smoke": {
        "setups": {"render": 2, "fit": 2, "probe": 2},
        "render": {"mix": MIX_4, "resolution": 8, "views": 1, "n_coarse": 8, "n_fine": 8},
        "fit": {"mix": MIX_3, "obs_resolution": 6, "iterations": 2, "batch_size": 64},
        "probe": {"mix": MIX_4, "resolution": 12, "k": 50, "trials": 20, "segment_rays": 2,
                  "n_coarse": 8, "n_fine": 8, "ari_pixels": (15, 20), "ari_labels": 4,
                  "ari_calls": 4},
        "trace_rounds": {"render": 1, "fit": 1, "probe": 1},
    },
}

def _seed_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def scene_with_mix(mix: dict, resolution: int, rng) -> tuple:
    """First generated scene whose objects have exactly the kinds in
    ``mix``; draws continue from ``rng`` until one does."""
    n = sum(mix.values())
    config = rf.SceneGenConfig(n_objects_min=n, n_objects_max=n, resolution=resolution)
    for _ in range(500):
        try:
            scene, meta = rf.sample_scene(config, rng)
        except rf.PlacementError:
            continue
        kinds = [m["kind"] for m in meta]
        if all(kinds.count(kind) == count for kind, count in mix.items()):
            return scene, config
    raise RuntimeError(f"no generated scene has the object mix {mix}")


def set_threads(n: int) -> None:
    os.environ[THREADS_ENV] = str(n)


class Checks:
    """Outcome of every checked op of one run, across its set-ups."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)
        return ok


class Workload:
    name = ""

    def __init__(self, size: dict, seed: int, workdir: str, nproc: int, checks: Checks):
        self.p = size[self.name]
        self.seed = seed
        self.workdir = workdir
        self.nproc = nproc
        self.check = checks

    def warmup(self) -> None:
        self.round(0)


class Render(Workload):
    """The CLI ``render`` command on a generated scene, alternating the
    worker count between 1 and nproc; artifacts must not depend on it."""

    name = "render"

    def setup(self) -> None:
        p = self.p
        rng = _seed_rng(self.seed, 1)
        scene, _ = scene_with_mix(p["mix"], p["resolution"], rng)
        os.makedirs(self.workdir, exist_ok=True)
        scene_path = os.path.join(self.workdir, "scene.json")
        rf.save_scene(scene_path, rf.scene_to_doc(scene))
        self.n_objects = sum(p["mix"].values())
        self.views = p["views"]
        self.rays = p["views"] * p["resolution"] ** 2
        self.argv = ["render", "--scene", scene_path, "--resolution", str(p["resolution"]),
                     "--views", str(p["views"]), "--n-coarse", str(p["n_coarse"]),
                     "--n-fine", str(p["n_fine"]), "--seed", str(int(rng.integers(2**31)))]
        self.reference = None

    def round(self, index: int, threads: int | None = None) -> dict:
        if threads is None:
            threads = self.nproc if index % 2 == 0 else 1
        set_threads(threads)
        out = os.path.join(self.workdir, "out")
        out_buf, err_buf = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            started = time.perf_counter()
            code = cli.main(self.argv + ["--out", out])
            elapsed = time.perf_counter() - started
        artifacts = {}
        for path in out_buf.getvalue().split():
            with open(path, "rb") as fh:
                artifacts[os.path.basename(path)] = fh.read()
        if code != 0 or len(artifacts) != 3 * self.views:
            problem = f"render exit {code}, {len(artifacts)} files: {err_buf.getvalue().strip()}"
        elif self.reference is None:
            problem = self._implausible(out)
            self.reference = artifacts
        elif artifacts != self.reference:
            problem = f"render artifacts at {threads} worker(s) differ from the reference render"
        else:
            problem = None
        self.check(problem is None, problem)
        shutil.rmtree(out, ignore_errors=True)
        return {f"cmd_{'1t' if threads == 1 else 'nproc'}": elapsed}

    def _implausible(self, out: str) -> str | None:
        """Why the reference render does not look like the scene (colors in
        [0, 1], object labels only, some objects seen, finite depth on
        them), or None."""
        for v in range(self.views):
            rgb = images.read_ppm(os.path.join(out, f"view_{v}.ppm"))
            mask = images.read_pgm(os.path.join(out, f"view_{v}_mask.pgm"))
            depth = images.read_pfm(os.path.join(out, f"view_{v}_depth.pfm"))
            fg = mask > 0
            if not (np.all((rgb >= 0) & (rgb <= 1)) and mask.max() <= self.n_objects and fg.any()
                    and np.all(np.isfinite(depth[fg]) & (depth[fg] > 0))):
                return f"reference render view {v} is implausible"
        return None


class Fit(Workload):
    """Repeated ``fit`` calls from a start point whose object centres were
    moved, against one depth-law observation per ray of the rig."""

    name = "fit"

    def setup(self) -> None:
        p = self.p
        set_threads(self.nproc)
        rng = _seed_rng(self.seed, 2)
        scene, config = scene_with_mix(p["mix"], p["obs_resolution"], rng)
        obs_seed = int(rng.integers(2**31))
        # One call per view of the rig, as the package's callers make them.
        samples, self.observe_rates = [], []
        for v, camera in enumerate(rf.rig_views(scenegen.default_camera(config))):
            grid = rf.pinhole_rays(camera, scene.t_far)
            started = time.perf_counter()
            samples += rf.sample_observations(scene, grid, seed=obs_seed + v)
            self.observe_rates.append(len(grid) / (time.perf_counter() - started))
        components = list(scene.components)
        for i in range(sum(p["mix"].values())):
            params = components[i].params().copy()
            params[:3] += rng.normal(0.0, 0.15, 3)  # every object kind leads with its centre
            components[i] = components[i].with_params(params)
        self.start = rf.CompositeScene(tuple(components), t_far=scene.t_far)
        self.samples = samples
        self.config = rf.FitConfig(iterations=p["iterations"], batch_size=p["batch_size"],
                                   seed=int(rng.integers(2**31)))
        self.reference = None

    def round(self, index: int, threads: int | None = None) -> dict:
        set_threads(self.nproc if threads is None else threads)
        started = time.perf_counter()
        try:
            report = rf.fit(self.start, self.samples, self.config)
        except rf.FitDivergence as exc:
            self.check(False, f"fit diverged: {exc}")
            return {"fit": time.perf_counter() - started}
        elapsed = time.perf_counter() - started
        if not np.isfinite(report.trace[-1]["total"]):
            problem = "fit ended with a non-finite loss"
        elif self.reference is None:
            problem = None
            self.reference = report.final_params
        elif not np.array_equal(report.final_params, self.reference):
            problem = "repeated fit gave different final parameters"
        else:
            problem = None
        self.check(problem is None, problem)
        return {"fit": elapsed}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -z))


def closed_form_density(component, points: np.ndarray) -> np.ndarray:
    """Density (N,) of one scene object at ``points`` (N, 3), written from
    its kind's closed form and its documented parameter vector, so that the
    oracle does not share the field code under test."""
    v = component.params()
    if component.kind == "gaussian_blob":      # [center, scale, amplitude, color]
        u = (points - v[0:3]) / v[3:6]
        raw = v[6] * np.exp(-0.5 * np.einsum("ij,ij->i", u, u))
    elif component.kind == "soft_sphere":      # [center, radius, softness, amplitude, color]
        r = np.linalg.norm(points - v[0:3], axis=1)
        raw = v[5] * _sigmoid((v[3] - r) / v[4])
    elif component.kind == "soft_box":         # [center, half_size, softness, amplitude, color]
        q = (v[3:6] - np.abs(points - v[0:3])) / v[6]
        raw = v[7] * np.prod(_sigmoid(q), axis=1)
    elif component.kind == "ground_plane":     # [softness, amplitude, ..., dome_radius (9), ...]
        plane = _sigmoid(-points[:, 2] / v[0])
        dome = _sigmoid((np.linalg.norm(points, axis=1) - v[9]) / v[0])
        raw = v[1] * (plane + dome - plane * dome)
    else:
        raise ValueError(f"no closed form for object kind {component.kind!r}")
    cap = getattr(component, "sigma_max", None)
    return raw if cap is None else np.minimum(raw, cap)


def dense_component_mass(scene, origins, directions, t_fars, panels: int = 4096) -> np.ndarray:
    """Each component's share (R, n) of the depth mass a ray absorbs, from
    closed-form densities on dense midpoint panels: the quantity
    ``segment_ray`` takes the argmax of, without its stratified sampling."""
    h = t_fars / panels
    mids = (np.arange(panels) + 0.5)[None, :] * h[:, None]
    points = (origins[:, None, :] + mids[..., None] * directions[:, None, :]).reshape(-1, 3)
    sigmas = np.stack([closed_form_density(c, points) for c in scene.components], axis=1)
    sigmas = sigmas.reshape(len(t_fars), panels, -1)
    total = sigmas.sum(axis=2)
    optical = total * h[:, None]
    weight = np.exp(-(np.cumsum(optical, axis=1) - optical)) * -np.expm1(-optical)
    share = np.where(total[..., None] > 0, sigmas / np.where(total > 0, total, 1.0)[..., None], 0.0)
    mass = (weight[..., None] * share).sum(axis=1)
    return mass / np.maximum(mass.sum(axis=1, keepdims=True), 1e-300)


def pair_count_ari(a: np.ndarray, b: np.ndarray) -> float:
    """ARI from the four pair counts (same/different cluster in each map),
    an oracle independent of the contingency-table code under test."""
    iu = np.triu_indices(a.size, k=1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    n11 = int(np.count_nonzero(same_a & same_b))
    n10 = int(np.count_nonzero(same_a & ~same_b))
    n01 = int(np.count_nonzero(~same_a & same_b))
    n00 = same_a.size - n11 - n10 - n01
    numerator = 2 * (n00 * n11 - n01 * n10)
    denominator = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
    if denominator == 0:
        raise ValueError("degenerate label maps")
    return numerator / denominator


class Probe(Workload):
    """Batch-size-1 and small calls: hierarchical bias-demo trials,
    ``segment_ray`` on single pixel rays, and ``ari`` on small maps."""

    name = "probe"

    def setup(self) -> None:
        p = self.p
        set_threads(self.nproc)
        rng = _seed_rng(self.seed, 3)
        scene, config = scene_with_mix(p["mix"], p["resolution"], rng)
        grid = rf.pinhole_rays(scenegen.default_camera(config), scene.t_far)
        self.scene = scene
        self.rays, self.expected = [], []
        for batch in np.array_split(rng.permutation(len(grid)), max(1, len(grid) // 32)):
            shares = dense_component_mass(scene, grid.origins[batch], grid.directions[batch],
                                          grid.t_fars[batch])
            for i, share in zip(batch, shares):
                # Rays on which one component clearly holds the mass; near ties
                # are decided by quadrature noise, not by the code under test.
                if share.max() >= SEGMENT_MARGIN and len(self.rays) < p["segment_rays"]:
                    self.rays.append(grid.ray(int(i)))
                    self.expected.append(int(np.argmax(share)))
            if len(self.rays) == p["segment_rays"]:
                break
        else:
            raise RuntimeError("too few pixel rays with a clearly dominant component")
        self.quad = rf.QuadratureConfig(n_coarse=p["n_coarse"], n_fine=p["n_fine"],
                                        seed=int(rng.integers(2**31)))
        self.bias_seed = int(rng.integers(2**30))
        self.maps = []
        for _ in range(p["ari_calls"]):
            truth = rng.integers(0, p["ari_labels"], p["ari_pixels"])
            pred = rng.permutation(p["ari_labels"])[truth]
            noisy = rng.random(truth.shape) < 0.25
            pred[noisy] = rng.integers(0, p["ari_labels"], int(noisy.sum()))
            self.maps.append((pred, truth, pair_count_ari(pred.ravel(), truth.ravel())))

    def round(self, index: int, threads: int | None = None) -> dict:
        p = self.p
        set_threads(self.nproc if threads is None else threads)
        started = time.perf_counter()
        demo = estimlab.stratified_bias_demo(k=p["k"], n_trials=p["trials"],
                                             seed=self.bias_seed + index, hierarchical=True)
        t_bias = time.perf_counter()
        segments = [rf.segment_ray(self.scene, ray, self.quad) for ray in self.rays]
        t_segment = time.perf_counter()
        scores = [rf.ari(pred, truth) for pred, truth, _ in self.maps]
        ended = time.perf_counter()

        se = demo["miss_rate_std_error"]
        self.check(se > 0 and abs(demo["miss_rate"] - demo["analytic_miss_probability"]) <= MISS_RATE_SE * se,
                   f"bias-demo miss rate {demo['miss_rate']} vs closed form "
                   f"{demo['analytic_miss_probability']} (SE {se})")
        for got, want in zip(segments, self.expected):
            self.check(got == want, f"segment_ray label {got}, analytic label {want}")
        for got, (_, _, want) in zip(scores, self.maps):
            self.check(got == want, f"ari {got!r} != pair-count oracle {want!r}")
        return {"round": ended - started, "bias": t_bias - started,
                "segment": t_segment - t_bias, "ari": ended - t_segment}


WORKLOADS = {cls.name: cls for cls in (Render, Fit, Probe)}
