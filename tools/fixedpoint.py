"""Fixed-point check: do two source trees give the same seeded outputs?

    python3 tools/fixedpoint.py --base REV [--src DIR] [--size {tiny,full}] [--allow NAME ...]

Exports ``src/`` at git revision REV with ``git archive`` into a temporary
directory.  Then runs one fixed manifest of public calls in subprocesses,
under that tree and under ``--src`` (default: this checkout's ``src/``), at
``OBSURF_THREADS`` 1 and at the core count.  The manifest:

- every ``RenderedView`` field of ``render_ray_grid`` on scenes of 1, 2, 5,
  8, 9 and 16 components of all four kinds, for a camera image, for strips
  of 1 and 2 rays (1-row and 2-row blocks) and for strips 1 and 2 rays
  wider than a render block (a last block of 1 or 2 rows);
- ``hierarchical_render``, ``composite_render``, ``component_marginal`` and
  ``segment_ray`` on single rays, for stratified, unstratified and
  coarse-only quadratures;
- on the same scenes, at a fixed set of points that includes vacuum: the
  point queries ``evaluate``, ``density``, ``density_components``,
  ``evaluate_components`` and ``composite_eval``, ``evaluate`` and
  ``density`` of ``merged_field(scene)`` and of each component, all on the
  points at once and on each point alone;
- every value ``stratified_bias_demo`` returns, plain and hierarchical, for
  2 trials (one 2-row block) and for 1 and 2 trials more than a block
  holds (a last block of 1 or 2 rows);
- the files the CLI ``render`` command writes for a 3-view render, and the
  stdout of the CLI ``bias-demo`` command, plain and ``--hierarchical``;
- for generated scenes of each object-kind mix: ``sample_scene`` params and
  metadata, ``ground_truth_maps`` depth and mask and every component's
  ``surface_distance`` on a camera grid, ``sample_observations`` and
  ``surface_samples`` as stacked origins, directions, depths and colors, and
  ``total_loss`` and ``loss_gradient`` on the observations; for the first
  seed of the mix of every kind, also ``sample_observations`` at few
  panels per ray (short march windows);
- on the same generated scenes, ``CompositeScene.with_params`` for the
  scene's own parameters and for edge vectors (NaN, -0.0, zero widths): the
  rebuilt attributes with their types, or the error's type and message;
- the fit benchmark's batches: ``sample_observations`` of a generated scene
  of 8 objects (3 blobs, 3 spheres, 2 boxes) and the ground, 9 components,
  on each view of the 3-view rig, plain and with ``censored="boundary"``
  and ``depth_offset=-0.035`` (escaped rays reported, offset depths
  dropped), and ``total_loss`` and ``loss_gradient`` on a fixed draw of a
  batch of the plain observations;
- ``fit`` on those observations from the scene with its object centres
  moved, for 12 steps while the overlap weight ramps in: the final
  parameters and scene, the skipped steps and every trace value;
- the files of a 3-view CLI ``generate``, of a short CLI ``fit`` to that
  dataset and of a CLI ``render`` of the fitted scene, and the stdout of CLI
  ``eval`` between that render and the dataset.

Prints one line per output and thread count: ``identical``, or the max
absolute and max relative difference.  Exits 1 if any output differs or
only one tree produced it, else 0.  A manifest group that a tree cannot
run for want of an API (AttributeError or ImportError) prints one line,
``absent from base`` or ``change`` with the error, in place of its
outputs, and counts as a difference; any other error is fatal.
``--allow NAME`` (repeatable) names an output that a change means to
alter: where it differs the line reads ``allowed`` with its difference,
and it does not fail the run; a NAME that matches no output exits 2.
``--size tiny`` shrinks every image and sample count, for a smoke test.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per size: camera image (width, height), CLI render resolution, the
# quadratures (name, n_coarse, n_fine, stratified), the single-ray pixels,
# the bias-demo bin counts, the CLI bias-demo trial count, the generated
# scenes' seeds and image size, the observation sampler's panels and its
# few panels, the CLI fit's iteration count, and the fit benchmark's image
# size, panels and batch size.
SIZES = {
    "tiny": {"image": (6, 5), "cli_resolution": 8, "pixels": (0, 7, 14, 29),
             "quads": [("main", 8, 16, True), ("unstratified", 7, 9, False), ("coarse", 5, 0, True)],
             "bias_ks": (50,), "cli_trials": 300,
             "gen_seeds": (0,), "gen_resolution": 8, "n_panels": 64, "few_panels": 12, "fit_iterations": 5,
             "fit_bench": (6, 64, 32)},
    "full": {"image": (24, 24), "cli_resolution": 64, "pixels": (0, 77, 150, 290, 301, 433, 500, 575),
             "quads": [("main", 64, 128, True), ("unstratified", 32, 64, False), ("coarse", 64, 0, True)],
             "bias_ks": (8, 50, 129), "cli_trials": 10_000,
             "gen_seeds": (0, 1, 2), "gen_resolution": 32, "n_panels": 2048, "few_panels": 96, "fit_iterations": 50,
             "fit_bench": (16, 2048, 512)},
}
# Object-kind mixes of the generated scenes: every kind, then each alone.
KIND_MIXES = {"all": ("gaussian_blob", "soft_sphere", "soft_box"), "blob": ("gaussian_blob",),
              "sphere": ("soft_sphere",), "box": ("soft_box",)}
COMPONENT_COUNTS = (1, 2, 5, 8, 9, 16)
# Object kinds of the fit benchmark's scene.
FIT_BENCH_MIX = {"gaussian_blob": 3, "soft_sphere": 3, "soft_box": 2}
# Steps of the manifest's fit from the fit benchmark's observations.
FIT_BENCH_ITERATIONS = 12
# Sample points per block (rayfields._threads.BLOCK_POINTS), so the manifest
# can end a render or a bias demo on a block of 1 or 2 rows through public
# calls.
BLOCK_POINTS = 32_768
# Key of the emitted record of which outputs each group gave and which
# groups were absent; no output name starts with an underscore.
GROUPS_KEY = "__groups__"


def _scene(rf, n: int):
    """A fixed scene of n components cycling blob, sphere, box and ground."""
    rng = np.random.default_rng(1000 + n)
    comps = []
    for i in range(n):
        center = (*rng.uniform(-1.2, 1.2, 2), rng.uniform(0.2, 1.2))
        color = tuple(rng.uniform(0.0, 1.0, 3))
        amplitude = float(rng.uniform(3.0, 12.0))
        kind = i % 4
        if kind == 0:
            comps.append(rf.GaussianBlobField(center=center, scale=tuple(rng.uniform(0.2, 0.7, 3)),
                                              amplitude=amplitude, color=color))
        elif kind == 1:
            comps.append(rf.SoftSphereField(center=center, radius=float(rng.uniform(0.2, 0.6)), softness=0.05,
                                            amplitude=amplitude, color=color))
        elif kind == 2:
            comps.append(rf.SoftBoxField(center=center, half_size=tuple(rng.uniform(0.2, 0.5, 3)), softness=0.04,
                                         amplitude=amplitude, color=color))
        else:
            comps.append(rf.GroundPlaneField(softness=0.05, amplitude=amplitude, color_a=color,
                                             color_b=tuple(rng.uniform(0.0, 1.0, 3)), checker_size=0.5,
                                             dome_radius=3.0 + i, dome_color=(0.5, 0.6, 0.7)))
    return rf.CompositeScene(tuple(comps), t_far=12.0)


def _query_points() -> np.ndarray:
    """Points (N, 3) for the point queries: 40 around the scenes' objects,
    then 3 so far from them that every object kind's density underflows to
    0 (vacuum on scenes without ground, inside the dome where there is one)."""
    near = np.random.default_rng(77).uniform((-2.0, -2.0, -0.3), (2.0, 2.0, 2.0), (40, 3))
    return np.concatenate([near, [(0.0, 0.0, 60.0), (-80.0, 30.0, 5.0), (50.0, -50.0, 50.0)]])


def _point_queries(rf, scene, tag: str, out: dict) -> None:
    """``evaluate`` and ``density`` of the scene, of its merged view and of
    each component, and the scene's ``evaluate_components``,
    ``density_components`` and ``composite_eval``, on ``_query_points`` as
    one (N, 3) call and point by point; single-point results are stacked."""
    pts = _query_points()
    queries = {"scene": scene, "merged": rf.merged_field(scene)}
    queries.update((f"component{i}", comp) for i, comp in enumerate(scene.components))
    for name, query in queries.items():
        out[f"{tag}.{name}.evaluate.sigma"], out[f"{tag}.{name}.evaluate.color"] = query.evaluate(pts)
        out[f"{tag}.{name}.density"] = query.density(pts)
        out[f"{tag}.{name}.evaluate.single"] = np.array([[s, *c] for s, c in map(query.evaluate, pts)])
        out[f"{tag}.{name}.density.single"] = np.array([query.density(p) for p in pts])
    out[f"{tag}.scene.evaluate_components.sigmas"], out[f"{tag}.scene.evaluate_components.colors"] = \
        scene.evaluate_components(pts)
    out[f"{tag}.scene.density_components"] = scene.density_components(pts)
    singles = [scene.evaluate_components(p) for p in pts]
    out[f"{tag}.scene.evaluate_components.single"] = np.array([np.append(s, c) for s, c in singles])
    out[f"{tag}.scene.density_components.single"] = np.array([scene.density_components(p) for p in pts])
    points = [rf.composite_eval(scene, p) for p in pts]
    out[f"{tag}.scene.composite_eval"] = np.array([[q.sigma, *q.sigmas, *q.color, q.color_defined] for q in points])


def _camera(rf, width: int, height: int):
    return rf.Camera(position=(4.5, 1.0, 2.2), look_at=(0.0, 0.0, 0.5), width=width, height=height)


def _cli(cli, argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of one CLI command; stderr is discarded."""
    captured = io.StringIO()
    with open(os.devnull, "w") as devnull:
        stdout, stderr = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = captured, devnull
        try:
            code = cli.main(argv)
        finally:
            sys.stdout, sys.stderr = stdout, stderr
    return code, captured.getvalue().encode()


def _stacked(samples) -> np.ndarray:
    """RGB-D samples as rows (origin, direction, depth, color)."""
    return np.array([[*s.ray.origin, *s.ray.direction, s.depth, *s.color] for s in samples]).reshape(-1, 10)


def _files(out: dict, prefix: str, directory: str) -> None:
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[f"{prefix}.{name}"] = np.frombuffer(fh.read(), dtype=np.uint8)


def _fit_bench_data(rf, resolution: int, n_panels: int, **sampler):
    """The fit benchmark's scene, the first generated scene with the objects
    of ``FIT_BENCH_MIX`` (the ground last), and its observations, one batch
    per view of the rig; ``sampler`` passes further ``sample_observations``
    options."""
    from rayfields import scenegen

    n_objects = sum(FIT_BENCH_MIX.values())
    config = rf.SceneGenConfig(n_objects_min=n_objects, n_objects_max=n_objects, resolution=resolution)
    rng = np.random.default_rng(19)
    for _ in range(500):
        try:
            scene, meta = rf.sample_scene(config, rng)
        except rf.PlacementError:
            continue
        kinds = [entry["kind"] for entry in meta]
        if all(kinds.count(kind) == count for kind, count in FIT_BENCH_MIX.items()):
            break
    else:
        raise RuntimeError(f"no generated scene has the object mix {FIT_BENCH_MIX}")
    views = [rf.sample_observations(scene, rf.pinhole_rays(camera, scene.t_far), seed=v, n_panels=n_panels,
                                    **sampler)
             for v, camera in enumerate(rf.rig_views(scenegen.default_camera(config)))]
    return scene, views


def _fit_bench(rf, resolution: int, n_panels: int, batch_size: int, out: dict) -> None:
    """The fit benchmark's batches: its observations view by view, plain and
    with escaped rays at the boundary and depths offset back, and the loss
    and its gradient on a fixed draw of ``batch_size`` of the plain ones
    (overlap penalty ramped in)."""
    scene, views = _fit_bench_data(rf, resolution, n_panels)
    out["fit_bench.params"] = scene.params()
    for v, observations in enumerate(views):
        out[f"fit_bench.view{v}.sample_observations"] = _stacked(observations)
    _, boundary = _fit_bench_data(rf, resolution, n_panels, censored="boundary", depth_offset=-0.035)
    for v, observations in enumerate(boundary):
        out[f"fit_bench.view{v}.sample_observations.boundary"] = _stacked(observations)
    samples = [sample for observations in views for sample in observations]
    draw = np.random.default_rng(5).choice(len(samples), size=min(batch_size, len(samples)), replace=False)
    batch = [samples[i] for i in draw]
    loss_config = rf.LossConfig()
    iteration = (loss_config.ramp_start + loss_config.ramp_end) // 2
    total, breakdown = rf.total_loss(scene, batch, iteration, loss_config, rng=5)
    out["fit_bench.total_loss"] = np.array([total, *breakdown.values()])
    out["fit_bench.loss_gradient"] = rf.loss_gradient(scene, batch, iteration, loss_config, rng=5)


def _fit_bench_fit(rf, resolution: int, n_panels: int, batch_size: int, out: dict) -> None:
    """``fit`` on the fit benchmark's observations from its scene with the
    object centres moved, for ``FIT_BENCH_ITERATIONS`` steps of
    ``batch_size`` rays, the overlap weight ramping in from zero to its
    maximum inside the run: the final parameters (as returned and as the
    final scene holds them), the skipped steps and every trace value."""
    scene, views = _fit_bench_data(rf, resolution, n_panels)
    rng = np.random.default_rng(23)
    start = []
    for comp in scene.components:
        params = comp.params()
        if comp.kind != "ground_plane":
            params[:3] += rng.normal(0.0, 0.15, 3)  # every object kind leads with its centre
        start.append(comp.with_params(params))
    loss = rf.LossConfig(ramp_start=FIT_BENCH_ITERATIONS // 4, ramp_end=3 * FIT_BENCH_ITERATIONS // 4)
    config = rf.FitConfig(iterations=FIT_BENCH_ITERATIONS, batch_size=batch_size, seed=3, loss=loss)
    samples = [sample for observations in views for sample in observations]
    report = rf.fit(rf.CompositeScene(tuple(start), t_far=scene.t_far), samples, config)
    out["fit_bench.fit.final_params"] = report.final_params
    out["fit_bench.fit.final_scene"] = report.final_scene.params()
    out["fit_bench.fit.skipped_steps"] = np.asarray(report.skipped_steps)
    for key in report.trace[0]:
        out[f"fit_bench.fit.trace.{key}"] = np.array([entry[key] for entry in report.trace])


def _scene_rays(rf, n: int, p: dict, out: dict) -> None:
    """Every ``RenderedView`` field of ``_scene(rf, n)`` for the camera image
    and the strips, and the single-ray calls on its pixels, per quadrature."""
    scene = _scene(rf, n)
    for qname, n_coarse, n_fine, stratified in p["quads"]:
        quad = rf.QuadratureConfig(n_coarse=n_coarse, n_fine=n_fine, seed=n, stratified=stratified)
        image = rf.pinhole_rays(_camera(rf, *p["image"]), scene.t_far)
        block = max(1, BLOCK_POINTS // (n_coarse + n_fine))
        grids = {"image": image}
        if qname == "main":
            for width in (1, 2, block + 1, block + 2):
                grids[f"strip{width}"] = rf.pinhole_rays(_camera(rf, width, 1), scene.t_far)
        for gname, grid in grids.items():
            view = rf.render_ray_grid(scene, grid, quad)
            for field, value in vars(view).items():
                out[f"scene{n}.{qname}.{gname}.{field}"] = np.asarray(value)
        for pixel in p["pixels"]:
            ray = image.ray(pixel)
            tag = f"scene{n}.{qname}.ray{pixel}"
            for field, value in vars(rf.hierarchical_render(scene, ray, quad)).items():
                out[f"{tag}.hierarchical_render.{field}"] = np.asarray(value)
            both = rf.composite_render(scene, ray, quad)
            out[f"{tag}.composite_render.marginal"] = both.marginal
            out[f"{tag}.composite_render.residual"] = np.asarray(both.residual)
            out[f"{tag}.composite_render.color"] = both.render.color
            marginal, residual = rf.component_marginal(scene, ray, quad)
            out[f"{tag}.component_marginal"] = np.append(marginal, residual)
            out[f"{tag}.segment_ray"] = np.asarray(rf.segment_ray(scene, ray, quad))


def _bias_demo(p: dict, out: dict) -> None:
    from rayfields import estimlab

    for k in p["bias_ks"]:
        for hierarchical in (False, True):
            mode = "hierarchical" if hierarchical else "plain"
            block = max(1, BLOCK_POINTS // (2 * k if hierarchical else k))
            for n_trials in (2, block + 1, block + 2):
                demo = estimlab.stratified_bias_demo(k=k, n_trials=n_trials, seed=k + n_trials,
                                                     hierarchical=hierarchical)
                for key, value in demo.items():
                    out[f"bias_demo.k{k}.{mode}.n{n_trials}.{key}"] = np.asarray(value)


def _cli_bias_demo(p: dict, out: dict) -> None:
    from rayfields import cli

    for flags in ([], ["--hierarchical"]):
        code, stdout = _cli(cli, ["bias-demo", "--n-trials", str(p["cli_trials"]), "--seed", "7", *flags])
        name = "cli.bias-demo" + "".join(f".{flag[2:]}" for flag in flags)
        out[f"{name}.exit"] = np.asarray(code)
        out[f"{name}.stdout"] = np.frombuffer(stdout, dtype=np.uint8)


def _cli_render(rf, p: dict, out: dict) -> None:
    from rayfields import cli

    n_coarse, n_fine = p["quads"][0][1:3]
    with tempfile.TemporaryDirectory() as work:
        scene_path = os.path.join(work, "scene.json")
        rf.save_scene(scene_path, rf.scene_to_doc(_scene(rf, 5)))
        render_dir = os.path.join(work, "render")
        argv = ["render", "--scene", scene_path, "--out", render_dir, "--resolution", str(p["cli_resolution"]),
                "--views", "3", "--n-coarse", str(n_coarse), "--n-fine", str(n_fine), "--seed", "7"]
        out["cli.render.exit"] = np.asarray(_cli(cli, argv)[0])
        _files(out, "cli.render", render_dir)


def _gen_config(rf, mix: str, p: dict):
    """The scene generator's settings for one object-kind mix."""
    return rf.SceneGenConfig(kinds=KIND_MIXES[mix], n_objects_max=6, resolution=p["gen_resolution"], checker_size=0.5)


def _generated(rf, mix: str, p: dict, out: dict) -> None:
    """The generated scenes of one object-kind mix, per seed."""
    from rayfields import scenegen

    loss_config = rf.LossConfig(n_free_samples=3)
    config = _gen_config(rf, mix, p)
    for seed in p["gen_seeds"]:
        tag = f"scenegen.{mix}.seed{seed}"
        scene, meta = rf.sample_scene(config, np.random.default_rng(seed))
        out[f"{tag}.params"] = scene.params()
        for i, entry in enumerate(meta):
            for key, value in entry.items():  # text as its bytes
                value = np.frombuffer(value.encode(), dtype=np.uint8) if isinstance(value, str) else value
                out[f"{tag}.object{i}.{key}"] = np.asarray(value)
        grid = rf.pinhole_rays(scenegen.default_camera(config), scene.t_far)
        out[f"{tag}.depth"], out[f"{tag}.mask"] = scenegen.ground_truth_maps(scene, grid)
        for i, comp in enumerate(scene.components):
            out[f"{tag}.surface_distance{i}"] = rf.surface_distance(comp, grid.origins, grid.directions)
        observations = rf.sample_observations(scene, grid, seed=seed, n_panels=p["n_panels"])
        out[f"{tag}.sample_observations"] = _stacked(observations)
        if mix == "all" and seed == p["gen_seeds"][0]:
            out[f"{tag}.sample_observations.few_panels"] = _stacked(
                rf.sample_observations(scene, grid, seed=seed, n_panels=p["few_panels"]))
        out[f"{tag}.surface_samples"] = _stacked(rf.surface_samples(scene, grid))
        total, breakdown = rf.total_loss(scene, observations, 3, loss_config, rng=seed)
        out[f"{tag}.total_loss"] = np.array([total, *breakdown.values()])
        out[f"{tag}.loss_gradient"] = rf.loss_gradient(scene, observations, 3, loss_config, rng=seed)


def _with_params(rf, p: dict, out: dict) -> None:
    """``CompositeScene.with_params`` on the generated scene of every mix and
    seed, for its own parameter vector and for edge vectors: a NaN first, -0.0
    in the first width, amplitude and last color slot, a zero first and last
    width, and a zero first width after a NaN last.  An accepted vector gives
    every rebuilt component attribute (as float64, in name order) and the
    attributes' kinds, names and types; a rejected one its error's type and
    message."""
    for mix in KIND_MIXES:
        for seed in p["gen_seeds"]:
            scene, _ = rf.sample_scene(_gen_config(rf, mix, p), np.random.default_rng(seed))
            base = scene.params()
            domains = [domain for comp in scene.components for _, size, domain in comp.layout for _ in range(size)]
            width, last_width = domains.index("width"), len(domains) - 1 - domains[::-1].index("width")
            edits = {"own": {}, "nan": {0: np.nan}, "negative_zero_width": {width: -0.0},
                     "negative_zero_amplitude": {domains.index("nonneg"): -0.0},
                     "negative_zero_color": {len(base) - 1: -0.0}, "zero_width": {width: 0.0},
                     "zero_last_width": {last_width: 0.0}, "nan_last_zero_width": {len(base) - 1: np.nan, width: 0.0}}
            for case, edit in edits.items():
                vector = base.copy()
                for at, value in edit.items():
                    vector[at] = value
                tag = f"with_params.{mix}.seed{seed}.{case}"
                try:
                    rebuilt = scene.with_params(vector)
                except ValueError as exc:
                    out[f"{tag}.error"] = np.frombuffer(f"{type(exc).__name__}: {exc}".encode(), dtype=np.uint8)
                    continue
                attributes = [(comp.kind, name, value) for comp in rebuilt.components
                              for name, value in sorted(vars(comp).items())]
                out[f"{tag}.attributes"] = np.concatenate([np.asarray(value, dtype=np.float64).ravel()
                                                           for _, _, value in attributes])
                types = " ".join(f"{kind}.{name}:{type(value).__name__}" for kind, name, value in attributes)
                out[f"{tag}.types"] = np.frombuffer(types.encode(), dtype=np.uint8)


def _cli_dataset(p: dict, out: dict) -> None:
    """A CLI ``generate``, a ``fit`` to its dataset, a ``render`` of the
    fitted scene and an ``eval`` of that render against the dataset."""
    from rayfields import cli

    n_coarse, n_fine = p["quads"][0][1:3]
    with tempfile.TemporaryDirectory() as work:
        data, fitted, rendered = (os.path.join(work, name) for name in ("data", "fit", "render"))
        commands = [
            ("generate", data, ["generate", "--scene-seed", "7", "--resolution", str(p["gen_resolution"]),
                                "--n-coarse", str(n_coarse), "--n-fine", str(n_fine), "--seed", "7"]),
            ("fit", fitted, ["fit", "--data", data, "--init-random", "3", "--iterations", str(p["fit_iterations"]),
                             "--batch-size", "64", "--fit-seed", "1"]),
            ("fit_render", rendered, ["render", "--scene", os.path.join(fitted, "scene.json"), "--views", "3",
                                      "--n-coarse", str(n_coarse), "--n-fine", str(n_fine), "--seed", "7"]),
        ]
        for name, directory, argv in commands:
            out[f"cli.{name}.exit"] = np.asarray(_cli(cli, [*argv, "--out", directory])[0])
            _files(out, f"cli.{name}", directory)
        code, stdout = _cli(cli, ["eval", "--pred", rendered, "--truth", data])
        out["cli.eval.exit"], out["cli.eval.stdout"] = np.asarray(code), np.frombuffer(stdout, dtype=np.uint8)


def _manifest(rf, p: dict) -> list:
    """The manifest as (group, fill) pairs; ``fill(out)`` adds the group's
    outputs to ``out``."""
    groups = []
    for n in COMPONENT_COUNTS:
        groups.append((f"scene{n}.points", lambda out, n=n: _point_queries(rf, _scene(rf, n), f"scene{n}.points", out)))
        groups.append((f"scene{n}.rays", lambda out, n=n: _scene_rays(rf, n, p, out)))
    groups += [("bias_demo", lambda out: _bias_demo(p, out)),
               ("cli.bias-demo", lambda out: _cli_bias_demo(p, out)),
               ("cli.render", lambda out: _cli_render(rf, p, out))]
    groups += [(f"scenegen.{mix}", lambda out, mix=mix: _generated(rf, mix, p, out)) for mix in KIND_MIXES]
    groups.append(("with_params", lambda out: _with_params(rf, p, out)))
    groups += [("fit_bench", lambda out: _fit_bench(rf, *p["fit_bench"], out)),
               ("fit_bench.fit", lambda out: _fit_bench_fit(rf, *p["fit_bench"], out)),
               ("cli.dataset", lambda out: _cli_dataset(p, out))]
    return groups


def _emit(size: str) -> dict:
    """Every manifest output, by name, from the rayfields on sys.path, and
    under ``GROUPS_KEY`` a JSON record of the output names of each group
    and of the groups whose API this tree lacks: a group that raises
    AttributeError or ImportError gives no output and is recorded with its
    error.  Any other error propagates."""
    import rayfields as rf

    outputs, names, absent = {}, {}, {}
    for group, fill in _manifest(rf, SIZES[size]):
        out = {}
        try:
            fill(out)
        except (AttributeError, ImportError) as exc:
            absent[group] = f"{type(exc).__name__}: {exc}"
            continue
        outputs.update(out)
        names[group] = sorted(out)
    outputs[GROUPS_KEY] = np.asarray(json.dumps({"names": names, "absent": absent}))
    return outputs


def _difference(a: np.ndarray, b: np.ndarray) -> str | None:
    """None when a and b are the same bits, else how they differ."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    a, b = a.astype(np.float64), b.astype(np.float64)
    nan = np.isnan(a) != np.isnan(b)
    both = ~(np.isnan(a) | np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)[both]
        rel = diff / np.maximum(np.abs(a[both]), np.finfo(np.float64).tiny)
    text = f"max abs {diff.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}"
    return text + (f", NaN at {int(nan.sum())} other places" if nan.any() else "")


def _export(rev: str, dest: str) -> str:
    """``src/`` of git revision ``rev`` extracted under ``dest``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def _run(src: str, threads: int, size: str, path: str) -> dict:
    """Manifest outputs of the tree at ``src`` at ``threads`` workers."""
    env = {**os.environ, "PYTHONPATH": src, "OBSURF_THREADS": str(threads)}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", path, "--size", size, "--expect", src],
                   check=True, env=env)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision whose src/ is the reference")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to check (default: src/)")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--allow", action="append", default=[], metavar="NAME",
                        help="an output that may differ (repeatable)")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--expect", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.emit:
        import rayfields

        if args.expect and not os.path.abspath(rayfields.__file__).startswith(os.path.abspath(args.expect)):
            raise SystemExit(f"rayfields imported from {rayfields.__file__}, not from {args.expect}")
        np.savez(args.emit, **_emit(args.size))
        return 0
    if not args.base:
        parser.error("--base is required")

    thread_counts = sorted({1, os.cpu_count() or 1})
    with tempfile.TemporaryDirectory() as work:
        base_src = _export(args.base, os.path.join(work, "base"))
        runs = {(tree, t): _run(src, t, args.size, os.path.join(work, f"{tree}-{t}.npz"))
                for tree, src in (("base", base_src), ("change", os.path.abspath(args.src)))
                for t in thread_counts}

    records = {key: json.loads(str(run.pop(GROUPS_KEY))) for key, run in runs.items()}
    absent: dict[str, dict[str, str]] = {}  # group: {tree: error}
    for (tree, _), record in records.items():
        for group, error in record["absent"].items():
            absent.setdefault(group, {}).setdefault(tree, error)
    hidden = {name for record in records.values() for group in absent for name in record["names"].get(group, ())}
    names = sorted(set().union(*(run.keys() for run in runs.values())))
    unknown = sorted(set(args.allow) - set(names))
    if unknown:
        parser.error(f"--allow names no output: {', '.join(unknown)}")
    names = [name for name in names if name not in hidden]
    differ = allowed = 0
    for group, errors in sorted(absent.items()):
        print(f"{group}: absent from {' and '.join(sorted(errors))} ({next(iter(errors.values()))})")
        differ += 1
    for name in names:
        verdicts = []
        for t in thread_counts:
            base, change = runs["base", t].get(name), runs["change", t].get(name)
            if base is None or change is None:
                verdict = f"absent from {'base' if base is None else 'change'}"
                differ += 1
            elif (verdict := _difference(base, change)) is None:
                verdict = "identical"
            elif name in args.allow:
                verdict = f"allowed, {verdict}"
                allowed += 1
            else:
                differ += 1
            verdicts.append(f"[{t}] {verdict}")
        print(f"{name}: {'  '.join(verdicts)}")
    threads = " and ".join(map(str, thread_counts))
    verdict = f"{differ} differ" if differ else "all identical"
    if allowed:
        verdict += f" except {allowed} allowed"
    print(f"fixedpoint: {len(names)} outputs at OBSURF_THREADS {threads} against {args.base}: {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
