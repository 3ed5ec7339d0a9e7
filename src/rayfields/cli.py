"""Command-line front end.

Subcommands:

* ``render``    — render a scene document to per-view color/depth/mask files.
* ``generate``  — sample a random scene and write it plus its RGB-D dataset.
* ``fit``       — fit a scene's parameters to a rendered RGB-D dataset.
* ``bias-demo`` — run the thin-slab stratified-sampling bias measurement.
* ``eval``      — compare two rendered dataset directories (ARI / MSE).

Exit codes: 0 success, 2 bad input, 3 scene generation failed, 4 numerical
failure.  All randomness is seeded and all outputs are byte-stable: rerunning
a command with the same arguments reproduces identical files regardless of
the worker-thread count (see the OBSURF_THREADS environment variable).
Timings go to stderr only.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import estimlab, images, metrics
from ._threads import resolve_workers
from .compose import CompositeScene, RenderedView, render_ray_grid
from .fitting import FitConfig, FitDivergence, fit
from .geometry import Camera, pinhole_rays, rig_views
from .losses import LossConfig, RgbdSample
from .scenedoc import (
    SceneFormatError,
    dumps_canonical,
    load_scene,
    save_scene,
    scene_to_doc,
)
from .scenegen import (PlacementError, SceneGenConfig, _view_samples, _view_seed, default_camera, render_dataset,
                       sample_scene)
from .transport import QuadratureConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GENERATION = 3
EXIT_NUMERICAL = 4

_CHECKER_CELL = 8
_CHECKER_DARK = 0.35
_CHECKER_LIGHT = 0.65


class _InputError(Exception):
    """User-facing input problem (bad file, bad combination of flags)."""


def _stderr(msg: str) -> None:
    print(msg, file=sys.stderr)


def _checkerboard(h: int, w: int) -> np.ndarray:
    rows = (np.arange(h) // _CHECKER_CELL)[:, None]
    cols = (np.arange(w) // _CHECKER_CELL)[None, :]
    dark = (rows + cols) % 2 == 0
    board = np.where(dark, _CHECKER_DARK, _CHECKER_LIGHT)
    return np.repeat(board[:, :, None], 3, axis=2)


def _view_color(view: RenderedView) -> np.ndarray:
    """Rendered color over an image-space checkerboard where rays pass through."""
    h, w = view.alpha.shape
    alpha = view.alpha[:, :, None]
    return view.color * alpha + _checkerboard(h, w) * (1.0 - alpha)


def _background_component(scene: CompositeScene) -> int | None:
    """Index of a trailing ground-plane component, if the scene has one."""
    if scene.components[-1].kind == "ground_plane":
        return scene.n - 1
    return None


def _labels_to_mask(labels: np.ndarray, background: int | None) -> np.ndarray:
    """Component labels (-1 empty) -> mask ids (0 empty/background, 1..n objects)."""
    mask = labels + 1
    if background is not None:
        mask = np.where(labels == background, 0, mask)
    return np.where(labels < 0, 0, mask).astype(np.int32)


def _write_view_files(out_dir: str, index: int, rgb: np.ndarray, depth: np.ndarray,
                      mask: np.ndarray) -> list[str]:
    paths = [
        os.path.join(out_dir, f"view_{index}.ppm"),
        os.path.join(out_dir, f"view_{index}_depth.pfm"),
        os.path.join(out_dir, f"view_{index}_mask.pgm"),
    ]
    images.write_ppm(paths[0], rgb)
    images.write_pfm(paths[1], np.where(np.isnan(depth), np.inf, depth))
    images.write_pgm(paths[2], mask)
    return paths


def _load_document(path: str):
    try:
        return load_scene(path)
    except FileNotFoundError as exc:
        raise _InputError(f"scene file not found: {path}") from exc
    except SceneFormatError as exc:
        raise _InputError(f"bad scene document {path}: {exc}") from exc


def _quad_from_args(args, doc_quad: QuadratureConfig | None) -> QuadratureConfig:
    # Two coarse samples is the quadrature minimum; zero fine samples renders coarse-only.
    _require_at_least(2, args, "--n-coarse")
    _require_at_least(0, args, "--n-fine", "--seed")
    quad = doc_quad or QuadratureConfig()
    if args.n_coarse is not None:
        quad = replace(quad, n_coarse=args.n_coarse)
    if args.n_fine is not None:
        quad = replace(quad, n_fine=args.n_fine)
    if args.seed is not None:
        quad = replace(quad, seed=args.seed)
    return quad


def _add_quad_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-coarse", type=int, default=None, help="coarse samples per ray")
    p.add_argument("--n-fine", type=int, default=None, help="fine samples per ray")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")


def _require_at_least(minimum: int, args, *flags: str) -> None:
    """Reject an integer flag below ``minimum`` as bad input."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < minimum:
            raise _InputError(f"{flag} must be >= {minimum}, got {value}")


def _ensure_out_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _image_too_large(camera: Camera) -> _InputError:
    return _InputError(f"a {camera.width}x{camera.height} image does not fit in memory")


# ----------------------------------------------------------------- render


def _cmd_render(args) -> int:
    _require_at_least(1, args, "--resolution")
    doc = _load_document(args.scene)
    scene = doc.scene
    camera = doc.camera
    if camera is None:
        camera = default_camera(SceneGenConfig(resolution=args.resolution or 64))
    if args.resolution is not None:
        camera = replace(camera, width=args.resolution, height=args.resolution)
    quad = _quad_from_args(args, doc.quadrature)
    cameras = rig_views(camera)[: args.views]

    _ensure_out_dir(args.out)
    background = _background_component(scene)
    started = time.perf_counter()
    written: list[str] = []
    for v, cam in enumerate(cameras):
        try:
            view = render_ray_grid(scene, pinhole_rays(cam, scene.t_far), replace(quad, seed=_view_seed(quad.seed, v)))
        except MemoryError as exc:
            raise _image_too_large(cam) from exc
        if not np.all(np.isfinite(view.color)):
            _stderr("error: render produced non-finite colors")
            return EXIT_NUMERICAL
        mask = _labels_to_mask(view.labels, background)
        written += _write_view_files(args.out, v, _view_color(view), view.depth, mask)
    _stderr(f"rendered {len(cameras)} view(s) in {time.perf_counter() - started:.2f}s "
            f"({resolve_workers()} worker threads)")
    for path in written:
        print(path)
    return EXIT_OK


# --------------------------------------------------------------- generate


def _cmd_generate(args) -> int:
    _require_at_least(1, args, "--resolution")
    _require_at_least(0, args, "--scene-seed")
    quad = _quad_from_args(args, None)
    try:
        config = SceneGenConfig(
            n_objects_min=args.n_objects_min,
            n_objects_max=args.n_objects_max,
            resolution=args.resolution,
        )
    except ValueError as exc:
        raise _InputError(f"bad object counts {args.n_objects_min}..{args.n_objects_max}: {exc}") from exc
    rng = np.random.default_rng(args.scene_seed)
    try:
        scene, meta = sample_scene(config, rng)
    except PlacementError as exc:
        _stderr(f"error: {exc}")
        return EXIT_GENERATION

    camera = default_camera(config)
    _ensure_out_dir(args.out)
    started = time.perf_counter()
    try:
        views = render_dataset(scene, rig_views(camera)[: args.views], None, quad)
    except MemoryError as exc:
        raise _image_too_large(camera) from exc
    written: list[str] = []
    for v, gt in enumerate(views):
        if not np.all(np.isfinite(gt.rgb)):
            _stderr("error: dataset render produced non-finite colors")
            return EXIT_NUMERICAL
        written += _write_view_files(args.out, v, gt.rgb, gt.depth, gt.mask)
    objects = [
        {
            "kind": m["kind"],
            "name": m["name"],
            "xy": _round_floats(m["xy"]),
            "size": round(float(m["size"]), 12),
            "color": _round_floats(m["color"]),
        }
        for m in meta
    ]
    names = tuple(m["name"] for m in meta) + ("background",)
    doc = scene_to_doc(scene, sigma_max=config.sigma_max, camera=camera,
                       quadrature=quad, names=names, objects=objects)
    scene_path = os.path.join(args.out, "scene.json")
    save_scene(scene_path, doc)
    _stderr(f"generated {len(meta)} objects, {len(views)} view(s) in "
            f"{time.perf_counter() - started:.2f}s")
    for path in [scene_path] + written:
        print(path)
    return EXIT_OK


def _round_floats(a) -> list:
    return [round(float(v), 12) for v in np.asarray(a, dtype=np.float64).ravel()]


# -------------------------------------------------------------------- fit


def _dataset_views(data_dir: str) -> list[int]:
    pat = re.compile(r"view_(\d+)\.ppm$")
    found = []
    for path in glob.glob(os.path.join(data_dir, "view_*.ppm")):
        m = pat.search(os.path.basename(path))
        if m:
            found.append(int(m.group(1)))
    return sorted(found)


def _load_samples(data_dir: str, camera: Camera, t_far: float) -> list[RgbdSample]:
    indices = _dataset_views(data_dir)
    if not indices:
        raise _InputError(f"no view_*.ppm files in {data_dir}")
    cams = rig_views(camera)
    samples: list[RgbdSample] = []
    for v in indices:
        if v >= len(cams):
            raise _InputError(f"view index {v} has no rig camera (rig has {len(cams)})")
        rgb = images.read_ppm(os.path.join(data_dir, f"view_{v}.ppm"))
        depth = images.read_pfm(os.path.join(data_dir, f"view_{v}_depth.pfm"))
        if rgb.shape[:2] != (camera.height, camera.width):
            raise _InputError(
                f"view {v} is {rgb.shape[1]}x{rgb.shape[0]} but the scene camera is "
                f"{camera.width}x{camera.height}"
            )
        samples += _view_samples(cams[v], rgb, depth, t_far)
    return samples


def _cmd_fit(args) -> int:
    _require_at_least(1, args, "--iterations", "--batch-size", "--trace-points")
    _require_at_least(0, args, "--fit-seed")
    data_doc = _load_document(os.path.join(args.data, "scene.json"))
    if data_doc.camera is None:
        raise _InputError("dataset scene.json has no camera block")
    if args.init is not None and args.init_random is not None:
        raise _InputError("pass either --init or --init-random, not both")
    if args.init is not None:
        init_scene = _load_document(args.init).scene
    elif args.init_random is not None:
        config = SceneGenConfig(n_objects_min=args.init_random, n_objects_max=args.init_random)
        try:
            init_scene, _ = sample_scene(config, np.random.default_rng(args.fit_seed))
        except PlacementError as exc:
            _stderr(f"error: {exc}")
            return EXIT_GENERATION
        init_scene = CompositeScene(init_scene.components, t_far=data_doc.scene.t_far)
    else:
        raise _InputError("a start point is required: --init SCENE or --init-random N_OBJECTS")

    samples = _load_samples(args.data, data_doc.camera, data_doc.scene.t_far)
    try:
        loss = LossConfig(k_o_max=args.k_o_max) if args.k_o_max is not None else LossConfig()
        config = FitConfig(
            iterations=args.iterations,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=args.fit_seed,
            loss=loss,
        )
    except ValueError as exc:
        raise _InputError(f"bad fit settings: {exc}") from exc
    started = time.perf_counter()
    try:
        report = fit(init_scene, samples, config)
    except FitDivergence as exc:
        _stderr(f"error: {exc}")
        return EXIT_NUMERICAL
    elapsed = time.perf_counter() - started
    _stderr(f"fit {len(samples)} samples for {config.iterations} iterations in {elapsed:.1f}s")

    _ensure_out_dir(args.out)
    fitted_doc = scene_to_doc(
        report.final_scene,
        sigma_max=data_doc.sigma_max,
        camera=data_doc.camera,
        quadrature=data_doc.quadrature,
    )
    scene_path = os.path.join(args.out, "scene.json")
    save_scene(scene_path, fitted_doc)
    trace_stride = max(1, -(-len(report.trace) // args.trace_points)) if report.trace else 1
    kept_trace = report.trace[::trace_stride]
    if report.trace and kept_trace[-1] is not report.trace[-1]:
        kept_trace.append(report.trace[-1])
    report_doc = {
        "version": "1",
        "iterations": config.iterations,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "seed": config.seed,
        "k_o_max": config.loss.k_o_max,
        "n_samples": len(samples),
        "skipped_steps": report.skipped_steps,
        "final_loss": report.trace[-1]["total"] if report.trace else None,
        "trace": kept_trace,
    }
    report_path = os.path.join(args.out, "report.json")
    tmp = report_path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(report_doc))
    os.replace(tmp, report_path)
    for path in (scene_path, report_path):
        print(path)
    return EXIT_OK


# -------------------------------------------------------------- bias-demo


def _cmd_bias_demo(args) -> int:
    # Two coarse samples is the quadrature minimum; a standard error needs two trials.
    _require_at_least(2, args, "--k", "--n-trials")
    _require_at_least(0, args, "--seed")
    started = time.perf_counter()
    result = estimlab.stratified_bias_demo(
        k=args.k, n_trials=args.n_trials, seed=args.seed or 0, hierarchical=args.hierarchical
    )
    _stderr(f"{args.n_trials} trials in {time.perf_counter() - started:.2f}s")
    print(dumps_canonical(result), end="")
    return EXIT_OK


# ------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    pred_views = _dataset_views(args.pred)
    truth_views = _dataset_views(args.truth)
    common = sorted(set(pred_views) & set(truth_views))
    if not common:
        raise _InputError("the two directories share no view indices")
    per_view = []
    for v in common:
        pred_mask = images.read_pgm(os.path.join(args.pred, f"view_{v}_mask.pgm"))
        truth_mask = images.read_pgm(os.path.join(args.truth, f"view_{v}_mask.pgm"))
        pred_rgb = images.read_ppm(os.path.join(args.pred, f"view_{v}.ppm"))
        truth_rgb = images.read_ppm(os.path.join(args.truth, f"view_{v}.ppm"))
        if pred_mask.shape != truth_mask.shape or pred_rgb.shape != truth_rgb.shape:
            raise _InputError(f"view {v}: image shapes differ between directories")
        entry = {
            "view": v,
            "ari": metrics.ari(pred_mask, truth_mask),
            "fg_ari": metrics.ari(pred_mask, truth_mask, restrict_to_fg=True),
            "mse": metrics.mse(pred_rgb, truth_rgb),
        }
        depth_path = os.path.join(args.pred, f"view_{v}_depth.pfm")
        truth_depth_path = os.path.join(args.truth, f"view_{v}_depth.pfm")
        if os.path.exists(depth_path) and os.path.exists(truth_depth_path):
            dp = images.read_pfm(depth_path)
            dt = images.read_pfm(truth_depth_path)
            both = np.isfinite(dp) & np.isfinite(dt)
            if both.any():
                entry["depth_mae"] = float(np.abs(dp[both] - dt[both]).mean())
        per_view.append(entry)
    summary = {
        "version": "1",
        "views": per_view,
        "mean_ari": float(np.mean([e["ari"] for e in per_view])),
        "mean_fg_ari": float(np.mean([e["fg_ari"] for e in per_view])),
        "mean_mse": float(np.mean([e["mse"] for e in per_view])),
    }
    print(dumps_canonical(summary), end="")
    return EXIT_OK


# ----------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayfields",
        description="Volumetric ray-transport toolkit: render, generate, fit, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a scene document to view files")
    p.add_argument("--scene", required=True, help="scene JSON document")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resolution", type=int, default=None, help="square image size override")
    p.add_argument("--views", type=int, default=1, choices=(1, 2, 3),
                   help="how many rig views to render (default 1)")
    _add_quad_args(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("generate", help="sample a random scene and its RGB-D dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scene-seed", type=int, default=0, help="seed for object placement")
    p.add_argument("--resolution", type=int, default=64, help="square image size")
    p.add_argument("--views", type=int, default=3, choices=(1, 2, 3), help="rig views to render")
    p.add_argument("--n-objects-min", type=int, default=2)
    p.add_argument("--n-objects-max", type=int, default=4)
    _add_quad_args(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit scene parameters to an RGB-D dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (from generate/render)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--init", default=None, help="scene document to start from")
    p.add_argument("--init-random", type=int, default=None, metavar="N_OBJECTS",
                   help="start from a random scene with this many objects")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--learning-rate", type=float, default=4e-4)
    p.add_argument("--fit-seed", type=int, default=0)
    p.add_argument("--k-o-max", type=float, default=None,
                   help="peak overlap-penalty weight (0 disables the penalty)")
    p.add_argument("--trace-points", type=int, default=200,
                   help="max trace entries kept in report.json")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bias-demo", help="thin-slab stratified sampling bias measurement")
    p.add_argument("--k", type=int, default=50, help="stratified samples per ray")
    p.add_argument("--n-trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hierarchical", action="store_true",
                   help="add a second, importance-guided sampling round")
    p.set_defaults(func=_cmd_bias_demo)

    p = sub.add_parser("eval", help="compare two dataset directories")
    p.add_argument("--pred", required=True, help="predicted dataset directory")
    p.add_argument("--truth", required=True, help="reference dataset directory")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_workers()
    except ValueError as exc:
        _stderr(f"error: {exc}")
        return EXIT_INPUT
    try:
        return args.func(args)
    except _InputError as exc:
        _stderr(f"error: {exc}")
        return EXIT_INPUT
    except FileNotFoundError as exc:
        _stderr(f"error: file not found: {exc.filename or exc}")
        return EXIT_INPUT
    except (SceneFormatError, images.ImageFormatError) as exc:
        _stderr(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
