"""Command-line front end.

Subcommands:

* ``render``    — render a scene document to per-view color/depth/mask files.
* ``generate``  — sample a random scene and write it plus its RGB-D dataset.
* ``fit``       — fit a scene's parameters to a rendered RGB-D dataset.
* ``bias-demo`` — run the thin-slab stratified-sampling bias measurement.
* ``eval``      — compare two rendered dataset directories (ARI / MSE).

Exit codes: 0 success, 2 bad input, 3 scene generation failed, 4 numerical
failure.  ``main`` maps each exception a command may raise to its code and
one ``error:`` line on stderr: bad input, a missing or malformed file and
an input too large for memory exit 2, a scene that cannot be placed 3, a
diverged fit 4.  A flag is checked by the config it feeds (``Camera``,
``QuadratureConfig``, ``SceneGenConfig``, ``LossConfig``, ``FitConfig``, the
bias demo's own checks), whose ValueError becomes bad input; only the two
flags no config takes, ``--scene-seed`` and ``--trace-points``, are checked
here.  A view whose rays and sample draws, or a bias demo whose trial
results or one row of draws, would not fit in the machine's memory is
refused before any work starts.  Mask files take the ids of
``scenegen.GroundTruth``: 0 for nothing and for a trailing ground plane,
i + 1 for any other component i.  All randomness is seeded and all outputs
are byte-stable: rerunning a command with the same arguments reproduces
identical files regardless of the worker-thread count (see the
OBSURF_THREADS environment variable).  Timings go to stderr only.
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
from .geometry import Camera, _check_integer, pinhole_rays, rig_views
from .losses import LossConfig, RgbdBatch
from .scenedoc import (
    SceneFormatError,
    dumps_canonical,
    load_scene,
    save_scene,
    scene_to_doc,
)
from .scenegen import (PlacementError, SceneGenConfig, _mask_ids, _view_samples, _view_seed, default_camera,
                       render_dataset, sample_scene)
from .transport import QuadratureConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GENERATION = 3
EXIT_NUMERICAL = 4

_CHECKER_CELL = 8
_CHECKER_DARK = 0.35
_CHECKER_LIGHT = 0.65

# Bytes held per pixel of a view by its rays (``pinhole_rays``: origin,
# direction and cutoff in float64), per sample by its uniform draw (float64;
# a render draws every sample of its rays before any work), and per bias-demo
# trial by its result (a float64 color and a bool miss).
_PIXEL_BYTES = 56
_DRAW_BYTES = 8
_TRIAL_BYTES = 9


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


def _view_paths(directory: str, index: int) -> tuple[str, str, str]:
    """The color, depth and mask files of view ``index`` in ``directory``."""
    stem = os.path.join(directory, f"view_{index}")
    return f"{stem}.ppm", f"{stem}_depth.pfm", f"{stem}_mask.pgm"


def _write_view_files(out_dir: str, index: int, rgb: np.ndarray, depth: np.ndarray,
                      mask: np.ndarray) -> list[str]:
    rgb_path, depth_path, mask_path = _view_paths(out_dir, index)
    images.write_ppm(rgb_path, rgb)
    images.write_pfm(depth_path, np.where(np.isnan(depth), np.inf, depth))
    images.write_pgm(mask_path, mask)
    return [rgb_path, depth_path, mask_path]


def _load_document(path: str):
    try:
        return load_scene(path)
    except FileNotFoundError as exc:
        raise _InputError(f"scene file not found: {path}") from exc
    except SceneFormatError as exc:
        raise _InputError(f"bad scene document {path}: {exc}") from exc


def _checked(what: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a config or a check of one; the ValueError
    its checks raise is bad input about ``what``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _InputError(f"bad {what}: {exc}") from exc


def _quad_from_args(args, doc_quad: QuadratureConfig | None) -> QuadratureConfig:
    """The document's quadrature (default: ``QuadratureConfig()``) with the
    quadrature flags that were given."""
    given = {name: value for name in ("n_coarse", "n_fine", "seed") if (value := getattr(args, name)) is not None}
    return _checked("quadrature", replace, doc_quad or QuadratureConfig(), **given)


def _add_quad_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-coarse", type=int, default=None, help="coarse samples per ray")
    p.add_argument("--n-fine", type=int, default=None, help="fine samples per ray")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")


def _require_memory(what: str, nbytes: int) -> None:
    """Reject as bad input a size whose arrays alone, ``nbytes``, would not
    fit in the machine's memory, before any of them is allocated."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise _InputError(f"{what} needs more than this machine's {memory / 2**30:.3g} GiB of memory")


def _require_view_memory(camera: Camera, quad: QuadratureConfig) -> None:
    """Reject a view whose rays and sample draws would not fit in memory."""
    _require_memory(f"a {camera.width}x{camera.height} view",
                    camera.width * camera.height * (_PIXEL_BYTES + _DRAW_BYTES * (quad.n_coarse + quad.n_fine)))


# ----------------------------------------------------------------- render


def _cmd_render(args) -> int:
    doc = _load_document(args.scene)
    scene = doc.scene
    camera = doc.camera if doc.camera is not None else default_camera(SceneGenConfig())
    if args.resolution is not None:
        camera = _checked("camera", replace, camera, width=args.resolution, height=args.resolution)
    quad = _quad_from_args(args, doc.quadrature)
    _require_view_memory(camera, quad)
    cameras = rig_views(camera)[: args.views]

    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    written: list[str] = []
    for v, cam in enumerate(cameras):
        view = render_ray_grid(scene, pinhole_rays(cam, scene.t_far), replace(quad, seed=_view_seed(quad.seed, v)))
        if not np.all(np.isfinite(view.color)):
            _stderr("error: render produced non-finite colors")
            return EXIT_NUMERICAL
        written += _write_view_files(args.out, v, _view_color(view), view.depth, _mask_ids(scene, view.labels))
    _stderr(f"rendered {len(cameras)} view(s) in {time.perf_counter() - started:.2f}s "
            f"({resolve_workers()} worker threads)")
    for path in written:
        print(path)
    return EXIT_OK


# --------------------------------------------------------------- generate


def _cmd_generate(args) -> int:
    _checked("flag", _check_integer, args.scene_seed, "--scene-seed", 0)
    quad = _quad_from_args(args, None)
    config = _checked("scene settings", SceneGenConfig, n_objects_min=args.n_objects_min,
                      n_objects_max=args.n_objects_max, resolution=args.resolution)
    camera = default_camera(config)
    _require_view_memory(camera, quad)
    scene, meta = sample_scene(config, np.random.default_rng(args.scene_seed))

    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    views = render_dataset(scene, rig_views(camera)[: args.views], None, quad)
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
    doc = scene_to_doc(scene, camera=camera, quadrature=quad, names=names, objects=objects)
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
    """The indices of the ``view_N.ppm`` files in ``data_dir``, in order."""
    names = (os.path.basename(path) for path in glob.glob(os.path.join(data_dir, "view_*.ppm")))
    return sorted(int(m.group(1)) for name in names if (m := re.fullmatch(r"view_(\d+)\.ppm", name)))


def _load_samples(data_dir: str, camera: Camera, t_far: float) -> RgbdBatch:
    indices = _dataset_views(data_dir)
    if not indices:
        raise _InputError(f"no view_*.ppm files in {data_dir}")
    cams = rig_views(camera)
    batches = []
    for v in indices:
        if v >= len(cams):
            raise _InputError(f"view index {v} has no rig camera (rig has {len(cams)})")
        rgb_path, depth_path, _ = _view_paths(data_dir, v)
        rgb = images.read_ppm(rgb_path)
        depth = images.read_pfm(depth_path)
        if rgb.shape[:2] != (camera.height, camera.width):
            raise _InputError(
                f"view {v} is {rgb.shape[1]}x{rgb.shape[0]} but the scene camera is "
                f"{camera.width}x{camera.height}"
            )
        batches.append(_view_samples(cams[v], rgb, depth, t_far))
    return RgbdBatch._join(batches)


def _cmd_fit(args) -> int:
    _checked("flag", _check_integer, args.trace_points, "--trace-points", 1)
    loss = _checked("fit settings", LossConfig, **({} if args.k_o_max is None else {"k_o_max": args.k_o_max}))
    config = _checked("fit settings", FitConfig, iterations=args.iterations, batch_size=args.batch_size,
                      learning_rate=args.learning_rate, seed=args.fit_seed, loss=loss)
    data_doc = _load_document(os.path.join(args.data, "scene.json"))
    if data_doc.camera is None:
        raise _InputError("dataset scene.json has no camera block")
    if args.init is not None and args.init_random is not None:
        raise _InputError("pass either --init or --init-random, not both")
    if args.init is not None:
        init_scene = _load_document(args.init).scene
    elif args.init_random is not None:
        start = _checked("scene settings", SceneGenConfig, n_objects_min=args.init_random,
                         n_objects_max=args.init_random)
        init_scene, _ = sample_scene(start, np.random.default_rng(args.fit_seed))
        init_scene = CompositeScene(init_scene.components, t_far=data_doc.scene.t_far)
    else:
        raise _InputError("a start point is required: --init SCENE or --init-random N_OBJECTS")

    samples = _load_samples(args.data, data_doc.camera, data_doc.scene.t_far)
    if not len(samples):
        raise _InputError(f"no pixel in {args.data} has a finite depth inside the scene's t_far")
    started = time.perf_counter()
    report = fit(init_scene, samples, config)
    elapsed = time.perf_counter() - started
    _stderr(f"fit {len(samples)} samples for {config.iterations} iterations in {elapsed:.1f}s")

    os.makedirs(args.out, exist_ok=True)
    fitted_doc = scene_to_doc(report.final_scene, camera=data_doc.camera, quadrature=data_doc.quadrature)
    scene_path = os.path.join(args.out, "scene.json")
    save_scene(scene_path, fitted_doc)
    kept_trace = report.trace[:: -(-len(report.trace) // args.trace_points)]  # a fit makes at least one step
    if kept_trace[-1] is not report.trace[-1]:
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
        "final_loss": report.trace[-1]["total"],
        "trace": kept_trace,
    }
    report_path = os.path.join(args.out, "report.json")
    images._atomic_write(report_path, dumps_canonical(report_doc).encode("ascii"))
    for path in (scene_path, report_path):
        print(path)
    return EXIT_OK


# -------------------------------------------------------------- bias-demo


def _cmd_bias_demo(args) -> int:
    quad = _checked("bias-demo settings", estimlab._demo_quadrature, args.k, args.n_trials, args.seed or 0,
                    args.hierarchical)
    _require_memory(f"--k {args.k}", _DRAW_BYTES * (quad.n_coarse + quad.n_fine))
    _require_memory(f"--n-trials {args.n_trials}", args.n_trials * _TRIAL_BYTES)
    started = time.perf_counter()
    result = estimlab.stratified_bias_demo(k=args.k, n_trials=args.n_trials, seed=quad.seed,
                                           hierarchical=args.hierarchical)
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
        pred_rgb_path, pred_depth_path, pred_mask_path = _view_paths(args.pred, v)
        truth_rgb_path, truth_depth_path, truth_mask_path = _view_paths(args.truth, v)
        pred_mask = images.read_pgm(pred_mask_path)
        truth_mask = images.read_pgm(truth_mask_path)
        pred_rgb = images.read_ppm(pred_rgb_path)
        truth_rgb = images.read_ppm(truth_rgb_path)
        if pred_mask.shape != truth_mask.shape or pred_rgb.shape != truth_rgb.shape:
            raise _InputError(f"view {v}: image shapes differ between directories")
        n_fg = int(np.count_nonzero(truth_mask > 0))
        if n_fg < 2:
            raise _InputError(f"view {v}: the truth mask has {n_fg} foreground pixel(s); "
                              "the foreground ARI needs at least 2")
        entry = {
            "view": v,
            "ari": metrics.ari(pred_mask, truth_mask),
            "fg_ari": metrics.ari(pred_mask, truth_mask, restrict_to_fg=True),
            "mse": metrics.mse(pred_rgb, truth_rgb),
        }
        if os.path.exists(pred_depth_path) and os.path.exists(truth_depth_path):
            dp = images.read_pfm(pred_depth_path)
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
        _checked("environment", resolve_workers)
        return args.func(args)
    except (_InputError, SceneFormatError, images.ImageFormatError) as exc:
        _stderr(f"error: {exc}")
        return EXIT_INPUT
    except FileNotFoundError as exc:
        _stderr(f"error: file not found: {exc.filename or exc}")
        return EXIT_INPUT
    except MemoryError as exc:
        _stderr(f"error: not enough memory: {exc}")
        return EXIT_INPUT
    except PlacementError as exc:
        _stderr(f"error: {exc}")
        return EXIT_GENERATION
    except FitDivergence as exc:
        _stderr(f"error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
