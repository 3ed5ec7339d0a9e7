"""Fixed-point check: do two source trees give the same seeded outputs?

    python3 tools/fixedpoint.py --base REV [--src DIR] [--size {tiny,full}]

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
- every value ``stratified_bias_demo`` returns, plain and hierarchical, for
  2 trials (one 2-row block) and for 1 and 2 trials more than a block
  holds (a last block of 1 or 2 rows);
- the files the CLI ``render`` command writes for a 3-view render, and the
  stdout of the CLI ``bias-demo`` command, plain and ``--hierarchical``.

Prints one line per output and thread count: ``identical``, or the max
absolute and max relative difference.  Exits 1 if any output differs or
only one tree produced it, else 0.  ``--size tiny`` shrinks every image and
sample count, for a smoke test.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per size: camera image (width, height), CLI render resolution, the
# quadratures (name, n_coarse, n_fine, stratified), the single-ray pixels,
# the bias-demo bin counts and the CLI bias-demo trial count.
SIZES = {
    "tiny": {"image": (6, 5), "cli_resolution": 8, "pixels": (0, 7, 14, 29),
             "quads": [("main", 8, 16, True), ("unstratified", 7, 9, False), ("coarse", 5, 0, True)],
             "bias_ks": (50,), "cli_trials": 300},
    "full": {"image": (24, 24), "cli_resolution": 64, "pixels": (0, 77, 150, 290, 301, 433, 500, 575),
             "quads": [("main", 64, 128, True), ("unstratified", 32, 64, False), ("coarse", 64, 0, True)],
             "bias_ks": (8, 50, 129), "cli_trials": 10_000},
}
COMPONENT_COUNTS = (1, 2, 5, 8, 9, 16)
# Sample points per block (rayfields._threads.BLOCK_POINTS), so the manifest
# can end a render or a bias demo on a block of 1 or 2 rows through public
# calls.
BLOCK_POINTS = 32_768


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


def _emit(size: str) -> dict:
    """Every manifest output, by name, from the rayfields on sys.path."""
    import rayfields as rf
    from rayfields import cli, estimlab

    p = SIZES[size]
    out = {}
    for n in COMPONENT_COUNTS:
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

    for k in p["bias_ks"]:
        for hierarchical in (False, True):
            mode = "hierarchical" if hierarchical else "plain"
            block = max(1, BLOCK_POINTS // (2 * k if hierarchical else k))
            for n_trials in (2, block + 1, block + 2):
                demo = estimlab.stratified_bias_demo(k=k, n_trials=n_trials, seed=k + n_trials,
                                                     hierarchical=hierarchical)
                for key, value in demo.items():
                    out[f"bias_demo.k{k}.{mode}.n{n_trials}.{key}"] = np.asarray(value)

    for flags in ([], ["--hierarchical"]):
        code, stdout = _cli(cli, ["bias-demo", "--n-trials", str(p["cli_trials"]), "--seed", "7", *flags])
        name = "cli.bias-demo" + "".join(f".{flag[2:]}" for flag in flags)
        out[f"{name}.exit"] = np.asarray(code)
        out[f"{name}.stdout"] = np.frombuffer(stdout, dtype=np.uint8)

    n_coarse, n_fine = p["quads"][0][1:3]
    with tempfile.TemporaryDirectory() as work:
        scene_path = os.path.join(work, "scene.json")
        rf.save_scene(scene_path, rf.scene_to_doc(_scene(rf, 5)))
        render_dir = os.path.join(work, "render")
        argv = ["render", "--scene", scene_path, "--out", render_dir, "--resolution", str(p["cli_resolution"]),
                "--views", "3", "--n-coarse", str(n_coarse), "--n-fine", str(n_fine), "--seed", "7"]
        out["cli.render.exit"] = np.asarray(_cli(cli, argv)[0])
        for name in sorted(os.listdir(render_dir)):
            with open(os.path.join(render_dir, name), "rb") as fh:
                out[f"cli.render.{name}"] = np.frombuffer(fh.read(), dtype=np.uint8)
    return out


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

    names = sorted(set().union(*(run.keys() for run in runs.values())))
    differ = 0
    for name in names:
        verdicts = []
        for t in thread_counts:
            base, change = runs["base", t].get(name), runs["change", t].get(name)
            if base is None or change is None:
                verdict = f"absent from {'base' if base is None else 'change'}"
            else:
                verdict = _difference(base, change) or "identical"
            differ += verdict != "identical"
            verdicts.append(f"[{t}] {verdict}")
        print(f"{name}: {'  '.join(verdicts)}")
    threads = " and ".join(map(str, thread_counts))
    print(f"fixedpoint: {len(names)} outputs at OBSURF_THREADS {threads} against {args.base}: "
          f"{'all identical' if differ == 0 else f'{differ} differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
