"""Smoke test of tools/fixedpoint.py at its tiny size: src/ as committed at
HEAD shows no difference against HEAD (render, point-query, bias-demo,
scene-generation, scene-rebuild, fit-benchmark, fit and CLI dataset outputs
alike), a copy whose color mixer is off by one ulp is caught, and
``--allow`` lets one named output differ."""

import io
import os
import subprocess
import sys
import tarfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "fixedpoint.py")


def _has_git_head() -> bool:
    try:
        probe = subprocess.run(["git", "-C", ROOT, "cat-file", "-e", "HEAD:src/rayfields"], capture_output=True)
    except OSError:
        return False
    return probe.returncode == 0


pytestmark = pytest.mark.skipif(not _has_git_head(), reason="needs a git checkout with a committed src/")


def _fixedpoint(*args):
    return subprocess.run([sys.executable, TOOL, "--base", "HEAD", "--size", "tiny", *args],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture
def head_src(tmp_path):
    """A copy of src/ as committed at HEAD, whatever the working tree holds."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "HEAD", "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp_path, filter="data")
    return tmp_path / "src"


def test_head_against_itself_is_identical(head_src):
    run = _fixedpoint("--src", str(head_src))
    assert run.returncode == 0, run.stdout + run.stderr
    summary = run.stdout.strip().splitlines()[-1]
    assert summary.endswith("all identical") and "OBSURF_THREADS 1" in summary
    assert "scene16.main.strip1.color: [1] identical" in run.stdout
    assert "cli.render.view_2.ppm: [1] identical" in run.stdout
    assert "scene1.points.scene.density: [1] identical" in run.stdout
    assert "scene16.points.merged.evaluate.single: [1] identical" in run.stdout
    for mode, n_trials in (("plain", 657), ("hierarchical", 328)):  # last blocks of 2 and 1 rows
        assert f"bias_demo.k50.{mode}.n{n_trials}.empirical_mean: [1] identical" in run.stdout
    assert "cli.bias-demo.stdout: [1] identical" in run.stdout
    assert "cli.bias-demo.hierarchical.stdout: [1] identical" in run.stdout
    assert "cli.generate.view_0_mask.pgm: [1] identical" in run.stdout
    assert "scenegen.box.seed0.surface_distance0: [1] identical" in run.stdout
    for name in ("own.attributes", "negative_zero_amplitude.types", "zero_last_width.error"):
        assert f"with_params.all.seed0.{name}: [1] identical" in run.stdout
    assert "fit_bench.view2.sample_observations: [1] identical" in run.stdout
    assert "fit_bench.view1.sample_observations.boundary: [1] identical" in run.stdout
    assert "fit_bench.loss_gradient: [1] identical" in run.stdout
    for name in ("final_params", "final_scene", "skipped_steps", "trace.k_o", "trace.total", "trace.grad_norm"):
        assert f"fit_bench.fit.{name}: [1] identical" in run.stdout
    assert "cli.eval.stdout: [1] identical" in run.stdout


def test_one_ulp_in_the_mixer_is_reported(head_src):
    """A 1-ulp change in ``_mix`` is reported as a difference, and a deleted
    ``CompositeScene.evaluate_components`` as its group's absent API, with
    the other groups compared as usual."""
    compose = head_src / "rayfields" / "compose.py"
    text = compose.read_text()
    assert text.count("    acc /= safe\n") == 1
    compose.write_text(text.replace("    acc /= safe\n", "    acc /= safe\n    acc *= 1.0 + 2.0**-52\n")
                       + "\n\ndel CompositeScene.evaluate_components\n")
    run = _fixedpoint("--src", str(head_src))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "differ" in run.stdout.strip().splitlines()[-1]
    assert "scene5.main.image.color: [1] max abs" in run.stdout
    assert "scene5.points: absent from change (AttributeError: " in run.stdout
    assert "scene5.points.scene.density:" not in run.stdout
    assert "Traceback" not in run.stderr


def test_allowed_output_may_differ(head_src):
    """A change to ``composite_eval`` on 1-component scenes alone fails the
    run, passes with that output allowed, and an unknown name is an error."""
    compose = head_src / "rayfields" / "compose.py"
    compose.write_text(compose.read_text() + (
        "\n\n_exact_composite_eval = composite_eval\n\n\n"
        "def composite_eval(scene, x, d=None):\n"
        "    point = _exact_composite_eval(scene, x, d)\n"
        "    if scene.n > 1:\n"
        "        return point\n"
        "    return CompositePoint(point.sigma, point.sigmas, point.color * (1.0 + 2.0**-52), point.color_defined)\n"))
    name = "scene1.points.scene.composite_eval"
    run = _fixedpoint("--src", str(head_src))
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"{name}: [1] max abs" in run.stdout
    assert [line.split(":")[0] for line in run.stdout.splitlines() if "max abs" in line] == [name]
    run = _fixedpoint("--src", str(head_src), "--allow", name)
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{name}: [1] allowed, max abs" in run.stdout
    assert run.stdout.strip().splitlines()[-1].endswith("allowed")
    run = _fixedpoint("--src", str(head_src), "--allow", name, "--allow", "no.such.output")
    assert run.returncode == 2 and "--allow names no output: no.such.output" in run.stderr
