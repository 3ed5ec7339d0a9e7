"""Smoke test of tools/fixedpoint.py at its tiny size: src/ as committed at
HEAD shows no difference against HEAD (render, bias-demo, scene-generation
and CLI dataset outputs alike), and a copy whose color mixer is off by one
ulp is caught."""

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
    for mode, n_trials in (("plain", 657), ("hierarchical", 328)):  # last blocks of 2 and 1 rows
        assert f"bias_demo.k50.{mode}.n{n_trials}.empirical_mean: [1] identical" in run.stdout
    assert "cli.bias-demo.stdout: [1] identical" in run.stdout
    assert "cli.bias-demo.hierarchical.stdout: [1] identical" in run.stdout
    assert "cli.generate.view_0_mask.pgm: [1] identical" in run.stdout
    assert "scenegen.box.seed0.surface_distance0: [1] identical" in run.stdout
    assert "cli.eval.stdout: [1] identical" in run.stdout


def test_one_ulp_in_the_mixer_is_reported(head_src):
    compose = head_src / "rayfields" / "compose.py"
    text = compose.read_text()
    assert text.count("    acc /= safe\n") == 1
    compose.write_text(text.replace("    acc /= safe\n", "    acc /= safe\n    acc *= 1.0 + 2.0**-52\n"))
    run = _fixedpoint("--src", str(head_src))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "differ" in run.stdout.strip().splitlines()[-1]
    assert "scene5.main.image.color: [1] max abs" in run.stdout
