"""End-to-end tests for the command-line interface: exit codes, file layout,
determinism across worker-thread counts, and the JSON outputs."""

import json
import os

import numpy as np
import pytest

from rayfields import cli, estimlab, scenegen
from rayfields.cli import EXIT_GENERATION, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from rayfields.images import read_pfm, read_pgm, read_ppm, write_pfm, write_pgm, write_ppm
from rayfields.scenedoc import dumps_canonical, load_scene, scene_to_doc


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def generate_small(out_dir, capsys, seed=0, views=2, resolution=14, extra=()):
    argv = [
        "generate",
        "--out", str(out_dir),
        "--scene-seed", str(seed),
        "--resolution", str(resolution),
        "--views", str(views),
        "--n-coarse", "24",
        "--n-fine", "24",
        *extra,
    ]
    return run_cli(argv, capsys)


def assert_one_error_line(code, capsys):
    """Bad input: exit 2, nothing on stdout, exactly one error line on stderr."""
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def out_of_memory(camera, t_far):
    """Stands in for ``pinhole_rays`` on an image too large to allocate, as
    numpy reports it, without allocating anything."""
    raise MemoryError(f"Unable to allocate the rays of a {camera.width}x{camera.height} image")


def tree_bytes(root):
    snapshot = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            snapshot[os.path.relpath(path, root)] = open(path, "rb").read()
    return snapshot


class TestGenerate:
    def test_writes_dataset_and_scene(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout = generate_small(out, capsys)
        assert code == EXIT_OK
        expected = {
            "scene.json",
            "view_0.ppm", "view_0_depth.pfm", "view_0_mask.pgm",
            "view_1.ppm", "view_1_depth.pfm", "view_1_mask.pgm",
        }
        assert {p.name for p in out.iterdir()} == expected
        listed = {os.path.basename(line) for line in stdout.strip().splitlines()}
        assert listed == expected

        doc = load_scene(out / "scene.json")
        assert doc.camera is not None and doc.quadrature is not None
        assert doc.names[-1] == "background"
        assert doc.objects is not None
        assert len(doc.objects) == doc.scene.n - 1
        rgb = read_ppm(out / "view_0.ppm")
        assert rgb.shape == (14, 14, 3)
        depth = read_pfm(out / "view_0_depth.pfm")
        assert depth.shape == (14, 14)
        mask = read_pgm(out / "view_0_mask.pgm")
        assert set(np.unique(mask)) <= set(range(doc.scene.n))

    def test_deterministic_across_thread_counts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OBSURF_THREADS", "1")
        code_a, _ = generate_small(tmp_path / "a", capsys, seed=3)
        monkeypatch.setenv("OBSURF_THREADS", "7")
        code_b, _ = generate_small(tmp_path / "b", capsys, seed=3)
        assert code_a == code_b == EXIT_OK
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_seed_changes_scene(self, tmp_path, capsys):
        generate_small(tmp_path / "a", capsys, seed=1, views=1)
        generate_small(tmp_path / "b", capsys, seed=2, views=1)
        a = (tmp_path / "a" / "scene.json").read_bytes()
        b = (tmp_path / "b" / "scene.json").read_bytes()
        assert a != b

    def test_zero_resolution_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "g"), "--resolution", "0"])
        assert_one_error_line(code, capsys)

    @pytest.mark.parametrize("flags", [["--n-coarse", "1"], ["--n-coarse", "0"], ["--n-fine", "-1"]])
    def test_unusable_quadrature_exits_2(self, tmp_path, capsys, flags):
        code = main(["generate", "--out", str(tmp_path / "g"), "--resolution", "6", *flags])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--scene-seed", "-1"]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, flags):
        code = main(["generate", "--out", str(tmp_path / "g"), "--resolution", "6", *flags])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flags", [["--n-objects-min", "3", "--n-objects-max", "1"],
                                       ["--n-objects-min", "0"]])
    def test_unusable_object_counts_exit_2(self, tmp_path, capsys, flags):
        code = main(["generate", "--out", str(tmp_path / "g"), "--resolution", "6", *flags])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "g").exists()

    def test_zero_fine_samples_renders_coarse_only(self, tmp_path, capsys):
        for n_fine in ("0", "128"):
            code, _ = generate_small(tmp_path / n_fine, capsys, views=1, resolution=8,
                                     extra=("--n-coarse", "16", "--n-fine", n_fine))
            assert code == EXIT_OK
        quad = load_scene(tmp_path / "0" / "scene.json").quadrature
        assert (quad.n_coarse, quad.n_fine) == (16, 0)
        assert (tmp_path / "0" / "view_0.ppm").read_bytes() != (tmp_path / "128" / "view_0.ppm").read_bytes()

    def test_image_too_large_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenegen, "pinhole_rays", out_of_memory)
        code = main(["generate", "--out", str(tmp_path / "g"), "--resolution", "6"])
        assert_one_error_line(code, capsys)

    def test_impossible_placement_exits_3(self, tmp_path, capsys):
        code, _ = generate_small(
            tmp_path / "x", capsys,
            extra=("--n-objects-min", "25", "--n-objects-max", "25"),
        )
        assert code == EXIT_GENERATION


class TestRender:
    def test_renders_scene_document(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        out = tmp_path / "render"
        code, stdout = run_cli(
            ["render", "--scene", str(data / "scene.json"), "--out", str(out),
             "--resolution", "10", "--views", "2", "--n-coarse", "24", "--n-fine", "24"],
            capsys,
        )
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {
            "view_0.ppm", "view_0_depth.pfm", "view_0_mask.pgm",
            "view_1.ppm", "view_1_depth.pfm", "view_1_mask.pgm",
        }
        assert read_ppm(out / "view_1.ppm").shape == (10, 10, 3)
        assert len(stdout.strip().splitlines()) == 6

    def test_rerun_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        argv = ["render", "--scene", str(data / "scene.json"), "--resolution", "10",
                "--n-coarse", "24", "--n-fine", "24"]
        monkeypatch.setenv("OBSURF_THREADS", "1")
        run_cli(argv + ["--out", str(tmp_path / "r1")], capsys)
        monkeypatch.setenv("OBSURF_THREADS", "5")
        run_cli(argv + ["--out", str(tmp_path / "r2")], capsys)
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(
            ["render", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == EXIT_INPUT

    def test_malformed_scene_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(["render", "--scene", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert code == EXIT_INPUT

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "1", "t_far": 40.0, "components": []}))
        code, _ = run_cli(["render", "--scene", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert code == EXIT_INPUT

    def test_zero_resolution_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        code = main(["render", "--scene", str(data / "scene.json"), "--out", str(tmp_path / "o"),
                     "--resolution", "0"])
        assert_one_error_line(code, capsys)

    def test_image_too_large_exits_2(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        monkeypatch.setattr(cli, "pinhole_rays", out_of_memory)
        code = main(["render", "--scene", str(data / "scene.json"), "--out", str(tmp_path / "o"),
                     "--resolution", "6"])
        assert_one_error_line(code, capsys)

    @pytest.mark.parametrize("flags", [["--n-coarse", "1"], ["--n-coarse", "0"], ["--n-fine", "-1"]])
    def test_unusable_quadrature_exits_2(self, tmp_path, capsys, flags):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        code = main(["render", "--scene", str(data / "scene.json"), "--out", str(tmp_path / "o"),
                     "--resolution", "6", *flags])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        code = main(["render", "--scene", str(data / "scene.json"), "--out", str(tmp_path / "o"),
                     "--resolution", "6", "--seed", "-1"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("sigma_max", "abc"), ("sigma_max", -1), ("t_far", float("inf")),
        # up parallel to the base view's direction
        ("camera", {"position": [4.6, 0, 2.4], "look_at": [0, 0, 2.4], "width": 6,
                    "height": 6, "up": [1, 0, 0]}),
        # up parallel to the direction of the rig's second view only
        ("camera", {"position": [4.6, 0, 2.4], "look_at": [0, 0, 2.4], "width": 6,
                    "height": 6, "up": [0.5, -0.75 ** 0.5, 0]}),
        ("t_far", "40"), ("t_far", True),
        ("components", [{"kind": "gaussian_blob", "params": ["0", 0, 1, 1, 1, 1, 5, 0.5, 0.5, 0.5]}]),
        ("components", [{"kind": "gaussian_blob", "params": [0, 0, 1, 1, 1, 1, True, 0.5, 0.5, 0.5]}]),
    ])
    def test_bad_scene_values_exit_2(self, tmp_path, capsys, key, value):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        doc = json.loads((data / "scene.json").read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # writes Infinity, which json.load reads back
        code = main(["render", "--scene", str(bad), "--out", str(tmp_path / "o"), "--resolution", "6"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [("width", "8"), ("position", ["4.6", "0", "2.4"])])
    def test_camera_values_must_be_json_numbers_exit_2(self, tmp_path, capsys, key, value):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        doc = json.loads((data / "scene.json").read_text())
        doc["camera"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["render", "--scene", str(bad), "--out", str(tmp_path / "o"), "--resolution", "6"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    def test_generated_scene_reloads_byte_identically(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        text = (data / "scene.json").read_text()
        doc = load_scene(data / "scene.json")
        again = scene_to_doc(doc.scene, doc.sigma_max, doc.camera, doc.quadrature, doc.names, doc.objects)
        assert dumps_canonical(again) == text

    @pytest.mark.parametrize("edit", [
        {"quadrature": {"n_coarse": "64"}}, {"quadrature": {"n_fine": 12.5}}, {"quadrature": {"seed": True}},
        {"quadrature": {"stratified": "false"}}, {"quadrature": {"stratified": 0}}, {"name": 5},
        {"quadrature": {"seed": -3}},
    ], ids=["n_coarse-string", "n_fine-float", "seed-bool", "stratified-string", "stratified-int", "name-int",
            "seed-negative"])
    def test_bad_scene_types_exit_2(self, tmp_path, capsys, edit):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1)
        doc = json.loads((data / "scene.json").read_text())
        doc["quadrature"].update(edit.get("quadrature", {}))
        doc["components"][0].update({k: v for k, v in edit.items() if k != "quadrature"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["render", "--scene", str(bad), "--out", str(tmp_path / "o"), "--resolution", "6"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()


class TestFit:
    def make_data(self, tmp_path, capsys):
        data = tmp_path / "data"
        generate_small(data, capsys, views=1, resolution=12)
        return data

    def test_fit_writes_scene_and_report(self, tmp_path, capsys):
        data = self.make_data(tmp_path, capsys)
        out = tmp_path / "fit"
        code, stdout = run_cli(
            ["fit", "--data", str(data), "--out", str(out),
             "--init", str(data / "scene.json"),
             "--iterations", "25", "--batch-size", "32", "--trace-points", "10"],
            capsys,
        )
        assert code == EXIT_OK
        assert {p.name for p in out.iterdir()} == {"scene.json", "report.json"}
        assert str(out / "scene.json") in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == 25
        assert report["batch_size"] == 32
        assert report["n_samples"] > 0
        assert report["final_loss"] is not None
        assert 2 <= len(report["trace"]) <= 11
        assert report["trace"][-1]["iteration"] == 24
        # Reports must not embed wall-clock time (byte-stable outputs).
        assert "wall" not in (out / "report.json").read_text()
        fitted = load_scene(out / "scene.json")
        assert fitted.scene.n == load_scene(data / "scene.json").scene.n

    def test_fit_deterministic(self, tmp_path, capsys, monkeypatch):
        data = self.make_data(tmp_path, capsys)
        argv = ["fit", "--data", str(data), "--init", str(data / "scene.json"),
                "--iterations", "12", "--batch-size", "16"]
        monkeypatch.setenv("OBSURF_THREADS", "1")
        run_cli(argv + ["--out", str(tmp_path / "f1")], capsys)
        monkeypatch.setenv("OBSURF_THREADS", "6")
        run_cli(argv + ["--out", str(tmp_path / "f2")], capsys)
        assert tree_bytes(tmp_path / "f1") == tree_bytes(tmp_path / "f2")

    def test_both_init_flags_exit_2(self, tmp_path, capsys):
        data = self.make_data(tmp_path, capsys)
        code, _ = run_cli(
            ["fit", "--data", str(data), "--out", str(tmp_path / "o"),
             "--init", str(data / "scene.json"), "--init-random", "2"],
            capsys,
        )
        assert code == EXIT_INPUT

    def test_no_init_exits_2(self, tmp_path, capsys):
        data = self.make_data(tmp_path, capsys)
        code, _ = run_cli(["fit", "--data", str(data), "--out", str(tmp_path / "o")], capsys)
        assert code == EXIT_INPUT

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(
            ["fit", "--data", str(tmp_path / "nothing"), "--out", str(tmp_path / "o"),
             "--init-random", "2"],
            capsys,
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("flags", [["--iterations", "0"], ["--batch-size", "0"],
                                       ["--trace-points", "0"], ["--learning-rate", "0"],
                                       ["--k-o-max", "-1"], ["--learning-rate", "nan"],
                                       ["--k-o-max", "nan"], ["--k-o-max", "inf"]])
    def test_unusable_settings_exit_2(self, tmp_path, capsys, flags):
        data = self.make_data(tmp_path, capsys)
        code = main(["fit", "--data", str(data), "--out", str(tmp_path / "o"),
                     "--init", str(data / "scene.json"), "--iterations", "2", *flags])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_init_random_below_one_exits_2(self, tmp_path, capsys, count):
        data = self.make_data(tmp_path, capsys)
        code = main(["fit", "--data", str(data), "--out", str(tmp_path / "o"), "--init-random", count,
                     "--iterations", "2"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    def test_no_supervised_ray_exits_2(self, tmp_path, capsys):
        data = self.make_data(tmp_path, capsys)
        depth = read_pfm(str(data / "view_0_depth.pfm"))
        write_pfm(str(data / "view_0_depth.pfm"), np.full(depth.shape, np.inf))
        code = main(["fit", "--data", str(data), "--out", str(tmp_path / "o"),
                     "--init", str(data / "scene.json"), "--iterations", "2"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        data = self.make_data(tmp_path, capsys)
        code = main(["fit", "--data", str(data), "--out", str(tmp_path / "o"), "--init-random", "2",
                     "--fit-seed", "-1"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "o").exists()

    def test_divergence_exits_4(self, tmp_path, capsys, monkeypatch):
        from rayfields import cli as cli_module
        from rayfields.fitting import FitDivergence

        data = self.make_data(tmp_path, capsys)

        def explode(*_args, **_kwargs):
            raise FitDivergence(3, "depth_nll")

        monkeypatch.setattr(cli_module, "fit", explode)
        code, _ = run_cli(
            ["fit", "--data", str(data), "--out", str(tmp_path / "o"),
             "--init", str(data / "scene.json"), "--iterations", "5"],
            capsys,
        )
        assert code == EXIT_NUMERICAL


class TestBiasDemo:
    def test_json_output(self, capsys):
        code, stdout = run_cli(["bias-demo", "--k", "10", "--n-trials", "20", "--seed", "1"], capsys)
        assert code == EXIT_OK
        result = json.loads(stdout)
        assert result["k"] == 10
        assert result["n_trials"] == 20
        assert result["hierarchical"] is False
        assert "empirical_mean" in result and "analytic_color" in result

    def test_deterministic_stdout(self, capsys):
        _, a = run_cli(["bias-demo", "--k", "10", "--n-trials", "15", "--seed", "2"], capsys)
        _, b = run_cli(["bias-demo", "--k", "10", "--n-trials", "15", "--seed", "2"], capsys)
        assert a == b

    @pytest.mark.parametrize("argv", [["--k", "0"], ["--k", "1"], ["--n-trials", "1"],
                                      ["--n-trials", "0"], ["--seed", "-1"]])
    def test_unusable_sizes_exit_2(self, argv, capsys):
        code = main(["bias-demo", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def out_of_memory(**_kwargs):
            # numpy's words for the demo's arrays, without allocating them
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                              "and data type float64")

        monkeypatch.setattr(estimlab, "stratified_bias_demo", out_of_memory)
        code = main(["bias-demo", "--k", "1000000000000", "--n-trials", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: not enough memory: Unable to allocate 7.28 TiB")
        assert captured.err.count("\n") == 1

    def test_hierarchical_flag(self, capsys):
        code, stdout = run_cli(
            ["bias-demo", "--k", "10", "--n-trials", "8", "--hierarchical"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["hierarchical"] is True


class TestEval:
    def test_identical_directories_scores_perfect(self, tmp_path, capsys):
        generate_small(tmp_path / "a", capsys, seed=4, views=1)
        generate_small(tmp_path / "b", capsys, seed=4, views=1)
        code, stdout = run_cli(
            ["eval", "--pred", str(tmp_path / "a"), "--truth", str(tmp_path / "b")], capsys
        )
        assert code == EXIT_OK
        result = json.loads(stdout)
        assert result["mean_ari"] == 1.0
        assert result["mean_mse"] == 0.0
        assert result["views"][0]["view"] == 0
        assert result["views"][0]["depth_mae"] == 0.0

    def test_different_scenes_score_lower(self, tmp_path, capsys):
        generate_small(tmp_path / "a", capsys, seed=4, views=1)
        generate_small(tmp_path / "b", capsys, seed=9, views=1)
        code, stdout = run_cli(
            ["eval", "--pred", str(tmp_path / "a"), "--truth", str(tmp_path / "b")], capsys
        )
        assert code == EXIT_OK
        result = json.loads(stdout)
        assert result["mean_ari"] < 1.0
        assert result["mean_mse"] > 0.0

    @pytest.mark.parametrize("n_fg", [0, 1])
    def test_too_few_foreground_pixels_exit_2(self, tmp_path, capsys, n_fg):
        # 4x4 views whose truth mask has fewer than two object pixels: the
        # foreground ARI has nothing to score.
        for name in ("pred", "truth"):
            os.makedirs(tmp_path / name)
            labels = np.zeros((4, 4), dtype=np.int32)
            labels.flat[:n_fg] = 1
            write_pgm(tmp_path / name / "view_0_mask.pgm", labels)
            write_ppm(tmp_path / name / "view_0.ppm", np.full((4, 4, 3), 0.5))
        code = main(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")])
        assert_one_error_line(code, capsys)

    def test_oversized_image_header_exits_2(self, tmp_path, capsys):
        generate_small(tmp_path / "truth", capsys, seed=4, views=1)
        generate_small(tmp_path / "pred", capsys, seed=4, views=1)
        (tmp_path / "pred" / "view_0.ppm").write_bytes(b"P6\n99999999999 99999999999\n255\n" + b"\x00" * 64)
        code = main(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")])
        assert_one_error_line(code, capsys)

    def test_empty_directories_exit_2(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code, _ = run_cli(
            ["eval", "--pred", str(tmp_path / "a"), "--truth", str(tmp_path / "b")], capsys
        )
        assert code == EXIT_INPUT


class TestThreadEnv:
    def test_invalid_thread_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("OBSURF_THREADS", "many")
        code, _ = run_cli(["bias-demo", "--k", "5", "--n-trials", "5"], capsys)
        assert code == EXIT_INPUT
