"""Tests for blocked row execution: span coverage, the bound on the thread
count, and bit-identical results for any block size or worker count."""

import os
import threading

import numpy as np
import pytest

from rayfields import _threads, compose, scenegen
from rayfields._threads import BLOCK_POINTS, block_rows, chunked_row_map
from rayfields.compose import render_ray_grid
from rayfields.geometry import Camera, RayGrid, pinhole_rays
from rayfields.scenedoc import two_blob_demo_scene
from rayfields.scenegen import SceneGenConfig, sample_observations, sample_scene, surface_samples
from rayfields.transport import QuadratureConfig

RENDER_BLOCK = block_rows(64 + 128)


def recorded_spans(n_rows, rows_per_block):
    """The spans in the order ``fn`` ran on them, and the list
    ``chunked_row_map`` returned; ``fn`` returns its span."""
    spans, lock = [], threading.Lock()

    def fn(lo, hi):
        with lock:
            spans.append((lo, hi))
        return lo, hi

    returned = chunked_row_map(fn, n_rows, rows_per_block)
    return spans, returned


class TestBlocks:
    def test_block_sizes(self):
        assert RENDER_BLOCK == 170
        assert block_rows(2048) == 16
        assert block_rows(1) == BLOCK_POINTS

    @pytest.mark.parametrize("row_points", [BLOCK_POINTS + 1, 2 * BLOCK_POINTS, 10**9])
    def test_rows_per_block_at_least_one(self, row_points):
        assert block_rows(row_points) == 1

    @pytest.mark.parametrize("n_rows", [1, RENDER_BLOCK - 1, RENDER_BLOCK, RENDER_BLOCK + 1,
                                        5 * RENDER_BLOCK + 3])
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_spans_cover_rows_once_in_order(self, n_rows, threads, monkeypatch):
        monkeypatch.setenv("OBSURF_THREADS", threads)
        spans, returned = recorded_spans(n_rows, RENDER_BLOCK)
        if threads == "1":
            assert spans == sorted(spans)
        spans.sort()
        assert returned == spans
        assert spans[0][0] == 0 and spans[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(0 < hi - lo <= RENDER_BLOCK for lo, hi in spans)
        assert len(spans) == -(-n_rows // RENDER_BLOCK)

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_zero_rows_run_one_empty_span(self, threads, monkeypatch):
        monkeypatch.setenv("OBSURF_THREADS", threads)
        assert recorded_spans(0, RENDER_BLOCK) == ([(0, 0)], [(0, 0)])

    def test_one_worker_runs_on_calling_thread(self, monkeypatch):
        monkeypatch.setenv("OBSURF_THREADS", "1")
        idents = set()
        chunked_row_map(lambda lo, hi: idents.add(threading.get_ident()), 50, 7)
        assert idents == {threading.get_ident()}


class TestThreadBound:
    """A huge OBSURF_THREADS must not start more threads than cores or
    blocks.  The pool is replaced by a recorder, so no thread starts."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setenv("OBSURF_THREADS", "100000")
        monkeypatch.setattr(_threads, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return sizes

    def test_bounded_by_cores(self, pool_sizes):
        assert len(recorded_spans(10_000, 1)[1]) == 10_000
        assert pool_sizes == [4]

    def test_bounded_by_blocks(self, pool_sizes):
        assert len(recorded_spans(3, 1)[1]) == 3
        assert pool_sizes == [3]

    def test_single_block_starts_no_pool(self, pool_sizes):
        assert recorded_spans(5, 10) == ([(0, 5)], [(0, 5)])
        assert pool_sizes == []

    def test_render_and_sampler_bounded(self, pool_sizes, monkeypatch):
        scene = two_blob_demo_scene()
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=20, height=20)
        grid = pinhole_rays(cam, scene.t_far)
        # 400 rays: 3 render blocks of at most 170 rows, 400 sampler blocks of 1.
        render_ray_grid(scene, grid, QuadratureConfig(n_coarse=64, n_fine=128, seed=1))
        monkeypatch.setattr(scenegen, "block_rows", lambda _points: 1)
        sample_observations(scene, grid, seed=2, n_panels=64)
        assert pool_sizes == [3, 4]


class TestInvariance:
    @pytest.fixture(scope="class")
    def scene(self):
        scene, _ = sample_scene(SceneGenConfig(n_objects_min=4, n_objects_max=4),
                                np.random.default_rng(7))
        return scene

    def test_sample_observations_any_threads_and_chunk(self, scene, monkeypatch):
        # 12 x 12 = 144 rays x 2,048 panels: 9 blocks of 16 rows by default.
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=12, height=12)
        grid = pinhole_rays(cam, scene.t_far)

        def draw(threads):
            monkeypatch.setenv("OBSURF_THREADS", threads)
            samples = sample_observations(scene, grid, seed=3)
            return (
                np.array([s.depth for s in samples]).tobytes(),
                np.array([s.color for s in samples]).tobytes(),
                np.array([s.ray.direction for s in samples]).tobytes(),
            )

        reference = draw("1")
        assert len(reference[0]) > 64 * 8, "expected over 64 observed rays"
        for rows in (None, 1, 7):  # about BLOCK_POINTS panel points per block; 1 row; 7 rows
            if rows is not None:
                monkeypatch.setattr(scenegen, "block_rows", lambda _points, rows=rows: rows)
            for threads in ("1", "2", "8"):
                assert draw(threads) == reference, (threads, rows)

    @pytest.mark.parametrize("shape", [(1, 1), (13, 29)])
    def test_render_ray_grid_any_threads_and_block(self, scene, shape, monkeypatch):
        # 13 x 29 = 377 rays at 64 + 128 samples: blocks of 170, 170 and 37 rows.
        h, w = shape
        cam = Camera(position=(4.6, 0.0, 2.4), look_at=(0.0, 0.0, 0.5), width=w, height=h)
        grid = pinhole_rays(cam, scene.t_far)
        quad = QuadratureConfig(n_coarse=64, n_fine=128, seed=11)

        def render(threads):
            monkeypatch.setenv("OBSURF_THREADS", threads)
            view = render_ray_grid(scene, grid, quad)
            return {k: v.tobytes() for k, v in vars(view).items()}

        reference = render("1")
        assert render("2") == reference
        assert render("8") == reference
        for rows in (1, 10**9):  # one row per block; the whole view in one block
            monkeypatch.setattr(compose, "block_rows", lambda _points, rows=rows: rows)
            assert render("2") == reference, rows


class TestEmptyGrid:
    """A grid of zero rays renders to empty images of the usual dtypes and
    yields no samples, at any worker count."""

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    @pytest.mark.parametrize("quad", [QuadratureConfig(n_coarse=8, n_fine=16, seed=1),
                                      QuadratureConfig(n_coarse=8, n_fine=0, seed=1),
                                      QuadratureConfig(n_coarse=8, n_fine=4, seed=1, stratified=False)])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_zero_rays(self, shape, quad, threads, monkeypatch):
        monkeypatch.setenv("OBSURF_THREADS", threads)
        scene = two_blob_demo_scene()
        grid = RayGrid(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), shape)
        view = render_ray_grid(scene, grid, quad)
        expected = {"color": (shape + (3,), np.float64), "depth": (shape, np.float64),
                    "depth_raw": (shape, np.float64), "alpha": (shape, np.float64),
                    "labels": (shape, np.int32), "marginals": (shape + (scene.n,), np.float64),
                    "residual": (shape, np.float64), "empty": (shape, np.bool_)}
        assert {k: (v.shape, v.dtype) for k, v in vars(view).items()} == expected
        for censored in ("drop", "boundary"):
            assert len(sample_observations(scene, grid, seed=1, n_panels=16, censored=censored)) == 0
        assert len(surface_samples(scene, grid)) == 0
