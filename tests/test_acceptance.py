"""Release gate: one test per acceptance criterion.

Each test measures everything first, prints a single summary line
("criterion N: PASS/FAIL — numbers"), and only then asserts, so the printed
line always carries the observed values.
"""

import os
import time

import numpy as np
import pytest

from rayfields import CompositeScene, GaussianBlobField
from rayfields import estimlab, transport
from rayfields.cli import EXIT_OK, main as cli_main
from rayfields.compose import (
    composite_render,
    joint_depth_component_pdf,
    merged_field,
    mixture_render_constant,
)
from rayfields.fields import PiecewiseConstantRayField
from rayfields.fitting import FitConfig, finite_diff_gradient, fit, loss_gradient
from rayfields.geometry import Ray, pinhole_rays, rig_views
from rayfields.losses import LossConfig, RgbdSample, depth_nll_draws
from rayfields.metrics import ari
from rayfields.scenedoc import two_blob_demo_scene
from rayfields.scenegen import (
    SceneGenConfig,
    default_camera,
    ground_truth_maps,
    sample_observations,
)
from rayfields.transport import QuadratureConfig


def _finish(number: int, checks: list[tuple[bool, str]]) -> None:
    """Print the one-line verdict for a criterion, then assert it."""
    failures = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - " + "; ".join(msg for _, msg in checks))
    assert not failures, f"criterion {number}: " + "; ".join(failures)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_slab_sampling_bias():
    started = time.perf_counter()
    analytic = 1.0 - np.exp(-100.0)
    plain = estimlab.stratified_bias_demo(k=50, n_trials=10_000, seed=2026, hierarchical=False)
    hier = estimlab.stratified_bias_demo(k=50, n_trials=10_000, seed=2027, hierarchical=True)
    dense = estimlab.stratified_bias_demo(k=10_000, n_trials=50, seed=2028, hierarchical=False)
    elapsed = time.perf_counter() - started

    plain_bound = 0.5 + 3.0 * plain["std_error"]
    hier_bound = 0.5 + 3.0 * hier["std_error"]
    miss_dev = abs(plain["miss_rate"] - 0.5)
    miss_tol = 3.0 * plain["miss_rate_std_error"]
    checks = [
        (abs(plain["analytic_color"] - analytic) < 1e-12,
         f"analytic color {plain['analytic_color']:.12f} = 1-exp(-100)"),
        (plain["analytic_miss_probability"] == 0.5, "closed-form slab miss probability = 1/2"),
        (plain["empirical_mean"] <= plain_bound,
         f"stratified k=50 mean {plain['empirical_mean']:.4f} <= {plain_bound:.4f} (0.5+3SE)"),
        (miss_dev <= miss_tol,
         f"slab-bin miss rate {plain['miss_rate']:.4f} within 3SE ({miss_tol:.4f}) of 1/2"),
        (hier["empirical_mean"] <= hier_bound,
         f"hierarchical mean {hier['empirical_mean']:.4f} <= {hier_bound:.4f} (0.5+3SE)"),
        (abs(dense["empirical_mean"] - 1.0) <= 0.01,
         f"k=10000 mean {dense['empirical_mean']:.5f} within 0.01 of 1"),
        (elapsed <= 60.0, f"runtime {elapsed:.1f}s <= 60s"),
    ]
    _finish(1, checks)


# --------------------------------------------------------------- criterion 2


def _random_blob_scene(rng, n_min=1, n_max=3, amp_hi=12.0, t_far=40.0) -> CompositeScene:
    parts = []
    for _ in range(int(rng.integers(n_min, n_max + 1))):
        parts.append(GaussianBlobField(
            center=rng.uniform([-2.5, -2.5, 0.0], [2.5, 2.5, 2.5]),
            scale=rng.uniform(0.25, 0.9, 3),
            amplitude=float(rng.uniform(2.0, amp_hi)),
            color=rng.uniform(0.0, 1.0, 3),
        ))
    return CompositeScene(tuple(parts), t_far=t_far)


def _random_ray(rng, t_far=40.0) -> Ray:
    origin = rng.uniform([-5.0, -5.0, 0.2], [5.0, 5.0, 4.0])
    target = rng.uniform([-1.5, -1.5, 0.0], [1.5, 1.5, 2.0])
    d = target - origin
    d = d / np.linalg.norm(d)
    return Ray(origin, d, t_far)


def test_criterion_2_probability_conservation():
    rng = np.random.default_rng(20260819)
    worst_balance = 0.0
    monotone = True
    for _ in range(100):
        scene = _random_blob_scene(rng)
        ray = _random_ray(rng)
        integral, survival = transport.probability_balance(scene, ray, n_panels=4096)
        worst_balance = max(worst_balance, abs(integral + survival - 1.0))
        grid_t = transport.transmittance_grid(scene, ray, np.linspace(0.0, ray.t_far, 64))
        monotone = monotone and bool(np.all(np.diff(grid_t) <= 0.0))
    checks = [
        (worst_balance <= 1e-3,
         f"worst |depth mass + survival - 1| = {worst_balance:.2e} <= 1e-3 over 100 scene/ray pairs"),
        (monotone, "transmittance nonincreasing at 64 depths on every ray"),
    ]
    _finish(2, checks)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_depth_nll_estimators():
    rng = np.random.default_rng(31)
    config = LossConfig()
    n_draws = 100_000
    worst_dev = 0.0  # largest |mean - closed form| in SE units
    for trial in range(10):
        origin = rng.uniform(-1.0, 1.0, 3)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        ray = Ray(origin, d, 40.0)
        n_bands = int(rng.integers(3, 7))
        breakpoints = np.concatenate([[0.0], np.sort(rng.uniform(2.0, 38.0, n_bands - 1)), [40.0]])
        sigmas = rng.uniform(0.05, 2.0, n_bands)
        field = PiecewiseConstantRayField.on_ray(
            ray, breakpoints, sigmas, rng.uniform(0.0, 1.0, (n_bands, 3)))
        widths = np.diff(breakpoints)
        j = int(np.argmax(widths))  # widest band hosts the observed depth
        t_obs = float(breakpoints[j] + 0.5 * widths[j])
        assert t_obs + config.delta < breakpoints[j + 1]  # density constant over the jitter window
        sample = RgbdSample(ray, np.array([0.5, 0.5, 0.5]), t_obs)
        lengths = np.clip(np.minimum(breakpoints[1:], t_obs) - np.maximum(breakpoints[:-1], 0.0), 0.0, None)
        closed_form = -np.log(sigmas[j]) + float(lengths @ sigmas)
        for proposal in ("uniform", "importance"):
            draws = depth_nll_draws(field, sample, np.random.SeedSequence((300, trial)),
                                    config, n_draws=n_draws, proposal=proposal)
            se = draws.std(ddof=1) / np.sqrt(n_draws)
            # When [0, t_obs] sits inside one constant band the estimator is
            # exact: every draw is identical, the SE collapses to rounding
            # noise, and mean/closed form agree to a few ulp.  Floor the SE at
            # double-precision scale so that degenerate case is not scored as
            # a statistical deviation.
            se = max(se, 1e-12 * max(1.0, abs(closed_form)))
            worst_dev = max(worst_dev, abs(float(draws.mean()) - closed_form) / se)

    # density spike confined to the last 2% of the observed range: the
    # importance proposal spends half its draws there
    spike_ray = Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 40.0)
    t_obs = 30.0
    spike_field = PiecewiseConstantRayField.on_ray(
        spike_ray,
        [0.0, 0.98 * t_obs, t_obs + 0.5, 40.0],
        [0.05, 40.0, 0.2],
        [(0.8, 0.8, 0.8), (1.0, 1.0, 1.0), (0.1, 0.1, 0.1)],
    )
    spike_sample = RgbdSample(spike_ray, np.array([1.0, 1.0, 1.0]), t_obs)
    uniform_draws = depth_nll_draws(spike_field, spike_sample, np.random.SeedSequence((301, 0)),
                                    config, n_draws=n_draws, proposal="uniform")
    importance_draws = depth_nll_draws(spike_field, spike_sample, np.random.SeedSequence((301, 1)),
                                       config, n_draws=n_draws, proposal="importance")
    var_uniform = float(uniform_draws.var(ddof=1))
    var_importance = float(importance_draws.var(ddof=1))

    checks = [
        (worst_dev <= 3.0,
         f"worst |mean - closed form| = {worst_dev:.2f} SE (<= 3) across 10 fields x 2 estimators"),
        (var_importance <= var_uniform / 2.0,
         f"spike field: importance variance {var_importance:.3f} <= uniform/2 ({var_uniform / 2.0:.3f})"),
    ]
    _finish(3, checks)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_composition_identities():
    rng = np.random.default_rng(44)
    worst_t = worst_pdf = worst_render = 0.0
    for trial in range(20):
        scene = _random_blob_scene(rng, n_min=2, n_max=3, amp_hi=6.0)
        ray = _random_ray(rng)
        ts = np.sort(rng.uniform(0.0, ray.t_far, 64))

        total = transport.transmittance_grid(scene, ray, ts, n_panels=64)
        product = np.ones_like(total)
        for part in scene.components:
            product = product * transport.transmittance_grid(part, ray, ts, n_panels=64)
        worst_t = max(worst_t, float(np.max(np.abs(total - product))))

        quad = QuadratureConfig(n_coarse=64, n_fine=128, seed=trial)
        for t in rng.uniform(0.5, 39.5, 8):
            joint = joint_depth_component_pdf(scene, ray, float(t), quad)
            worst_pdf = max(worst_pdf, abs(float(joint.sum()) - transport.depth_pdf(scene, ray, float(t), quad)))

        split = composite_render(scene, ray, quad)
        merged = transport.hierarchical_render(merged_field(scene), ray, quad)
        worst_render = max(
            worst_render,
            float(np.max(np.abs(split.render.color - merged.color))),
            abs(split.render.alpha - merged.alpha),
            abs(split.render.depth_raw - merged.depth_raw),
        )

    far_ray = Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1000.0)
    sigmas = np.array([0.02, 0.05, 0.03])
    colors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.9]])
    constant_scene = CompositeScene(
        tuple(PiecewiseConstantRayField.on_ray(far_ray, [0.0, 1000.0], [s], [c])
              for s, c in zip(sigmas, colors)),
        t_far=1000.0,
    )
    rendered = composite_render(constant_scene, far_ray, QuadratureConfig(n_coarse=256, n_fine=256, seed=3))
    mixture_err = float(np.max(np.abs(rendered.render.color - mixture_render_constant(sigmas, colors))))

    checks = [
        (worst_t <= 1e-12, f"composite survival vs product of parts: worst {worst_t:.2e} <= 1e-12"),
        (worst_pdf <= 1e-12, f"sum of joint depth densities vs total: worst {worst_pdf:.2e} <= 1e-12"),
        (worst_render <= 1e-6, f"split render vs merged-field render: worst {worst_render:.2e} <= 1e-6"),
        (mixture_err <= 1e-4,
         f"constant-density composite vs density-share mixture: {mixture_err:.2e} <= 1e-4"),
    ]
    _finish(4, checks)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_gradient_fidelity():
    rng = np.random.default_rng(55)
    config = LossConfig(ramp_start=5_000, ramp_end=10_000)
    iteration = 7_500  # overlap weight mid-ramp, so every loss term is active
    worst = 0.0
    for trial in range(20):
        n_parts = int(rng.integers(1, 4))
        parts = tuple(GaussianBlobField(
            center=rng.uniform([-2.0, -2.0, 0.3], [2.0, 2.0, 2.2]),
            scale=rng.uniform(0.3, 0.9, 3),
            amplitude=float(rng.uniform(2.0, 8.0)),
            color=rng.uniform(0.1, 0.9, 3),
        ) for _ in range(n_parts))
        scene = CompositeScene(parts, t_far=40.0)

        batch = []
        while len(batch) < 8:
            origin = rng.uniform([-4.0, -4.0, 0.5], [4.0, 4.0, 3.5])
            anchor = parts[int(rng.integers(0, n_parts))].center + rng.normal(0.0, 0.3, 3)
            d = anchor - origin
            span = float(np.linalg.norm(d))
            d = d / span
            depth = span + float(rng.uniform(-0.4, 0.2))
            if not 0.5 < depth < 39.0:
                continue
            ray = Ray(origin, d, 40.0)
            probe = ray.origin + np.linspace(depth, depth + config.delta, 5)[:, None] * ray.direction
            density, _ = scene.evaluate(probe)
            if float(np.min(density)) < 1e-5:  # keep clear of the log floor
                continue
            batch.append(RgbdSample(ray, rng.uniform(0.1, 0.9, 3), depth))

        seed = 1_000 + trial
        analytic = loss_gradient(scene, batch, iteration, config, seed)
        numeric = finite_diff_gradient(scene, batch, iteration, config, seed, h=1e-5)
        floor = 1e-6 * max(1.0, float(np.max(np.abs(numeric))))
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor)
        worst = max(worst, float(np.max(rel)))

    checks = [(worst <= 1e-4,
               f"max relative error analytic vs central difference = {worst:.2e} <= 1e-4 "
               f"over 20 scenes (1-3 components, all parameters)")]
    _finish(5, checks)


# --------------------------------------------------------------- criterion 6


def _attribution_labels(scene: CompositeScene, grid, observed_depth: np.ndarray) -> np.ndarray:
    """Label every pixel by the scene component that dominates the density at
    the observed surface point (0 = background component or no surface)."""
    d = observed_depth.ravel()
    valid = np.isfinite(d) & (d < grid.t_fars)
    points = grid.origins[valid] + d[valid, None] * grid.directions[valid]
    densities, _ = scene.evaluate_components(points)
    owner = np.argmax(densities, axis=1) + 1
    owner[owner == scene.n] = 0
    labels = np.zeros(len(grid), dtype=np.int64)
    labels[valid] = owner
    return labels


def test_criterion_6_end_to_end_fit():
    started = time.perf_counter()
    target = two_blob_demo_scene()
    camera = default_camera(SceneGenConfig(resolution=64))
    grids = [pinhole_rays(c, target.t_far) for c in rig_views(camera)]
    samples = []
    for v, grid in enumerate(grids):
        samples += sample_observations(target, grid, seed=1_000 + v,
                                       depth_offset=-0.035, censored="boundary")

    # start from the truth with only the centers (offset 0.5) and colors
    # (offset 0.2 per channel) disturbed
    rng = np.random.default_rng(11)
    disturbed = []
    for blob in target.components[:2]:
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        color = np.clip(blob.color + 0.2 * rng.choice([-1.0, 1.0], 3), 0.0, 1.0)
        disturbed.append(GaussianBlobField(
            center=blob.center + 0.5 * direction, scale=blob.scale,
            amplitude=blob.amplitude, color=color, sigma_max=blob.sigma_max))
    disturbed.append(target.components[2])
    init = CompositeScene(tuple(disturbed), t_far=target.t_far)

    iterations = 40_000

    def run(k_o_max: float) -> CompositeScene:
        loss = LossConfig(k_o_max=k_o_max,
                          ramp_start=iterations // 8, ramp_end=iterations // 4)
        config = FitConfig(iterations=iterations, batch_size=512, learning_rate=4e-4,
                           seed=4, loss=loss)
        return fit(init, samples, config).final_scene

    fitted = run(0.05)
    ablated = run(0.0)

    maps = [ground_truth_maps(target, grid) for grid in grids]
    aris = []
    surface_points = []
    for grid, (depth, truth_labels) in zip(grids, maps):
        aris.append(ari(_attribution_labels(fitted, grid, depth), truth_labels.ravel()))
        d = depth.ravel()
        valid = np.isfinite(d) & (d < grid.t_fars)
        surface_points.append(grid.origins[valid] + d[valid, None] * grid.directions[valid])
    surface_points = np.concatenate(surface_points)

    def mean_overlap(scene: CompositeScene) -> float:
        densities, _ = scene.evaluate_components(surface_points)
        return float((densities.sum(axis=1) - densities.max(axis=1)).mean())

    overlap_fitted = mean_overlap(fitted)
    overlap_ablated = mean_overlap(ablated)
    center_err = [float(np.linalg.norm(a.center - b.center))
                  for a, b in zip(fitted.components[:2], target.components[:2])]
    color_err = [float(np.max(np.abs(a.color - b.color)))
                 for a, b in zip(fitted.components[:2], target.components[:2])]
    elapsed = time.perf_counter() - started

    checks = [
        (max(center_err) <= 0.05,
         f"center errors {[round(c, 4) for c in center_err]} <= 0.05"),
        (max(color_err) <= 0.02,
         f"color errors {[round(c, 4) for c in color_err]} <= 0.02"),
        (min(aris) >= 0.95,
         f"segmentation ARI per view {[round(a, 4) for a in aris]} >= 0.95"),
        (overlap_ablated > overlap_fitted,
         f"overlap without penalty {overlap_ablated:.6f} > with penalty {overlap_fitted:.6f}"),
        (elapsed <= 900.0, f"runtime {elapsed:.0f}s <= 900s"),
    ]
    _finish(6, checks)


# --------------------------------------------------------------- criterion 7


def _pair_mask(labels) -> int:
    """Upper-triangle co-membership bitmask over pixel pairs."""
    labels = list(labels)
    n = len(labels)
    mask = 0
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                mask |= 1 << bit
            bit += 1
    return mask


def _pair_count_ari(mask_a: int, mask_b: int, n_pairs: int) -> float:
    full = (1 << n_pairs) - 1
    n11 = (mask_a & mask_b).bit_count()
    n10 = (mask_a & ~mask_b & full).bit_count()
    n01 = (~mask_a & mask_b & full).bit_count()
    n00 = n_pairs - n11 - n10 - n01
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0 if mask_a == mask_b else 0.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def _labelings(n: int, max_blocks: int = 3) -> list[np.ndarray]:
    """All partitions of n pixels into at most max_blocks blocks, as
    restricted growth strings."""
    out: list[np.ndarray] = []

    def grow(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            out.append(np.array(prefix, dtype=np.int64))
            return
        for label in range(min(used + 1, max_blocks)):
            grow(prefix + [label], used + 1 if label == used else used)

    grow([0], 1)
    return out


def test_criterion_7_ari_metric():
    rng = np.random.default_rng(77)
    identical_ok = True
    for _ in range(10):
        labels = rng.integers(0, 5, 40)
        identical_ok = identical_ok and ari(labels, labels.copy()) == 1.0

    random_scores = [float(ari(rng.integers(0, 4, 300), rng.integers(0, 4, 300)))
                     for _ in range(100)]
    mean_random = float(np.mean(random_scores))

    mismatches = 0
    compared = 0
    for n in range(2, 9):
        labelings = _labelings(n)
        masks = [_pair_mask(lab) for lab in labelings]
        n_pairs = n * (n - 1) // 2
        for a, mask_a in zip(labelings, masks):
            for b, mask_b in zip(labelings, masks):
                compared += 1
                if ari(a, b) != _pair_count_ari(mask_a, mask_b, n_pairs):
                    mismatches += 1

    checks = [
        (identical_ok, "identical labelings score exactly 1"),
        (abs(mean_random) <= 0.05,
         f"|mean over 100 random labeling pairs| = {abs(mean_random):.4f} <= 0.05"),
        (mismatches == 0,
         f"{mismatches} mismatches vs pair-counting oracle over {compared} labeling pairs "
         f"(all partitions of 2..8 pixels, <= 3 blocks)"),
    ]
    _finish(7, checks)


# --------------------------------------------------------------- criterion 8


def _tree_bytes(root) -> dict[str, bytes]:
    snapshot = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            snapshot[os.path.relpath(path, root)] = open(path, "rb").read()
    return snapshot


def test_criterion_8_cli_determinism(tmp_path, capsys, monkeypatch):
    def run(threads: int, argv: list[str]) -> str:
        monkeypatch.setenv("OBSURF_THREADS", str(threads))
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_OK, f"{argv[0]} exited {code} with {threads} threads: {captured.out}"
        return captured.out

    results: list[tuple[bool, str]] = []

    gen_a, gen_b = tmp_path / "gen_1", tmp_path / "gen_8"
    for threads, out_dir in ((1, gen_a), (8, gen_b)):
        run(threads, ["generate", "--out", str(out_dir), "--scene-seed", "5",
                      "--resolution", "12", "--views", "2",
                      "--n-coarse", "16", "--n-fine", "16"])
    results.append((_tree_bytes(gen_a) == _tree_bytes(gen_b), "generate"))

    ren_a, ren_b = tmp_path / "ren_1", tmp_path / "ren_8"
    for threads, out_dir in ((1, ren_a), (8, ren_b)):
        run(threads, ["render", "--scene", str(gen_a / "scene.json"),
                      "--out", str(out_dir), "--resolution", "10", "--views", "2"])
    results.append((_tree_bytes(ren_a) == _tree_bytes(ren_b), "render"))

    # 48x48 = 2,304 rays: several blocks of sample points, which 8 threads
    # spread over the workers while 1 thread runs them in order.
    big_a, big_b = tmp_path / "big_1", tmp_path / "big_8"
    for threads, out_dir in ((1, big_a), (8, big_b)):
        run(threads, ["render", "--scene", str(gen_a / "scene.json"),
                      "--out", str(out_dir), "--resolution", "48", "--views", "1"])
    results.append((_tree_bytes(big_a) == _tree_bytes(big_b), "render 48x48"))

    fit_a, fit_b = tmp_path / "fit_1", tmp_path / "fit_8"
    for threads, out_dir in ((1, fit_a), (8, fit_b)):
        run(threads, ["fit", "--data", str(gen_a), "--out", str(out_dir),
                      "--init", str(gen_a / "scene.json"),
                      "--iterations", "40", "--batch-size", "64", "--fit-seed", "3"])
    results.append((_tree_bytes(fit_a) == _tree_bytes(fit_b), "fit"))

    bias_argv = ["bias-demo", "--k", "10", "--n-trials", "25", "--seed", "9"]
    results.append((run(1, bias_argv) == run(8, bias_argv), "bias-demo"))

    eval_argv = ["eval", "--pred", str(gen_a), "--truth", str(gen_b)]
    results.append((run(1, eval_argv) == run(8, eval_argv), "eval"))

    same = [name for ok, name in results if ok]
    diff = [name for ok, name in results if not ok]
    checks = [(not diff,
               f"bit-identical outputs with 1 vs 8 worker threads: {', '.join(same)}"
               + (f"; MISMATCH: {', '.join(diff)}" if diff else ""))]
    _finish(8, checks)
