"""Gradient fitting of scene parameters to RGB-D samples.

The loss landscape comes from losses.total_loss.  Gradients are closed-form:
each field kind supplies the derivative of its density as one row per
parameter it depends on and the parameter slots of its colors (fields),
losses._loss_eval contracts them with per-point weights into the gradient of
the whole parameter vector without forming a Jacobian, and
finite_diff_gradient cross-checks the result.
The optimizer is Adam with bias correction, a stepwise-halving learning
rate, global norm clipping, and a skip threshold for pathological steps.
After every step the parameters are projected into the box of the scene's
layout (``fields._scene_layout``) and the scene is rebuilt by
``CompositeScene.with_params``, which checks the whole vector once; the last
scene built is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .compose import CompositeScene
from .fields import _scene_layout
from .geometry import _check_integer, _real
from .losses import LossConfig, _as_batch, _loss_eval

__all__ = [
    "FitConfig",
    "FitReport",
    "FitDivergence",
    "loss_gradient",
    "finite_diff_gradient",
    "fit",
]


class FitDivergence(RuntimeError):
    """Loss became non-finite; carries the iteration and offending term."""

    def __init__(self, iteration: int, term: str):
        super().__init__(f"non-finite loss at iteration {iteration} (term: {term})")
        self.iteration = iteration
        self.term = term


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 2000
    batch_size: int = 512
    learning_rate: float = 4e-4
    decay_every: int = 100_000
    decay_factor: float = 0.5
    grad_clip_norm: float = 1.0
    skip_norm: float = 1000.0
    seed: int = 0
    loss: LossConfig = dc_field(default_factory=LossConfig)

    def __post_init__(self):
        for name, minimum in (("iterations", 1), ("batch_size", 1), ("decay_every", 1), ("seed", 0)):
            _check_integer(getattr(self, name), name, minimum)
        for name in ("learning_rate", "decay_factor", "grad_clip_norm", "skip_norm"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.learning_rate <= 0 or not 0 < self.decay_factor <= 1:
            raise ValueError("bad learning-rate schedule")
        if self.grad_clip_norm <= 0 or self.skip_norm <= 0:
            raise ValueError("grad_clip_norm and skip_norm must be positive")


@dataclass
class FitReport:
    """Per-iteration loss trace plus the fitted scene.

    ``wall_clock_s`` is informational and deliberately left out of anything
    written to disk so identical seeds give identical files.
    """

    trace: list[dict]
    final_scene: CompositeScene
    final_params: np.ndarray
    seed: int
    skipped_steps: int
    wall_clock_s: float


class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, n: int):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)


def loss_gradient(scene: CompositeScene, batch, iteration: int, config: LossConfig, rng) -> np.ndarray:
    """Analytic gradient of total_loss w.r.t. the concatenated scene params.

    Raises UnsupportedGradient if any component kind lacks gradients.
    """
    _, _, grad = _loss_eval(scene, _as_batch(batch), iteration, config, rng, want_grads=True)
    return grad


def finite_diff_gradient(scene: CompositeScene, batch, iteration: int, config: LossConfig,
                         seed: int, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of total_loss sharing the seed with the
    analytic path (``seed`` must be an integer so draws replay)."""
    arrays = _as_batch(batch)
    base = scene.params()
    grad = np.empty_like(base)
    for j in range(base.shape[0]):
        plus = base.copy()
        plus[j] += h
        minus = base.copy()
        minus[j] -= h
        up, _, _ = _loss_eval(scene.with_params(plus), arrays, iteration, config, seed, want_grads=False)
        dn, _, _ = _loss_eval(scene.with_params(minus), arrays, iteration, config, seed, want_grads=False)
        grad[j] = (up - dn) / (2.0 * h)
    return grad


def fit(initial_scene: CompositeScene, dataset, config: FitConfig) -> FitReport:
    """Stochastic fit of every scene parameter against RGB-D samples.

    Batches and loss draws derive from (seed, iteration), so identical
    inputs give an identical report (wall clock aside).
    """
    started = time.perf_counter()
    data = _as_batch(dataset)
    n_data = len(data)
    scene = initial_scene
    params = scene.params()
    layout = _scene_layout(tuple(map(type, scene.components)))  # None only for kinds the first step rejects
    adam = _Adam(params.shape[0])
    batch_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    trace: list[dict] = []
    skipped = 0

    for it in range(config.iterations):
        idx = batch_rng.choice(n_data, size=min(config.batch_size, n_data), replace=False)
        loss_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2, it)))
        total, breakdown, grad = _loss_eval(scene, data[idx], it, config.loss, loss_rng, want_grads=True)
        if not np.isfinite(total):
            term = next((k for k, v in breakdown.items() if not np.isfinite(v)), "total")
            raise FitDivergence(it, term)
        if not np.isfinite(grad).all():
            raise FitDivergence(it, "gradient")

        lr = config.learning_rate * config.decay_factor ** (it // config.decay_every)
        norm = float(np.sqrt(grad.dot(grad)))  # np.linalg.norm, without its wrapper
        skip = norm > config.skip_norm
        skipped += skip
        if not skip:
            if norm > config.grad_clip_norm:
                grad = grad * (config.grad_clip_norm / norm)
            params = np.clip(params - adam.step(grad, lr), *layout.box)
            scene = scene.with_params(params)
        trace.append(dict(breakdown, iteration=it, grad_norm=norm, learning_rate=lr, skipped=skip))

    return FitReport(
        trace=trace,
        final_scene=scene,
        final_params=params,
        seed=config.seed,
        skipped_steps=skipped,
        wall_clock_s=time.perf_counter() - started,
    )
