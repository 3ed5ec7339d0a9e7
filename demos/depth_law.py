"""The depth law of a ray: where along a ray absorption happens.

A scene's density sigma turns each camera ray into a probability
distribution over depth: survive to t with probability T(t), get absorbed
around t at rate sigma.  This walkthrough shoots one ray at a blob and
inspects that distribution — its pdf, its normalization, and how the
expected depth relates to the visible surface.
"""

import numpy as np

import rayfields as rf

scene = rf.two_blob_demo_scene()
blob = scene.components[0]

# Aim straight down the x-axis at the first blob's center (from the -x side,
# so this blob is the first thing the ray meets).
origin = np.array([-5.0, blob.center[1], blob.center[2]])
direction = np.array([1.0, 0.0, 0.0])
ray = rf.Ray(origin, direction, t_far=scene.t_far)

print("== transmittance decays monotonically ==")
probes = np.array([0.0, 4.0, 5.5, 6.0, 7.0, 10.0])
T = rf.transmittance_grid(scene, ray, probes)
for t, Tt in zip(probes, T):
    print(f"  T({t:5.1f}) = {Tt:.6f}")
assert np.all(np.diff(T) <= 0)

print("\n== the depth pdf integrates to 1 (with the survival remainder) ==")
integral, survival = rf.probability_balance(scene, ray)
print(f"  integral of sigma*T over [0, t_far] = {integral:.9f}")
print(f"  survival past t_far                 = {survival:.3e}")
print(f"  sum                                 = {integral + survival:.9f}")
assert abs(integral + survival - 1.0) < 1e-3

print("\n== the pdf peaks just past the visible surface ==")
ts = np.linspace(0.0, 12.0, 4001)
points = origin[None, :] + ts[:, None] * direction[None, :]
sigma = scene.density(points)
pdf = sigma * rf.transmittance_grid(scene, ray, ts)
t_peak = ts[np.argmax(pdf)]
t_surface = float(rf.surface_distance(blob, origin[None, :], direction[None, :])[0])
result = rf.hierarchical_render(scene, ray, rf.QuadratureConfig(seed=0))
print(f"  half-max surface distance  = {t_surface:.4f}")
print(f"  pdf argmax                 = {t_peak:.4f}")
print(f"  expected depth (render)    = {result.depth:.4f}")
print(f"  rendered color             = {np.round(result.color, 4)}")
print(f"  alpha (hit probability)    = {result.alpha:.6f}")

# The expectation sits near the surface: depth mass accumulates while the
# ray burns through the blob's interior.
assert abs(result.depth - t_surface) < 1.0
print("\nall checks passed")
