"""rayfields: volumetric ray transport with exact depth distributions.

A scene is a sum of density/color fields.  Along a camera ray the density
induces a probability distribution over the depth at which the ray is
absorbed; rendering, depth supervision, segmentation, and parameter fitting
all derive from that one distribution.  Everything is numpy, deterministic
under explicit seeds, and differentiable by hand where fitting needs it.
"""

from .compose import (
    CompositeScene,
    composite_eval,
    composite_render,
    component_marginal,
    merged_field,
    mixture_render_constant,
    render_ray_grid,
    segment_ray,
)
from .fields import (
    DEFAULT_SIGMA_MAX,
    Field,
    FIELD_KINDS,
    GaussianBlobField,
    GroundPlaneField,
    PiecewiseConstantRayField,
    SoftBoxField,
    SoftSphereField,
    UnsupportedGradient,
    field_from_params,
)
from .fitting import FitConfig, FitDivergence, FitReport, finite_diff_gradient, fit, loss_gradient
from .geometry import Camera, Ray, RayGrid, pinhole_rays, ray_at, rig_views
from .losses import (
    LossConfig,
    RgbdBatch,
    RgbdSample,
    color_nll,
    depth_nll_importance,
    depth_nll_uniform,
    k_o_schedule,
    overlap_loss,
    total_loss,
)
from .metrics import ari, mse
from .scenedoc import (
    SceneFormatError,
    doc_to_scene,
    dumps_canonical,
    load_scene,
    save_scene,
    scene_to_doc,
    two_blob_demo_scene,
)
from .scenegen import (
    GroundTruth,
    PlacementError,
    SceneGenConfig,
    render_dataset,
    sample_observations,
    sample_scene,
    samples_from_views,
    surface_distance,
    surface_samples,
)
from .transport import (
    QuadratureConfig,
    RenderResult,
    analytic_piecewise,
    depth_cdf,
    depth_pdf,
    expected_depth,
    hierarchical_render,
    probability_balance,
    quadrature_render,
    stratified_samples,
    transmittance,
    transmittance_grid,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Ray",
    "Camera",
    "RayGrid",
    "ray_at",
    "pinhole_rays",
    "rig_views",
    # fields
    "DEFAULT_SIGMA_MAX",
    "Field",
    "FIELD_KINDS",
    "GaussianBlobField",
    "SoftSphereField",
    "SoftBoxField",
    "GroundPlaneField",
    "PiecewiseConstantRayField",
    "UnsupportedGradient",
    "field_from_params",
    # transport
    "QuadratureConfig",
    "RenderResult",
    "transmittance",
    "transmittance_grid",
    "probability_balance",
    "depth_pdf",
    "depth_cdf",
    "stratified_samples",
    "quadrature_render",
    "hierarchical_render",
    "expected_depth",
    "analytic_piecewise",
    # composition
    "CompositeScene",
    "composite_eval",
    "composite_render",
    "component_marginal",
    "segment_ray",
    "render_ray_grid",
    "mixture_render_constant",
    "merged_field",
    # losses
    "LossConfig",
    "RgbdSample",
    "RgbdBatch",
    "depth_nll_uniform",
    "depth_nll_importance",
    "color_nll",
    "overlap_loss",
    "k_o_schedule",
    "total_loss",
    # fitting
    "FitConfig",
    "FitReport",
    "FitDivergence",
    "fit",
    "loss_gradient",
    "finite_diff_gradient",
    # scenes
    "SceneGenConfig",
    "PlacementError",
    "GroundTruth",
    "sample_scene",
    "surface_distance",
    "render_dataset",
    "samples_from_views",
    "surface_samples",
    "sample_observations",
    "SceneFormatError",
    "scene_to_doc",
    "doc_to_scene",
    "dumps_canonical",
    "save_scene",
    "load_scene",
    "two_blob_demo_scene",
    # metrics
    "ari",
    "mse",
]
