"""JSON scene documents: a portable, canonical on-disk form for scenes.

A document is a plain dict (version "1") carrying the scene's cutoff,
density cap, serializable components, and optionally the camera rig base
and quadrature settings.  Serialization is canonical — sorted keys, fixed
indentation, trailing newline — so identical scenes produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .compose import CompositeScene
from .fields import DEFAULT_SIGMA_MAX, FIELD_KINDS, Field, GroundPlaneField, field_from_params
from .geometry import Camera, rig_views
from .transport import QuadratureConfig

__all__ = [
    "SCENE_DOC_VERSION",
    "SceneFormatError",
    "SceneDocument",
    "scene_to_doc",
    "doc_to_scene",
    "dumps_canonical",
    "save_scene",
    "load_scene",
    "two_blob_demo_scene",
]

SCENE_DOC_VERSION = "1"


class SceneFormatError(ValueError):
    """Raised when a scene document is malformed."""


@dataclass(frozen=True)
class SceneDocument:
    """Parsed document: the scene plus its optional camera/quadrature blocks."""

    scene: CompositeScene
    sigma_max: float | None
    camera: Camera | None
    quadrature: QuadratureConfig | None
    names: tuple[str, ...]
    objects: list | None


def _float_list(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]


def _camera_block(camera: Camera) -> dict:
    return {
        "position": _float_list(camera.position),
        "look_at": _float_list(camera.look_at),
        "width": camera.width,
        "height": camera.height,
        "vertical_fov": float(camera.vertical_fov),
        "up": _float_list(camera.up),
    }


def _quad_block(quad: QuadratureConfig) -> dict:
    return {
        "n_coarse": quad.n_coarse,
        "n_fine": quad.n_fine,
        "seed": quad.seed,
        "stratified": quad.stratified,
    }


def scene_to_doc(
    scene: CompositeScene,
    sigma_max: float | None = DEFAULT_SIGMA_MAX,
    camera: Camera | None = None,
    quadrature: QuadratureConfig | None = None,
    names: tuple[str, ...] | None = None,
    objects: list | None = None,
) -> dict:
    """Serialize a scene of registered field kinds to a document dict."""
    if names is None:
        names = tuple(f"component_{i}" for i in range(scene.n))
    if len(names) != scene.n:
        raise ValueError("one name per component required")
    components = []
    for name, comp in zip(names, scene.components):
        if comp.kind not in FIELD_KINDS:
            raise SceneFormatError(f"field kind {comp.kind!r} cannot be serialized")
        components.append({
            "kind": comp.kind,
            "name": name,
            "params": _float_list(comp.params()),
        })
    doc = {
        "version": SCENE_DOC_VERSION,
        "t_far": float(scene.t_far),
        "sigma_max": None if sigma_max is None else float(sigma_max),
        "components": components,
    }
    if camera is not None:
        doc["camera"] = _camera_block(camera)
    if quadrature is not None:
        doc["quadrature"] = _quad_block(quadrature)
    if objects is not None:
        doc["objects"] = objects
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise SceneFormatError(f"scene document is missing {key!r}")
    return doc[key]


def doc_to_scene(doc: dict) -> SceneDocument:
    """Validate and reconstruct a scene (and optional blocks) from a dict."""
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    version = _require(doc, "version")
    if version != SCENE_DOC_VERSION:
        raise SceneFormatError(f"unsupported scene document version {version!r}")
    t_far = _require(doc, "t_far")
    sigma_max = doc.get("sigma_max", DEFAULT_SIGMA_MAX)
    if sigma_max is not None and not (
        isinstance(sigma_max, (int, float)) and not isinstance(sigma_max, bool) and 0 < sigma_max < math.inf
    ):
        raise SceneFormatError(f"sigma_max must be null or a finite number > 0, got {sigma_max!r}")
    raw_components = _require(doc, "components")
    if not isinstance(raw_components, list) or not raw_components:
        raise SceneFormatError("components must be a non-empty list")
    fields: list[Field] = []
    names: list[str] = []
    for i, entry in enumerate(raw_components):
        if not isinstance(entry, dict):
            raise SceneFormatError(f"component {i} must be an object")
        kind = _require(entry, "kind")
        params = _require(entry, "params")
        try:
            fields.append(field_from_params(kind, params, sigma_max=sigma_max))
        except (ValueError, TypeError) as exc:
            raise SceneFormatError(f"component {i} ({kind!r}): {exc}") from exc
        names.append(str(entry.get("name", f"component_{i}")))
    try:
        scene = CompositeScene(tuple(fields), t_far=float(t_far))
    except (ValueError, TypeError) as exc:
        raise SceneFormatError(str(exc)) from exc

    camera = None
    if "camera" in doc:
        cb = doc["camera"]
        try:
            camera = Camera(
                position=cb["position"],
                look_at=cb["look_at"],
                width=cb["width"],
                height=cb["height"],
                vertical_fov=cb.get("vertical_fov", Camera.vertical_fov),
                up=cb.get("up", (0.0, 0.0, 1.0)),
            )
            # Commands render the rig's views of this camera: each needs a frame.
            for view in rig_views(camera):
                view.basis()
        except (KeyError, ValueError, TypeError) as exc:
            raise SceneFormatError(f"camera block: {exc}") from exc
    quadrature = None
    if "quadrature" in doc:
        qb = doc["quadrature"]
        try:
            quadrature = QuadratureConfig(
                n_coarse=int(qb["n_coarse"]),
                n_fine=int(qb["n_fine"]),
                seed=int(qb.get("seed", 0)),
                stratified=bool(qb.get("stratified", True)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise SceneFormatError(f"quadrature block: {exc}") from exc
    return SceneDocument(
        scene=scene,
        sigma_max=sigma_max,
        camera=camera,
        quadrature=quadrature,
        names=tuple(names),
        objects=doc.get("objects"),
    )


def dumps_canonical(doc: dict) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline.
    NaN and infinities raise ValueError (they are not valid JSON)."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def save_scene(path: str | os.PathLike, doc: dict) -> None:
    text = dumps_canonical(doc)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_scene(path: str | os.PathLike) -> SceneDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"invalid JSON: {exc}") from exc
    return doc_to_scene(doc)


def two_blob_demo_scene(sigma_max: float = DEFAULT_SIGMA_MAX, t_far: float = 40.0) -> CompositeScene:
    """Two Gaussian blobs over a gray ground with a distant dome: the small
    fixture used by the fitting demos and as a fitting start point."""
    from .fields import GaussianBlobField

    # Blob amplitudes stay below the density cap: at the cap the clamp kills
    # parameter gradients over the blob core, which stalls fitting.
    blob_a = GaussianBlobField(
        center=(-0.9, -0.3, 0.55), scale=(0.5, 0.5, 0.45),
        amplitude=0.8 * sigma_max, color=(0.75, 0.25, 0.2), sigma_max=sigma_max,
    )
    blob_b = GaussianBlobField(
        center=(0.9, 0.4, 0.5), scale=(0.45, 0.45, 0.4),
        amplitude=0.8 * sigma_max, color=(0.2, 0.35, 0.75), sigma_max=sigma_max,
    )
    ground = GroundPlaneField(
        softness=0.05, amplitude=sigma_max,
        color_a=(0.62, 0.62, 0.62), color_b=(0.52, 0.52, 0.52),
        checker_size=0.0, dome_radius=30.0, dome_color=(0.55, 0.6, 0.68),
        sigma_max=sigma_max,
    )
    return CompositeScene((blob_a, blob_b, ground), t_far=t_far)
