"""JSON scene documents: a portable, canonical on-disk form for scenes.

A document is a plain dict (version "1") carrying the scene's cutoff,
density cap, serializable components, and optionally the camera rig base
and quadrature settings.  The cap is the one ``sigma_max`` all components
share (null: uncapped), so a scene with mixed caps cannot be written; a
document without one caps its components at ``DEFAULT_SIGMA_MAX``.  A camera
or quadrature block holds the fields of its dataclass, ``Camera`` or
``QuadratureConfig``: a key that is no field, or a missing required one, is
an error, and a key left out takes the dataclass's default.  Serialization
is canonical — sorted keys, fixed indentation, trailing newline — so
identical scenes produce identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .compose import CompositeScene
from .fields import DEFAULT_SIGMA_MAX, FIELD_KINDS, Field, GaussianBlobField, field_from_params
from .geometry import Camera, _real, rig_views
from .images import _atomic_write
from .scenegen import _background
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
    camera: Camera | None
    quadrature: QuadratureConfig | None
    names: tuple[str, ...]
    objects: list | None


def _float_list(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=np.float64).ravel()]


def _block(config) -> dict:
    """A camera or quadrature as a document block: one key per dataclass
    field, an array as a list of floats and any other value as it is."""
    return {f.name: _float_list(value) if isinstance(value := getattr(config, f.name), np.ndarray) else value
            for f in fields(config)}


def scene_to_doc(
    scene: CompositeScene,
    camera: Camera | None = None,
    quadrature: QuadratureConfig | None = None,
    names: tuple[str, ...] | None = None,
    objects: list | None = None,
) -> dict:
    """Serialize a scene of registered field kinds to a document dict; its
    ``sigma_max`` is the one density cap every component has."""
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
    caps = list(dict.fromkeys(comp.sigma_max for comp in scene.components))
    if len(caps) > 1:
        raise SceneFormatError(f"components must share one sigma_max, got {caps[0]} and {caps[1]}")
    doc = {
        "version": SCENE_DOC_VERSION,
        "t_far": float(scene.t_far),
        "sigma_max": caps[0],
        "components": components,
    }
    for key, config in (("camera", camera), ("quadrature", quadrature)):
        if config is not None:
            doc[key] = _block(config)
    if objects is not None:
        doc["objects"] = objects
    return doc


def _entries(values, what: str) -> list:
    """The entries of the JSON vector ``what``, which must be a list, each
    checked as a number on its own, since NumPy reads ``[0, 0, true]`` as
    integers.  A float (NaN included) passes as it is, so the constructor's
    finiteness error names its vector."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be a list, got {values!r}")
    return [v if isinstance(v, float) else _real(v, f"{what} entry") for v in values]


def _require(doc: dict, key: str, where: str = "scene document"):
    if key not in doc:
        raise SceneFormatError(f"{where} is missing {key!r}")
    return doc[key]


def _read_block(doc: dict, key: str, cls, required: tuple[str, ...], vectors: tuple[str, ...] = ()):
    """The ``key`` block of ``doc`` as a ``cls``, None if there is none.  The
    block holds the ``required`` keys and no key that is not a field of
    ``cls``; each entry of a ``vectors`` field passes ``_entries``, every
    other value goes to the constructor as it is."""
    if key not in doc:
        return None
    block = doc[key]
    if not isinstance(block, dict):
        raise SceneFormatError(f"{key} block must be an object")
    for name in required:
        _require(block, name, f"{key} block")
    unknown = sorted(set(block) - {f.name for f in fields(cls)})
    if unknown:
        raise SceneFormatError(f"{key} block has unknown key {unknown[0]!r}")
    try:
        return cls(**{name: _entries(value, name) if name in vectors else value
                      for name, value in block.items()})
    except (ValueError, TypeError) as exc:
        raise SceneFormatError(f"{key} block: {exc}") from exc


def doc_to_scene(doc: dict) -> SceneDocument:
    """Validate and reconstruct a scene (and optional blocks) from a dict."""
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    version = _require(doc, "version")
    if version != SCENE_DOC_VERSION:
        raise SceneFormatError(f"unsupported scene document version {version!r}")
    t_far = _require(doc, "t_far")
    sigma_max = doc.get("sigma_max", DEFAULT_SIGMA_MAX)
    raw_components = _require(doc, "components")
    if not isinstance(raw_components, list) or not raw_components:
        raise SceneFormatError("components must be a non-empty list")
    components: list[Field] = []
    names: list[str] = []
    for i, entry in enumerate(raw_components):
        if not isinstance(entry, dict):
            raise SceneFormatError(f"component {i} must be an object")
        kind = _require(entry, "kind")
        params = _require(entry, "params")
        try:
            components.append(field_from_params(kind, _entries(params, "params"), sigma_max=sigma_max))
        except (ValueError, TypeError) as exc:
            raise SceneFormatError(f"component {i} ({kind!r}): {exc}") from exc
        name = entry.get("name", f"component_{i}")
        if not isinstance(name, str):
            raise SceneFormatError(f"component {i} name must be a string, got {name!r}")
        names.append(name)
    try:
        scene = CompositeScene(tuple(components), t_far=t_far)
    except (ValueError, TypeError) as exc:
        raise SceneFormatError(str(exc)) from exc

    camera = _read_block(doc, "camera", Camera, ("position", "look_at", "width", "height"),
                         ("position", "look_at", "up"))
    try:
        # Commands render the rig's views of this camera: each needs a frame.
        for view in rig_views(camera) if camera is not None else ():
            view.basis()
    except ValueError as exc:
        raise SceneFormatError(f"camera block: {exc}") from exc
    return SceneDocument(
        scene=scene,
        camera=camera,
        quadrature=_read_block(doc, "quadrature", QuadratureConfig, ("n_coarse", "n_fine")),
        names=tuple(names),
        objects=doc.get("objects"),
    )


def dumps_canonical(doc: dict) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline.
    NaN and infinities raise ValueError (they are not valid JSON)."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def save_scene(path: str | os.PathLike, doc: dict) -> None:
    _atomic_write(path, dumps_canonical(doc).encode("ascii"))


def load_scene(path: str | os.PathLike) -> SceneDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"invalid JSON: {exc}") from exc
    return doc_to_scene(doc)


def two_blob_demo_scene() -> CompositeScene:
    """Two Gaussian blobs over a gray ground with a distant dome: the small
    fixture used by the fitting demos and as a fitting start point."""
    # Blob amplitudes stay below the density cap: at the cap the clamp kills
    # parameter gradients over the blob core, which stalls fitting.
    blob_a = GaussianBlobField(
        center=(-0.9, -0.3, 0.55), scale=(0.5, 0.5, 0.45),
        amplitude=0.8 * DEFAULT_SIGMA_MAX, color=(0.75, 0.25, 0.2),
    )
    blob_b = GaussianBlobField(
        center=(0.9, 0.4, 0.5), scale=(0.45, 0.45, 0.4),
        amplitude=0.8 * DEFAULT_SIGMA_MAX, color=(0.2, 0.35, 0.75),
    )
    return CompositeScene((blob_a, blob_b, _background()))
