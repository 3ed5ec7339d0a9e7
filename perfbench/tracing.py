"""Layer spans recorded by wrappers installed around rayfields' public calls.

Only names that the package exports (``rayfields.__all__``, plus the module
functions that ``tests/test_acceptance.py`` and the CLI call through their
modules) are wrapped, because refactors promise to keep those.  A boundary
that no longer exists is reported as absent instead of failing the run.

Each wrapper records (name, start, end, parent span, op id, field points,
work units).  Spans stay in memory and are written once, by ``write``.  A
layer's self time is its span time minus the time of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import numpy as np

# (layer name, module, attribute path, work-units extractor or None).  The
# extractor turns the call's arguments into the denominator of a
# points-per-unit ratio (rays of a grid, fit iterations).
_FUNCTIONS = [
    ("compose.render_ray_grid", "rayfields", "render_ray_grid", lambda a, k: len(a[1])),
    ("compose.segment_ray", "rayfields", "segment_ray", None),
    ("compose.with_params", "rayfields", "CompositeScene.with_params", None),
    ("fields.scene_evaluate", "rayfields", "CompositeScene.evaluate", None),
    ("fields.scene_evaluate", "rayfields", "CompositeScene.evaluate_components", None),
    ("transport.hierarchical_render", "rayfields", "hierarchical_render", None),
    ("fitting.fit", "rayfields", "fit", lambda a, k: a[2].iterations),
    ("scenegen.sample_observations", "rayfields", "sample_observations", lambda a, k: len(a[1])),
    ("scenegen.sample_scene", "rayfields", "sample_scene", None),
    ("geometry.pinhole_rays", "rayfields", "pinhole_rays", None),
    ("estimlab.stratified_bias_demo", "rayfields.estimlab", "stratified_bias_demo", None),
    ("metrics.ari", "rayfields", "ari", None),
    ("scenedoc.load_scene", "rayfields", "load_scene", None),
    ("cli", "rayfields.cli", "main", None),
    ("images", "rayfields.images", "write_ppm", None),
    ("images", "rayfields.images", "write_pfm", None),
    ("images", "rayfields.images", "write_pgm", None),
]

# Constructors whose calls are counted (no span: they are too small and
# too many for one each).
_CONSTRUCTORS = [
    ("geometry.rays_built", "rayfields", "Ray"),
    ("losses.rgbd_samples_built", "rayfields", "RgbdSample"),
]

FIELD_KINDS = ("gaussian_blob", "soft_sphere", "soft_box", "ground_plane", "piecewise_constant_ray")
GRAD_KINDS = FIELD_KINDS[:4]

_INHERITED = object()


def boundary_names() -> list[str]:
    """Every span name a Tracer can record, field layers first."""
    fields = [f"fields.evaluate.{k}" for k in FIELD_KINDS]
    fields += [f"fields.evaluate_with_grad.{k}" for k in GRAD_KINDS]
    return fields + list(dict.fromkeys(name for name, *_ in _FUNCTIONS))


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    if obj is None:
        raise AttributeError(f"module {module} is not loaded")
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _point_count(points) -> int:
    return int(np.asarray(points).size // 3)


class Tracer:
    """Installs span wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, t0, t1, parent, op, points, units]
        self.counts: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self.op = "setup"
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, points: bool, units=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # CompositeScene.evaluate calls evaluate_components: one span.
            if stack and tracer.spans[stack[-1]][0] == name_id:
                return fn(*args, **kwargs)
            n_points = _point_count(args[1] if len(args) > 1 else kwargs["points"]) if points else 0
            n_units = None
            if units is not None:
                try:
                    n_units = int(units(args, kwargs))
                except (TypeError, AttributeError, IndexError, KeyError):
                    n_units = None
            index = len(tracer.spans)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, n_points, n_units]
            tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _set(self, owner, attr: str, value) -> None:
        # A method a class inherits is removed again on undo, not copied down.
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every rayfields module name bound to ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rayfields" or mod_name.startswith("rayfields.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        import rayfields

        for name, module, path, units in _FUNCTIONS:
            try:
                owner, fn = _resolve(module, path)
            except AttributeError as exc:
                self.absent[name] = f"boundary {module}.{path} not found ({exc})"
                continue
            inner = self._bytes_counting(fn) if name == "images" else fn
            wrapper = self._wrap(name, inner, points=False, units=units)
            if isinstance(owner, type):
                self._set(owner, path.rsplit(".", 1)[1], wrapper)
            else:
                self._rebind(fn, wrapper)

        kinds = {}
        base = getattr(rayfields, "Field", None)
        for export in getattr(rayfields, "__all__", ()):
            cls = getattr(rayfields, export, None)
            if isinstance(cls, type) and base is not None and issubclass(cls, base) \
                    and isinstance(getattr(cls, "kind", None), str):
                kinds[cls.kind] = cls
        for kind in FIELD_KINDS:
            cls = kinds.get(kind)
            methods = ("evaluate", "evaluate_with_grad") if kind in GRAD_KINDS else ("evaluate",)
            for method in methods:
                name = f"fields.{method}.{kind}"
                fn = getattr(cls, method, None) if cls is not None else None
                if fn is None:
                    self.absent[name] = f"no exported Field class of kind {kind!r} with .{method}"
                    continue
                self._set(cls, method, self._wrap(name, fn, points=True))

        for name, module, path in _CONSTRUCTORS:
            try:
                _, cls = _resolve(module, path)
            except AttributeError as exc:
                self.absent[name] = f"class {module}.{path} not found ({exc})"
                continue
            self._set(cls, "__init__", self._counting(name, cls.__init__))

    def _bytes_counting(self, write):
        counts = self.counts
        counts.setdefault("images.bytes_written", 0)

        @functools.wraps(write)
        def wrapper(path, *args, **kwargs):
            result = write(path, *args, **kwargs)
            counts["images.bytes_written"] += os.path.getsize(path)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # ------------------------------------------------------------ metrics

    def layer_table(self) -> dict:
        """Per-boundary calls, self time and field points, plus the exact
        points-per-unit ratios of the boundaries that have a work unit."""
        n = len(self.spans)
        child_time = [0.0] * n
        for _name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table: dict[str, dict] = {}
        # Field points counted under each ancestor with a work unit.
        under: dict[int, int] = {}
        for i, (name_id, t0, t1, parent, _op, points, _units) in enumerate(self.spans):
            entry = table.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0, "points": 0,
                                                           "units": 0, "unit_points": 0})
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child_time[i]
            entry["points"] += points
            if points:
                p = parent
                while p >= 0:
                    if self.spans[p][6] is not None:
                        under[p] = under.get(p, 0) + points
                    p = self.spans[p][3]
        for i, (name_id, _t0, _t1, _parent, _op, _points, units) in enumerate(self.spans):
            if units is not None:
                entry = table[self.names[name_id]]
                entry["units"] += units
                entry["unit_points"] += under.get(i, 0)
        return table

    def write(self, path: str, extra: dict) -> None:
        """Write every span once, with the summary, as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op", "field_points", "work_units"]
        doc["names"] = self.names
        doc["spans"] = self.spans
        doc["counts"] = self.counts
        doc["absent"] = self.absent
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
