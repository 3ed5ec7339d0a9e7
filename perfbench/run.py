"""rayfields benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload {render,fit,probe} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run installs no wrappers and reports the end-to-end
metrics; with ``--trace 1`` it runs at one worker, wraps the package's
public calls (see tracing.py) and reports the per-layer metrics.  Human
readable lines come first; the last line of stdout is the JSON result.
Scratch files and the traced run's spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before NumPy loads, so that all parallelism
# comes from OBSURF_THREADS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from hostref import NOMINAL_S, Reference, normalize  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Passes of the reference kernel per reading (the median is the reading).
# A render op or a set-up lasts seconds, so a single pass beside it samples
# the host's speed too thinly.
REF_PASSES = {"render": 5, "fit": 1, "probe": 1}
SETUP_REF_PASSES = 5

# End-to-end metrics: one slot each, read per workload as below.
#                 render                    fit                     probe
# throughput      rays/s, nproc workers     fit iterations/s        bias-demo trials/s
# throughput_alt  rays/s, 1 worker          observation rays/s      segment_ray rays/s
# A throughput divides an op's work by the median of its op times over the
# run, each normalized to the host speed measured around the op (see
# hostref.py); setup_s is normalized the same way.  Op latency (median and
# tail) is printed in wall-clock seconds but not gated.
END_TO_END = {
    "throughput": "1/s",
    "throughput_alt": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics emitted by every traced run.  Self times are listed only
# for layers every workload uses; the traced run prints every layer's.
PER_LAYER_TIMES = [
    "fields.evaluate.gaussian_blob.self_s",
    "fields.evaluate.soft_sphere.self_s",
    "fields.evaluate.soft_box.self_s",
    "fields.evaluate.ground_plane.self_s",
    "fields.scene_evaluate.self_s",
    "geometry.pinhole_rays.self_s",
    "scenegen.sample_scene.self_s",
]
PER_LAYER_COUNTS = [
    "fields.evaluate.gaussian_blob.points",
    "fields.evaluate.soft_sphere.points",
    "fields.evaluate.soft_box.points",
    "fields.evaluate.ground_plane.points",
    "fields.evaluate.piecewise_constant_ray.points",
    "fields.evaluate_with_grad.gaussian_blob.points",
    "fields.evaluate_with_grad.soft_sphere.points",
    "fields.evaluate_with_grad.soft_box.points",
    "fields.evaluate_with_grad.ground_plane.points",
    "fields.scene_evaluate.calls",
    "compose.render_ray_grid.calls",
    "compose.render_ray_grid.field_points_per_ray",
    "compose.segment_ray.calls",
    "compose.with_params.calls",
    "transport.hierarchical_render.calls",
    "fitting.fit.field_points_per_iter",
    "scenegen.sample_observations.field_points_per_ray",
    "geometry.rays_built",
    "losses.rgbd_samples_built",
    "metrics.ari.calls",
    "images.bytes_written",
]
RATIO_UNITS = {"field_points_per_ray": "points/ray", "field_points_per_iter": "points/iter"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "images.bytes_written":
        return "bytes"
    return RATIO_UNITS.get(name.rsplit(".", 1)[1], "count")


def host_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index, level in ((2, "l2"), (3, "l3")):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size", encoding="ascii") as fh:
                facts[level] = fh.read().strip()
        except OSError:
            facts[level] = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile, sample count).  Below eleven samples no percentile has ten
    beyond it, and the maximum is reported as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<52} {value:>16.6g} {unit}{('  ' + note) if note else ''}")


def run_timed(workload, seconds: float, min_rounds: int, reference, passes: int) -> list[dict]:
    """Closed-loop rounds for ``seconds``; each round records, under
    ``ref``, the mean of the reference readings just before and just after."""
    rounds = []
    before = reference.reading(passes)
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        timing = workload.round(len(rounds) + 1)
        after = reference.reading(passes)
        timing["ref"] = (before + after) / 2
        rounds.append(timing)
        before = after
    return rounds


def series(rounds: list[dict], key: str) -> list[float]:
    return [r[key] for r in rounds if key in r]


def typical(rounds: list[dict], key: str) -> float:
    """Median op time of ``key`` over the run, each op normalized to the
    host speed measured around it."""
    return statistics.median(normalize(r[key], r["ref"]) for r in rounds if key in r)


def end_to_end(name: str, workload, rounds: list[dict], setups: list[tuple[float, float]],
               observe: list[tuple[float, float]], checks) -> dict:
    p = workload.p
    if name == "render":
        op, op_name = series(rounds, "cmd_nproc"), "render_cmd_s"
        rates = {"throughput": ("render_rays_per_s", workload.rays, "cmd_nproc", "rays/s"),
                 "throughput_alt": ("render_rays_per_s_1t", workload.rays, "cmd_1t", "rays/s")}
    elif name == "fit":
        op, op_name = series(rounds, "fit"), "fit_call_s"
        rates = {"throughput": ("fit_iters_per_s", p["iterations"], "fit", "iters/s")}
    else:
        op, op_name = series(rounds, "round"), "probe_round_s"
        rates = {"throughput": ("bias_trials_per_s", p["trials"], "bias", "trials/s"),
                 "throughput_alt": ("segment_rays_per_s", p["segment_rays"], "segment", "rays/s")}
        _line("ari_calls_per_s", p["ari_calls"] / typical(rounds, "ari"), "calls/s", "(printed, not gated)")
    values = {}
    for slot, (alias, work, key, unit) in rates.items():
        values[slot] = work / typical(rounds, key)
        _line(alias, values[slot], unit,
              f"(wall clock {work / statistics.median(series(rounds, key)):.6g}; n={len(series(rounds, key))})")
    if name == "fit":
        # One rate per view call of every set-up, normalized like an op.
        values["throughput_alt"] = statistics.median(rate * ref / NOMINAL_S for rate, ref in observe)
        _line("observe_rays_per_s", values["throughput_alt"], "rays/s",
              f"(wall clock {statistics.median(rate for rate, _ in observe):.6g}; n={len(observe)})")
    tail_value, tail_pct, tail_n = tail(op)
    _line(f"{op_name}_p50", statistics.median(op), "s", f"(wall clock, n={len(op)}; printed, not gated)")
    _line(f"{op_name}_tail", tail_value, "s",
          f"(wall clock, p{tail_pct:.1f} of n={tail_n}; printed, not gated)")
    _line("host_reference_s_p50", statistics.median(series(rounds, "ref")), "s",
          f"(nominal {NOMINAL_S:g}; printed, not gated)")
    values["setup_s"] = statistics.median(normalize(seconds, ref) for seconds, ref in setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _line("setup_s", values["setup_s"], "s", f"(median of {len(setups)} set-ups; "
          f"wall clock {statistics.median(seconds for seconds, _ in setups):.6g})")
    _line("peak_rss_mb", values["peak_rss_mb"], "MB")
    _line("failed_ops_frac", checks.failed / max(checks.attempted, 1), "fraction",
          f"({checks.failed} of {checks.attempted})")
    return values


def per_layer(tracer, name: str, untraced: list[dict], traced: list[dict]) -> tuple[dict, float]:
    from tracing import boundary_names

    table = tracer.layer_table()
    key = {"render": "cmd_1t", "fit": "fit", "probe": "round"}[name]
    overhead = statistics.median(series(traced, key)) / statistics.median(series(untraced, key)) - 1.0

    def stat(boundary: str, field: str):
        entry = table.get(boundary)
        if entry is None:
            return 0, tracer.absent.get(boundary, "not called on this workload")
        if field.startswith("field_points_per_"):
            if not entry["units"]:
                return 0, "no work units recorded"
            return entry["unit_points"] / entry["units"], ""
        return entry[field], ""

    report: dict[str, tuple] = {}
    for boundary in boundary_names():
        fields = ["calls", "self_s"]
        if boundary.startswith("fields.evaluate"):
            fields.append("points")
        if boundary in ("compose.render_ray_grid", "scenegen.sample_observations"):
            fields.append("field_points_per_ray")
        if boundary == "fitting.fit":
            fields.append("field_points_per_iter")
        for field in fields:
            report[f"{boundary}.{field}"] = stat(boundary, field)
    for counter in ("geometry.rays_built", "losses.rgbd_samples_built", "images.bytes_written"):
        if counter in tracer.counts:
            report[counter] = (tracer.counts[counter], "")
        else:
            report[counter] = (0, tracer.absent.get(counter, "not counted"))
    if "images" not in table:
        report["images.bytes_written"] = (0, tracer.absent.get("images", "not called on this workload"))

    for metric, (value, reason) in sorted(report.items()):
        if reason:
            print(f"{metric:<52} {'absent':>16} ({reason})")
        else:
            _line(metric, value, per_layer_unit(metric))
    _line("trace_overhead_frac", overhead, "fraction",
          f"(median traced/untraced {key} time - 1, {len(traced)} rounds each at 1 worker)")
    return {m: report[m][0] for m in PER_LAYER_TIMES + PER_LAYER_COUNTS}, overhead


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("render", "fit", "probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="op sizes; 'smoke' is for the harness self-test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rayfields", "__init__.py")):
        print(f"error: no rayfields sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rayfields

    if os.path.dirname(os.path.abspath(rayfields.__file__)) != os.path.join(SRC, "rayfields"):
        print(f"error: imported rayfields from {rayfields.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS, Checks

    size = SIZES[args.size]
    nproc = len(os.sched_getaffinity(0))
    workdir = os.path.join(OUT, f"work_{args.workload}_{os.getpid()}")
    host = host_facts()
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"size {args.size}  loop closed, 1 client")
    checks = Checks()
    try:
        if args.trace:
            metrics = traced_run(args, size, workdir, host, checks)
            units = {m: per_layer_unit(m) for m in metrics}
        else:
            cls = WORKLOADS[args.workload]
            reference = Reference()
            setups, observe = [], []
            for _ in range(size["setups"][args.workload]):
                workload = cls(size, args.seed, workdir, nproc, checks)
                before = reference.reading(SETUP_REF_PASSES)
                started = time.perf_counter()
                workload.setup()
                workload.warmup()
                elapsed = time.perf_counter() - started
                ref = (before + reference.reading(SETUP_REF_PASSES)) / 2
                setups.append((elapsed, ref))
                observe += [(rate, ref) for rate in getattr(workload, "observe_rates", [])]
            rounds = run_timed(workload, args.seconds, 2, reference, REF_PASSES[args.workload])
            metrics = end_to_end(args.workload, workload, rounds, setups, observe, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in checks.errors:
        print(f"check failed: {message}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, size: dict, workdir: str, host: dict, checks) -> dict:
    import tracing
    from workloads import WORKLOADS

    rounds = size["trace_rounds"][args.workload]
    workload = WORKLOADS[args.workload](size, args.seed, workdir, 1, checks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
        workload.warmup()
    finally:
        tracer.uninstall()
    # Untraced and traced rounds interleave, so drift in the machine's speed
    # does not show up as tracing overhead.
    untraced, traced = [], []
    for i in range(rounds):
        untraced.append(workload.round(i + 1, threads=1))
        tracer.op = f"round{i + 1}"
        tracer.install()
        try:
            traced.append(workload.round(i + 1, threads=1))
        finally:
            tracer.uninstall()
    metrics, overhead = per_layer(tracer, args.workload, untraced, traced)
    path = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "host": host,
                        "trace_rounds": rounds, "trace_overhead_frac": overhead, "metrics": metrics})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
