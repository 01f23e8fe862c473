"""Span tracing of the library's layers, installed from the benchmark's side.

``Tracer.install`` replaces each function in ``LAYERS`` by a timing wrapper
in every ``sweepdepth`` module namespace that binds it: the defining module,
the package, and every module that imported it by name (``costvolume``
calls ``plane_warp_grid`` through its own global, ``cli`` calls
``bilinear_sample`` through its own). ``uninstall`` puts the originals back,
so untraced units run the unmodified library.

A span records its name, start, end, parent span, thread id and the unit it
belongs to. Spans stay in memory and are written when the run ends. Worker
threads of the sweep pool start with an empty stack; their spans take as
parent the innermost open span of the installing thread, which is blocked
in ``build_cost_volume`` while they run.

A layer's self time is its span's duration minus the union of the intervals
its child spans cover, so time in a pool thread counts once per thread.
Counters (bytes, valid samples, +inf cells, augmentation draws) are taken
after the span ends; the time spent taking them is recorded as a
``trace.counters`` child of the caller, so it never lands in a layer's self
time but does show in the tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "sweepdepth"
COUNTER_SPAN = "trace.counters"

# (module, function) for every traced layer; the metric prefix drops "cmd_".
LAYERS = (
    ("geometry", "plane_warp_grid"),
    ("geometry", "bilinear_sample"),
    ("geometry", "reproject_grid"),
    ("costvolume", "build_cost_volume"),
    ("costvolume", "argmin_depth"),
    ("costvolume", "upsample_nearest"),
    ("costvolume", "adaptive_range_update"),
    ("features", "extract_features"),
    ("losses", "total_loss"),
    ("losses", "photometric_error"),
    ("losses", "smoothness_loss"),
    ("losses", "consistency_mask"),
    ("augment", "draw_augmentation"),
    ("augment", "apply_augmentation"),
    ("evaluation", "depth_metrics"),
    ("evaluation", "median_scale"),
    ("evaluation", "error_heatmap"),
    ("io", "read_ppm"),
    ("io", "read_pfm"),
    ("io", "write_ppm"),
    ("io", "write_pfm"),
    ("io", "write_cost_volume"),
    ("synth", "render"),
    ("cli", "build_parser"),
    ("cli", "load_dataset"),
    ("cli", "cmd_synth"),
    ("cli", "cmd_depth"),
    ("cli", "cmd_loss"),
    ("cli", "cmd_eval"),
)

# Layers whose spans have traced children: they also report inclusive wall time.
COMPOSITE = ("costvolume.build_cost_volume", "losses.total_loss", "cli.load_dataset",
             "cli.synth", "cli.depth", "cli.loss", "cli.eval")


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function.removeprefix('cmd_')}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sample(add, args, kwargs, result):
    img = np.asarray(_arg(args, kwargs, 0, "img"))
    _out, valid = result
    channels = 1 if img.ndim == 2 else img.shape[2]
    add("geometry.bilinear_sample.valid", int(np.count_nonzero(valid)))
    add("geometry.bilinear_sample.samples", valid.size)
    # Computed, not measured: four float64 neighbours per channel per sample.
    add("geometry.bilinear_sample.gathered_bytes", 4 * valid.size * channels * 8)


def _count_sweep(add, args, kwargs, result):
    target = _arg(args, kwargs, 0, "target")
    sources = _arg(args, kwargs, 1, "sources")
    planes = _arg(args, kwargs, 3, "planes")
    h, w, _ = target.shape
    add("costvolume.build_cost_volume.cells", h * w * len(planes) * len(sources))
    add("costvolume.build_cost_volume.volume_bytes", result.costs.nbytes + result.valid_count.nbytes)
    add("costvolume.build_cost_volume.volume_cells", result.costs.size)
    add("costvolume.build_cost_volume.inf_cells", int(np.count_nonzero(np.isinf(result.costs))))


def _count_draw(add, args, kwargs, result):
    add("augment.draws", 1)
    add(f"augment.{result.value}", 1)


def _count_read(add, args, kwargs, result):
    add("io.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_write(add, args, kwargs, result):
    add("io.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


COUNTERS = {
    "geometry.bilinear_sample": _count_sample,
    "costvolume.build_cost_volume": _count_sweep,
    "augment.draw_augmentation": _count_draw,
    "io.read_ppm": _count_read,
    "io.read_pfm": _count_read,
    "io.write_ppm": _count_write,
    "io.write_pfm": _count_write,
    "io.write_cost_volume": _count_write,
}


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, unit)
        self.counts: dict[str, float] = defaultdict(float)
        self.unit = -1
        self.last_sweep: tuple | None = None  # (args, kwargs) of the latest build_cost_volume
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()
        self._originals = self._find_originals()
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self._originals.items()}
        self._installed: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()  # every 'module.attr' binding ever wrapped

    def _find_originals(self) -> dict[str, object]:
        originals = {}
        for module, function in LAYERS:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], function)
            originals[layer_name(module, function)] = fn
        return originals

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._stacks.get(tracer._owner) if tid != tracer._owner else None
                parent = owner[-1] if owner else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tid, tracer.unit))
            if counter is not None:
                counter(tracer._add, args, kwargs, result)
                tracer.spans.append(
                    (next(tracer._ids), COUNTER_SPAN, end, perf_counter(), parent, tid, tracer.unit)
                )
            if name == "costvolume.build_cost_volume":
                tracer.last_sweep = (args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Swap every binding of a traced function for its wrapper."""
        by_id = {id(fn): name for name, fn in self._originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is self._originals[name]:
                    setattr(module, attr, self._wrappers[name])
                    self._installed.append((module, attr, value))
                    self.wrapped.add(f"{modname}.{attr}")

    def uninstall(self) -> None:
        for module, attr, value in self._installed:
            setattr(module, attr, value)
        self._installed.clear()

    def original(self, name: str):
        return self._originals[name]

    def report(self, units: int, unit_seconds: float) -> dict[str, float]:
        """Per-unit layer metrics over ``units`` traced units lasting ``unit_seconds`` in all."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        sweep_threads: dict[int, set[int]] = defaultdict(set)
        by_id = {}
        for sid, name, start, end, parent, tid, _unit in self.spans:
            by_id[sid] = name
            if parent is not None:
                children[parent].append((start, end))
        self_s: dict[str, float] = defaultdict(float)
        wall_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top_level = 0.0
        for sid, name, start, end, parent, tid, _unit in self.spans:
            if name == COUNTER_SPAN:
                continue
            if parent is None and tid == self._owner:
                top_level += end - start
            if by_id.get(parent) == "costvolume.build_cost_volume":
                sweep_threads[parent].add(tid)
            covered = _union_length(children.get(sid, ()), start, end)
            self_s[name] += end - start - covered
            wall_s[name] += end - start
            calls[name] += 1

        per_unit = 1.0 / max(units, 1)
        metrics: dict[str, float] = {}
        for module, function in LAYERS:
            name = layer_name(module, function)
            metrics[f"{name}.ms"] = 1000.0 * self_s[name] * per_unit
            metrics[f"{name}.calls"] = calls[name] * per_unit
            if name in COMPOSITE:
                metrics[f"{name}.wall_ms"] = 1000.0 * wall_s[name] * per_unit
        c = self.counts
        metrics["geometry.bilinear_sample.valid_fraction"] = _ratio(
            c["geometry.bilinear_sample.valid"], c["geometry.bilinear_sample.samples"])
        metrics["geometry.bilinear_sample.gathered_mb"] = (
            c["geometry.bilinear_sample.gathered_bytes"] / 1e6 * per_unit)
        sweeps = calls["costvolume.build_cost_volume"]
        metrics["costvolume.build_cost_volume.threads"] = _ratio(
            sum(len(t) for t in sweep_threads.values()), len(sweep_threads))
        metrics["costvolume.build_cost_volume.cells"] = c["costvolume.build_cost_volume.cells"] * per_unit
        metrics["costvolume.build_cost_volume.volume_mb"] = _ratio(
            c["costvolume.build_cost_volume.volume_bytes"] / 1e6, sweeps)
        metrics["costvolume.build_cost_volume.inf_fraction"] = _ratio(
            c["costvolume.build_cost_volume.inf_cells"], c["costvolume.build_cost_volume.volume_cells"])
        draws = c["augment.draws"]
        metrics["augment.draw_augmentation.zero_volume_share"] = _ratio(c["augment.zero_volume"], draws)
        metrics["augment.draw_augmentation.static_substitute_share"] = _ratio(
            c["augment.static_substitute"], draws)
        metrics["io.codecs.read_mb"] = c["io.bytes_read"] / 1e6 * per_unit
        metrics["io.codecs.written_mb"] = c["io.bytes_written"] / 1e6 * per_unit
        metrics["trace.top_level.coverage"] = _ratio(top_level, unit_seconds)
        metrics["trace.spans.count"] = len(self.spans) * per_unit
        return metrics

    def span_records(self) -> list[list]:
        """Spans as JSON-ready rows, times in ms from the first span."""
        if not self.spans:
            return []
        t0 = min(s[2] for s in self.spans)
        return [
            [sid, name, round(1000 * (start - t0), 4), round(1000 * (end - t0), 4), parent, tid, unit]
            for sid, name, start, end, parent, tid, unit in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
