"""Spans around the public functions of the dlstf modules, recorded from outside.

`Tracer.patch()` replaces each function named in `TARGETS` by a wrapper in
every ``dlstf.*`` namespace that holds it (functions imported by name into
another module are patched there too) and returns a function that restores
the originals. A target that a refactor has removed is reported as absent.
A span records its name, start, end and parent; self time is the span's
duration minus the time its child spans cover. Nothing under ``src/`` is
modified, and nothing called once per recurrence step is wrapped, because
the wrapper's own cost would swamp such calls.

Spans stay in memory; `layer_metrics()` turns the spans of one traced unit
of work into the per-layer metrics, and `write_spans()` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

# module -> public functions wrapped; "Class.method" patches the class
TARGETS: dict[str, tuple[str, ...]] = {
    "dataset": ("ingest_csv", "fill_missing", "fit_normalizer", "normalize", "make_samples"),
    "lstm": ("net_forward", "net_backward"),
    "training": ("train_model", "mae_loss", "rmsprop_update", "clip_global_norm"),
    "bank": ("train_bank", "save_bank", "load_bank", "ModelBank.predict_block",
             "forecast_block", "assemble_input"),
    "evaluation": ("evaluate", "block_walk", "persistence_forecast", "ar_forecast",
                   "fit_ar_models", "compute_metrics"),
    "cli": ("run_cli",),
}

# the two network shapes of a default bank (offset 1, later offsets)
WIDTH_KEYS = ("w32", "w64-64")

COUNTERS = ("clip_calls", "clipped", "samples_built", "samples_skipped",
            "gap_runs_filled", "gap_runs_unfilled", "blocks_attempted", "blocks_evaluated")


def span_name(module: str, target: str) -> str:
    """Metric prefix of a target: ``bank.ModelBank.predict_block`` -> ``bank.predict_block``."""
    return f"{module}.{target.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, t) for m, ts in TARGETS.items() for t in ts)


def _dlstf_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dlstf" or name.startswith("dlstf."))]


def _replace_everywhere(orig, replacement, namespaces) -> list[tuple]:
    undo = []
    for ns in namespaces:
        for key, val in list(vars(ns).items()):
            if val is orig:
                undo.append((ns, key, orig))
                setattr(ns, key, replacement)
    return undo


def _undo(undo: list[tuple]) -> None:
    for ns, key, orig in reversed(undo):
        setattr(ns, key, orig)


def width_key(net) -> str:
    return "w" + "-".join(str(layer.hidden_dim) for layer in net.layers)


def forward_flops(net, seq_shape: tuple[int, ...]) -> float:
    """Computed multiply-add FLOPs of one forward pass over an (L, [B,] n) input."""
    steps = seq_shape[0]
    batch = seq_shape[1] if len(seq_shape) == 3 else 1
    per_step = sum(2.0 * 4 * l.hidden_dim * (l.input_dim + l.hidden_dim) for l in net.layers)
    head = 2.0 * net.head_w.shape[0] * net.head_w.shape[1]
    return batch * (steps * per_step + head)


class Tracer:
    """In-memory span recorder.

    Each closed span is the list ``[name, start, end, parent_index, self_s,
    key, flops]``; `counters` holds counts taken at the same boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._forward_shape: dict[int, tuple[int, ...]] = {}

    def reset(self) -> None:
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._forward_shape = {}

    def _wrap(self, name: str, fn, probe):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, -1 if parent is None else parent[2], 0.0, None, None]
            frame = [0.0, 0.0, len(self.spans)]  # start, time covered by children, index
            self.spans.append(span)
            stack.append(frame)
            frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                if parent is not None:
                    parent[1] += dur
                span[1], span[2], span[4] = frame[0], end, dur - frame[1]
            if probe is not None:
                probe(span, args, kwargs, result)
            return result
        return wrapper

    # -- probes: counters and shapes recorded at the layer boundary ------

    def _probe_forward(self, span, args, kwargs, result):
        net, shape = args[0], np.shape(args[1])
        self._forward_shape[id(net)] = shape
        span[5], span[6] = width_key(net), forward_flops(net, shape)

    def _probe_backward(self, span, args, kwargs, result):
        net = args[0]
        shape = self._forward_shape.get(id(net))
        span[5] = width_key(net)
        # backward repeats the forward matmuls twice: once for the weight
        # gradients and once for the gradients flowing to inputs and h
        span[6] = None if shape is None else 2.0 * forward_flops(net, shape)

    def _probe_clip(self, span, args, kwargs, result):
        max_norm = kwargs["max_norm"] if "max_norm" in kwargs else args[1]
        self.counters["clip_calls"] += 1
        self.counters["clipped"] += int(float(result) > float(max_norm))

    def _probe_samples(self, span, args, kwargs, result):
        self.counters["samples_built"] += len(result)
        self.counters["samples_skipped"] += int(getattr(result, "skipped", 0))

    def _probe_fill(self, span, args, kwargs, result):
        report = result[1]
        self.counters["gap_runs_filled"] += len(report.filled)
        self.counters["gap_runs_unfilled"] += len(report.unfilled)

    def _walk_probe(self, signature):
        def probe(span, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            panel, cfg = bound.arguments["panel"], bound.arguments["cfg"]
            first = bound.arguments.get("first_block_index")
            start = cfg.ell if first is None else first
            self.counters["blocks_attempted"] += len(range(start, panel.n_times - cfg.h + 1,
                                                           cfg.h))
            self.counters["blocks_evaluated"] += len(result[1])
        return probe

    def patch(self):
        """Wrap every target in every dlstf namespace; returns the undo function."""
        probes = {
            "lstm.net_forward": self._probe_forward,
            "lstm.net_backward": self._probe_backward,
            "training.clip_global_norm": self._probe_clip,
            "dataset.make_samples": self._probe_samples,
            "dataset.fill_missing": self._probe_fill,
        }
        namespaces = _dlstf_namespaces()
        undo: list[tuple] = []
        self.absent = []
        for module, targets in TARGETS.items():
            mod = sys.modules.get(f"dlstf.{module}")
            for target in targets:
                name = span_name(module, target)
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = None if owner is None else vars(owner).get(attr)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                probe = probes.get(name)
                if name == "evaluation.block_walk":
                    probe = self._walk_probe(inspect.signature(orig))
                wrapper = self._wrap(name, orig, probe)
                undo += _replace_everywhere(orig, wrapper, [owner] if owner_name else namespaces)
        return lambda: _undo(undo)


def capture(module: str, target: str, on_return):
    """Install a call hook, without a span, on one function in every dlstf namespace.

    With tracing off this keeps values a function returns, such as each
    model's TrainHistory. Returns the undo function.
    """
    orig = getattr(sys.modules[f"dlstf.{module}"], target)

    @functools.wraps(orig)
    def hook(*args, **kwargs):
        result = orig(*args, **kwargs)
        on_return(result)
        return result
    undo = _replace_everywhere(orig, hook, _dlstf_namespaces())
    return lambda: _undo(undo)


def layer_metrics(spans: list[list], counters: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work that lasted `wall_s` seconds."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    per_key: dict[tuple[str, str], list] = {}
    flops: dict[str, list[float]] = {}
    overlay = 0.0
    top = 0.0
    for name, start, end, parent, self_s, key, fl in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if key is not None:
            slot = per_key.setdefault((name, key), [0, 0.0])
            slot[0] += 1
            slot[1] += end - start
        if fl is not None:
            acc = flops.setdefault(name, [0.0, 0.0])
            acc[0] += fl
            acc[1] += end - start
        if parent < 0:
            top += end - start
        elif name == "lstm.net_forward" and spans[parent][0] == "bank.train_bank":
            overlay += self_s
    for name in ("lstm.net_forward", "lstm.net_backward"):
        for key in WIDTH_KEYS:
            calls, total = per_key.get((name, key), (0, 0.0))
            out[f"{name}.us_per_call.{key}"] = 1e6 * total / calls if calls else 0.0
        fl, secs = flops.get(name, (0.0, 0.0))
        out[f"{name}.gflop_s"] = fl / secs / 1e9 if secs else 0.0
    for module in TARGETS:
        out[f"{module}.self_frac"] = sum(
            out[f"{span_name(module, t)}.self_s"] for t in TARGETS[module]) / wall_s
    c = counters
    out["bank.overlay_fill_s"] = overlay
    out["training.clipped_frac"] = c["clipped"] / c["clip_calls"] if c["clip_calls"] else 0.0
    out["dataset.samples_built"] = c["samples_built"]
    out["dataset.samples_skipped"] = c["samples_skipped"]
    out["dataset.gap_runs_filled"] = c["gap_runs_filled"]
    out["dataset.gap_runs_unfilled"] = c["gap_runs_unfilled"]
    out["evaluation.blocks_evaluated_frac"] = (
        c["blocks_evaluated"] / c["blocks_attempted"] if c["blocks_attempted"] else 0.0)
    out["trace.covered_frac"] = top / wall_s
    return out


def write_spans(path, units: list[list[list]]) -> None:
    """Write spans as JSON lines ``[unit, name, start, end, parent, self_s]``."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, spans in enumerate(units):
            for s in spans:
                fh.write(json.dumps([u] + s[:5]) + "\n")
