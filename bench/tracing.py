"""Per-layer tracing from outside the program.

Each traced function is replaced, for the length of a traced run, at the
name its caller looks up: ``cli`` imports ``evaluate_voi`` by name, so the
wrapper goes on ``trajvoi.cli.evaluate_voi``; ``infogain`` imports
``train_length_scale`` by name, so that name is wrapped there as well as in
``gp``. Every call passes through exactly one wrapper.

A wrapper records a span: calls, inclusive seconds, and seconds covered by
traced calls made inside it, so that a layer's self time is its span minus
its children. Counts of work (lines, rows, points) are taken at the same
boundaries. Spans stay in memory and are read once per round.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np


class _Span:
    __slots__ = ("calls", "seconds", "child_seconds", "durations", "units",
                 "keys")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.child_seconds = 0.0
        self.durations = []
        self.units = 0
        self.keys = set()


class Tracer:
    """Span totals per traced name. ``reset`` starts a fresh table, so a
    round's ``spans`` stay intact after the next round begins."""

    def __init__(self):
        self.spans = defaultdict(_Span)
        self._stack = []

    def reset(self):
        self.spans = defaultdict(_Span)

    def wrap(self, name, fn, units=None, key=None):
        """Return ``fn`` wrapped to record spans under ``name``.

        ``units(args, kwargs, result)`` counts the work of one call and
        ``key(args, kwargs)`` identifies its input; both run outside the
        timed part of the call.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            span = self.spans[name]
            if key is not None:
                span.keys.add(key(args, kwargs))
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.seconds += elapsed
                span.child_seconds += children
                span.durations.append(elapsed)
            if units is not None:
                span.units += units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _points(trajectories):
    return sum(len(t) for t in trajectories)


def _query_points(args, kwargs, result):
    times = args[1] if len(args) > 1 else kwargs["times"]
    return int(np.atleast_1d(np.asarray(times)).size)


def _training_key(args, kwargs):
    """Digest of everything that decides a length-scale training's result
    (the trajectory id only labels errors, so it is left out)."""
    h = hashlib.sha1()
    times, channels, sigmas, mean_fns, sigma_f = args[:5]
    for array in (times, sigmas, *channels):
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    for m in mean_fns:
        h.update(repr((m.slope, m.intercept)).encode())
    options = {k: v for k, v in kwargs.items() if k != "trajectory_id"}
    h.update(repr((sigma_f, args[5:], sorted(options.items()))).encode())
    return h.digest()


def _targets():
    """(object, attribute, metric prefix, units, key) for every wrapper."""
    from trajvoi import cli, gp, infogain, ingest
    return [
        (cli, "load_config", "runconfig.load_config", None, None),
        (ingest, "parse_plt", "ingest.parse_plt",
         lambda a, k, r: len(r.records) + r.lines_skipped, None),
        (ingest, "segment", "ingest.segment", None, None),
        (cli, "write_trajectory_csv", "ingest.write_trajectory_csv",
         lambda a, k, r: _points(a[0]), None),
        (cli, "read_trajectory_csv", "ingest.read_trajectory_csv",
         lambda a, k, r: _points(r), None),
        (cli, "apply_spec", "degrade.apply_spec", None, None),
        (gp, "log_marginal_likelihood", "gp.log_marginal_likelihood", None, None),
        (gp, "train_length_scale", "gp.train_length_scale", None, _training_key),
        (infogain, "train_length_scale", "gp.train_length_scale", None,
         _training_key),
        (gp, "CoordinateGP", "gp.CoordinateGP", None, None),
        (gp.GaussianTrack, "query", "gp.GaussianTrack.query", _query_points, None),
        (cli, "evaluate_voi", "infogain.evaluate_voi", None, None),
        (infogain, "combine", "infogain.combine", None, None),
        (infogain, "ig_at", "infogain.ig_at", None, None),
        (cli, "correctness_value", "baselines.correctness_value", None, None),
        (cli, "baseline_row", "baselines.baseline_row", None, None),
        (cli, "cmd_voi", "cli.cmd_voi", None, None),
        (cli, "cmd_degrade", "cli.cmd_degrade", None, None),
        (cli, "cmd_ingest", "cli.cmd_ingest", None, None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target while the block runs; a None tracer wraps nothing."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, attr, name, units, key in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, units, key))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _quantity(span, quantity):
    """One round's value of a per-layer metric ``<span>.<quantity>``."""
    if quantity == "s":
        return span.seconds
    if quantity == "self_s":
        return span.seconds - span.child_seconds
    if quantity in ("p50_s", "p90_s"):
        q = int(quantity[1:3])
        return float(np.percentile(span.durations, q)) if span.durations else 0.0
    if quantity == "calls":
        return span.calls
    if quantity == "distinct_ratio":
        return len(span.keys) / span.calls if span.calls else 0.0
    return span.units                               # lines, rows, points


def bytes_per_point(csv_path) -> float:
    """Memory the loaded trajectory list holds per point, by tracemalloc."""
    from trajvoi.ingest import read_trajectory_csv
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectories = read_trajectory_csv(csv_path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / _points(trajectories)


def per_layer(rounds, declared, trajectories_csv) -> dict:
    """Every declared per-layer metric: the median over traced rounds of
    ``<span>.<quantity>``; counts must be equal in every round."""
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name == "model.bytes_per_point":
            metrics[name] = (bytes_per_point(trajectories_csv), unit)
            continue
        span, quantity = name.rsplit(".", 1)
        values = [_quantity(r["layers"][span], quantity) for r in rounds]
        if unit != "s" and len(set(values)) > 1:
            raise RuntimeError(f"{name} differs between rounds: {values}")
        metrics[name] = (statistics.median(values), unit)
    return metrics
