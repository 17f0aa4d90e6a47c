"""Traced runs: spans around the program's public functions, from outside.

``Tracer`` replaces each function in ``LAYERS`` by a wrapper wherever its
callers look it up: every ``residuevc`` module attribute bound to the
original (``from .field import make_field`` binds one per importing
module).  A wrapper records one span (name, start, end, parent) in typed
arrays, about 26 bytes a span, which stay in memory until the run ends
and are then written out.  Leaving the ``with`` block restores every
original; an untraced run never creates a Tracer.

Per-layer metrics are ``<module>.<function>.<stat>``: ``calls``, ``s``
(summed span durations), ``self_s`` (durations minus the time covered by
child spans) and ``max_s`` (the longest single call).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "residuevc"

#: Wrapped functions and the statistics reported for each.
LAYERS = {
    "search.vc_dimension": ("calls", "s", "self_s", "max_s"),
    "shatter.shatter_report": ("calls", "s", "self_s"),
    "shatter.pattern_counts": ("calls", "s"),
    "shatter.signatures": ("calls", "s"),
    "shatter.fold_patterns": ("calls",),
    "field.make_field": ("calls", "s"),
    "field.squares_table": ("calls", "s"),
    "field.character_table": ("calls", "s"),
    "montecarlo.estimate_p": ("calls", "s", "self_s"),
    "montecarlo.sample_subset": ("calls", "s"),
    "weil.verify_shattering_theorem": ("calls", "s", "self_s"),
    "cli.main": ("calls", "s", "self_s"),
    "svgplot.scatter_svg": ("s",),
}

#: Sum of TheoremReport.checked over the traced run.
SUBSETS_CHECKED = "weil.subsets_checked"

#: Suffixes of the metrics that are counts; every other one is seconds.
COUNTS = (".calls", SUBSETS_CHECKED)


def metric_names() -> list[str]:
    return [f"{layer}.{stat}" for layer, stats in LAYERS.items()
            for stat in stats] + [SUBSETS_CHECKED]


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.subsets_checked = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn):
        counts_subsets = self.names[nid] == "weil.verify_shattering_theorem"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if counts_subsets:
                self.subsets_checked += result.checked
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for nid, name in enumerate(self.names):
            mod, func = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], func)
            wrapper = self._wrap(nid, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer statistics over every span recorded."""
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.shape[0])
        own = dur - child_time
        out: dict[str, float] = {}
        for nid, (layer, stats) in enumerate(LAYERS.items()):
            sel = name_id == nid
            values = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                      "self_s": float(own[sel].sum()),
                      "max_s": float(dur[sel].max()) if sel.any() else 0.0}
            for stat in stats:
                out[f"{layer}.{stat}"] = values[stat]
        out[SUBSETS_CHECKED] = self.subsets_checked
        return out

    def save(self, path: Path, **meta) -> None:
        """Write the spans (times relative to the first span) as .npz."""
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = start[0] if start.shape[0] else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=start - t0,
                 end=np.frombuffer(self.end, dtype=np.float64) - t0,
                 meta=np.array(json.dumps(meta)))
