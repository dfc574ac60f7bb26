"""Module-boundary spans for the ncelab package, recorded from outside it.

A trace hook opens a span whenever a call enters an ``ncelab`` module
other than the one whose span is innermost, and closes it when that frame
returns. Spans are keyed to modules, not to function names, so they keep
their meaning when functions inside a module are renamed or fused. The
entry function's name is kept as well, for the few per-function counters.

Spans live in flat arrays while the hook runs and are written out once at
the end. A layer's self time is its span time minus the time of its child
spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "cli",
    "manifest",
    "sampling",
    "model",
    "objectives",
    "optimize",
    "asymptotics",
    "evaluation",
    "lm",
)
_MODEL, _OPTIMIZE, _SAMPLING = (LAYERS.index(n) for n in ("model", "optimize", "sampling"))


class Tracer:
    """Records one span per cross-module call into the package in ``package_dir``."""

    def __init__(self, package_dir: Path):
        self._layer_of = {
            str((package_dir / f"{name}.py").resolve()): i for i, name in enumerate(LAYERS)
        }
        self._entry_ids: dict[str, int] = {}
        self.layer = array("b")
        self.entry = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # open spans: (frame, layer index, span index, [child seconds])
        self._stack: list = []
        self._open = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.inclusive_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.entry_calls: dict[tuple[int, str], int] = {}
        self.fit_iterations = 0
        self.fits_unconverged = 0
        self.tables_in_fits = 0
        self.sampled_rows = 0

    # -- hook ---------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> bool:
        sys.settrace(None)
        return False

    def _on_call(self, frame, event, arg):
        # global trace function: sees Python calls only, so C calls into
        # numpy cost nothing; frames that open a span get _on_return
        layer = self._layer_of.get(frame.f_code.co_filename)
        if layer is None:
            return None
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return None
        self._open_span(frame, layer, stack)
        frame.f_trace_lines = False
        return self._on_return

    def _on_return(self, frame, event, arg):
        if event == "return":
            stack = self._stack
            if stack and stack[-1][0] is frame:
                self._close_span(stack.pop(), arg)
        return self._on_return

    def _open_span(self, frame, layer: int, stack: list) -> None:
        name = frame.f_code.co_name
        entry = self._entry_ids.setdefault(name, len(self._entry_ids))
        index = len(self.start)
        self.layer.append(layer)
        self.entry.append(entry)
        self.parent.append(stack[-1][2] if stack else -1)
        self.end.append(0.0)
        self.calls[layer] += 1
        key = (layer, name)
        self.entry_calls[key] = self.entry_calls.get(key, 0) + 1
        if layer == _MODEL and name == "score_table" and self._open[_OPTIMIZE]:
            self.tables_in_fits += 1
        self._open[layer] += 1
        stack.append((frame, layer, index, [0.0]))
        self.start.append(time.perf_counter())

    def _close_span(self, opened, result) -> None:
        now = time.perf_counter()
        _, layer, index, child = opened
        self.end[index] = now
        duration = now - self.start[index]
        self.self_s[layer] += duration - child[0]
        if self._stack:
            self._stack[-1][3][0] += duration
        self._open[layer] -= 1
        if not self._open[layer]:
            self.inclusive_s[layer] += duration
        if layer == _OPTIMIZE and hasattr(result, "iterations") and hasattr(result, "converged"):
            # fit reports: read iterations and convergence where fits return them
            self.fit_iterations += int(result.iterations)
            self.fits_unconverged += not result.converged
        elif layer == _SAMPLING:
            # rows handed out by the sampling layer: datasets and label draws
            if hasattr(result, "negatives") and hasattr(result, "n"):
                self.sampled_rows += int(result.n)
            elif getattr(result, "ndim", 0) >= 1 and result.dtype.kind in "iu":
                self.sampled_rows += int(result.shape[0])

    # -- results ------------------------------------------------------------

    def inclusive(self, layer: str) -> float:
        """Seconds spent inside the layer so far, its callees included."""
        return self.inclusive_s[LAYERS.index(layer)]

    def entry_count(self, layer: str, function: str) -> int:
        """Spans of ``layer`` entered through ``function``."""
        return self.entry_calls.get((LAYERS.index(layer), function), 0)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (layer, entry function, start, end, parent)."""
        import numpy as np

        names = sorted(self._entry_ids, key=self._entry_ids.get)
        np.savez(
            path,
            layer=np.frombuffer(self.layer, dtype=np.int8),
            entry=np.frombuffer(self.entry, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            meta=np.array(json.dumps({**meta, "layers": LAYERS, "entries": names})),
        )
