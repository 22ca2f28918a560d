"""In-memory span recording around pssdet's public functions.

The benchmark does not edit the program.  It replaces each traced
public function, wherever a loaded pssdet module has bound it, with a
wrapper that records one span per call: name, start, end and the span
that was open when the call began.  Spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (span name, module defining it, attribute path) for every traced
# public function.  The experiment entry points share one name, so the
# span is found whichever of them a CLI command calls; when one calls
# another, self time still counts each instant once.
TRACED = (
    ("detector.peaks", "pssdet.detector", "BatchEvaluator.peaks"),
    ("channel.embed", "pssdet.channel", "embed_pss_in_halfframe"),
    ("clustering.kmeans_cluster", "pssdet.clustering", "kmeans_cluster"),
    ("pss.pss_time_domain", "pssdet.pss", "pss_time_domain"),
    ("detector.experiment", "pssdet.detector", "calibrate_threshold"),
    ("detector.experiment", "pssdet.detector", "calibrate_thresholds"),
    ("detector.experiment", "pssdet.detector", "pmd_experiment"),
    ("detector.experiment", "pssdet.detector", "acquisition_experiment"),
)


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, name, start, end, frame_count)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, frame_count: int = 0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, frame_count)

    def _wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            frames = 0
            if name == "channel.embed":
                frames = kwargs.get("frame_count", args[2] if len(args) > 2 else 1)
            with tracer.span(name, int(frames)):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in TRACED, in its defining module and in
        every pssdet module that imported it by name."""
        for name, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)  # a missing name raises here
            wrapped = self._wrapper(name, original)
            self._patch(owner, attr, original, wrapped)
            if outer:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("pssdet") or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
