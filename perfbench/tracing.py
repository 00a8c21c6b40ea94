"""In-memory span tracing of treelines' public functions.

The tracer replaces each traced function at every module attribute that
refers to it (``lineset.orientation`` as well as ``geometry.orientation``),
so calls between modules and calls from the benchmark both pass through
it; a method is replaced on its class.  Every call leaves one span: name,
start, end and the index of the enclosing span.  Spans live in flat
arrays and are written out with numpy at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# module -> traced public functions; a dotted name is a method, wrapped on
# its class (the float hull screen of the unstretch search)
LAYERS: Dict[str, Tuple[str, ...]] = {
    "geometry": ("segments_intersect", "orientation", "convex_hull",
                 "angle_gap", "compare_angle_gap", "line_intersection"),
    "lineset": ("verify_general_position", "longest_cap_cup",
                "classify_cap_cup", "intersection_order", "region_hull",
                "region_of"),
    "ramsey": ("color_by_gaps", "longest_mono_path",
               "extract_monotone_gaps", "extract_doubling"),
    "embed": ("solve", "candidate_positions", "check_embedding",
              "comb_type"),
    "unstretch": ("feasibility_search", "validate_config", "lemma24_check",
                  "validate_frame", "derive_chain",
                  "_FrameFloats.clearly_meets_hull"),
    "io_formats": ("parse_lines", "parse_instance", "parse_embedding"),
    "svg": ("render_svg",),
}

# f(args, result, error) -> the amount one call adds to a counter
Counter = Callable[[tuple, object, Optional[BaseException]], float]
PACKAGE = "treelines"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("q")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self._hooks: Dict[str, List[Tuple[str, Counter]]] = {}
        self._patches: List[Tuple[object, str, object, object]] = []

    def count(self, qualname: str, counter: str, fn: Counter) -> None:
        """Add ``fn``'s value for each call of ``qualname`` to
        ``<qualname>.<counter>``."""
        self._hooks.setdefault(qualname, []).append((counter, fn))
        self.counters.setdefault(f"{qualname}.{counter}", 0)

    def install(self) -> None:
        """Patch every module attribute that refers to a traced function
        (a method on its class); the wrappers are built on the first call
        and reused after."""
        if not self._patches:
            modules = [m for k, m in sys.modules.items()
                       if k == PACKAGE or k.startswith(PACKAGE + ".")]
            for mod_name, funcs in LAYERS.items():
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                for fname in funcs:
                    owner, attr = home, fname
                    if "." in fname:
                        cls_name, attr = fname.split(".")
                        owner = getattr(home, cls_name)
                    original = getattr(owner, attr)
                    wrapped = self._wrap(f"{mod_name}.{fname}", original)
                    targets = [owner] if owner is not home else [
                        mod for mod in modules
                        if getattr(mod, attr, None) is original]
                    self._patches += [(t, attr, original, wrapped)
                                      for t in targets]
        for mod, fname, _, wrapped in self._patches:
            setattr(mod, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, original, _ in self._patches:
            setattr(mod, fname, original)

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hooks = self._hooks.get(qualname, ())
        clock = time.perf_counter
        stack = self._stack
        start, end, name_id, parent = (self.start, self.end, self.name_id,
                                       self.parent)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            result, error = None, None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                for counter, hook in hooks:
                    counters[f"{qualname}.{counter}"] += hook(
                        args, result, error)
        return traced

    def mark(self) -> int:
        """Span count so far, to split the spans into phases."""
        return len(self.start)

    def self_times(self, lo: int = 0, hi: Optional[int] = None
                   ) -> Dict[str, Tuple[int, float]]:
        """Calls and self time per traced function over spans [lo, hi): a
        span's duration less the durations of its direct children."""
        hi = len(self.start) if hi is None else hi
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = end - start
        own = dur.copy()
        child = par >= 0
        np.subtract.at(own, par[child], dur[child])
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: (int(calls[k]), float(selfs[k]))
                for k, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64))
