"""Per-layer timing of the extseq modules, installed from outside.

A layer is one extseq module.  The tracer wraps every public module-level
function of each layer (generators and the lru_cache helpers excepted) in
every ``extseq.*`` namespace that binds it, plus any extra namespaces given,
so calls made through names imported elsewhere (``suites`` imports
``is_open`` by name) are counted too.  Each call becomes a span (name,
start, end, parent); self time is the span's duration minus its children's.
Self time and call counts are aggregated for every call; the spans
themselves are kept in memory up to a cap and written out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "core", "spaces", "sequences", "maps", "exteriority",
    "compactify", "sheaves", "generate", "serial", "suites",
)  # fmt: skip

# Functions reported one by one; every other public function of a layer
# still counts toward its layer's totals.  ``space_isos`` is a generator
# and is timed through ``based_iso``.
REPORTED = {
    "core": ("ev_set", "ev_union", "ev_intersect", "ev_complement"),
    "spaces": (
        "is_open", "is_sequentially_open", "set_properties",
        "space_report", "subspace", "validate_space",
    ),
    "sequences": ("subseq", "interleave", "classify", "seq_equal"),
    "maps": ("preimage", "map_properties", "map_seq"),
    "exteriority": ("is_e_open", "sequentially_e_open", "coreflect"),
    "compactify": ("plus", "wedge", "based_iso", "is_omega_sequential", "is_s_compact"),
    "sheaves": ("is_cover", "glue", "build_sigma"),
    "generate": ("gen_space", "sample_evset", "generate_instances"),
    "serial": ("entity_to_json", "entity_from_json"),
}  # fmt: skip

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, extra_namespaces=()):
        self.names: list[str] = []  # span name per function id
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack: list[list] = []  # [span index, child seconds]
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._namespaces = [
            vars(m) for name, m in sorted(sys.modules.items()) if name.startswith("extseq")
        ] + [vars(m) for m in extra_namespaces]
        for layer in LAYERS:
            module = importlib.import_module(f"extseq.{layer}")
            for fname, fn in sorted(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fname}")

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            if idx < SPAN_CAP:
                starts.append(0.0)
                ends.append(0.0)
                name_ids.append(nid)
                parents.append(stack[-1][0] if stack else -1)
            else:
                idx = -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1

        return traced

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the traced code (the benchmark's own
        work, run from inside a traced call) out of that call's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _swap(self, table) -> None:
        for ns in self._namespaces:
            for key, value in list(ns.items()):
                if inspect.isfunction(value) and id(value) in table:
                    ns[key] = table[id(value)]

    def install(self) -> None:
        self._swap(self._wrappers)

    def uninstall(self) -> None:
        self._swap({id(w): self._originals[k] for k, w in self._wrappers.items()})

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            row = out[name.split(".", 1)[0]]
            row[0] += calls
            row[1] += self_s
        return {layer: (c, s) for layer, (c, s) in out.items()}

    def function_totals(self) -> dict[str, tuple[int, float]]:
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as CSV (times relative to the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w", encoding="utf-8") as out:
            out.write("index,name,start_s,end_s,parent\n")
            for i, (nid, t0, t1, parent) in enumerate(
                zip(self.name_ids, self.starts, self.ends, self.parents)
            ):
                out.write(f"{i},{self.names[nid]},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")
        return len(self.starts)
