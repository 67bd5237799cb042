"""Outside-in per-layer host-time tracing for the benchmark.

The simulator is traced without editing it: :class:`LayerTracer` replaces
public methods at class level with timing wrappers and restores the
originals afterwards.  Every wrapped call, and every resume of a coroutine
spawned through ``Engine.process``, is a span charged to one layer.  A
layer's *self* time is the time of its spans minus the time of the spans
nested inside them, so the layers partition the traced wall time; time no
span covers is the explicit residual row.

Wrapping costs host time.  :meth:`LayerTracer.calibrate` measures, before
tracing, how much one wrapped call and one traced resume add, split into
the part that lands inside the span (``c_in``) and the part that lands in
the enclosing span (``c_out``).  Reports subtract both, and show their sum
as the overhead row.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager
from importlib import import_module
from pathlib import PurePath
from typing import Dict, List, Tuple

#: ``(layer, module, class, method)`` of every wrapped function.
PROBES: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine", "repro.engine.kernel", "Engine", "run"),
    ("engine", "repro.engine.kernel", "Engine", "step"),
    ("engine", "repro.engine.kernel", "Engine", "process"),
    ("engine", "repro.engine.resources", "Resource", "use"),
    ("cpu", "repro.cpu.interface", "CpuMemInterface", "classify"),
    ("cpu", "repro.cpu.interface", "CpuMemInterface", "issue_miss"),
    ("mem", "repro.mem.cache", "SetAssocCache", "lookup"),
    ("mem", "repro.mem.cache", "SetAssocCache", "fill"),
    ("mem", "repro.mem.cache", "SetAssocCache", "invalidate"),
    ("mem", "repro.mem.cache", "SetAssocCache", "downgrade"),
    ("mem", "repro.mem.page_table", "PageTable", "translate"),
    ("memsys", "repro.memsys.dsm", "DsmMemorySystem", "request"),
    ("proto", "repro.proto.directory", "Directory", "entry"),
    ("proto", "repro.proto.directory", "Directory", "peek"),
    ("proto", "repro.proto.directory", "Directory", "add_sharer"),
    ("proto", "repro.proto.directory", "Directory", "set_dirty"),
    ("proto", "repro.proto.directory", "Directory", "clear"),
    ("proto", "repro.proto.directory", "Directory", "drop_sharer"),
    ("proto", "repro.proto.magic", "MagicController", "pp_busy"),
    ("proto", "repro.proto.magic", "MagicController", "dram_access"),
    ("network", "repro.network.fabric", "Network", "send"),
    ("stats", "repro.common.stats", "CounterSet", "add"),
    ("stats", "repro.common.stats", "ScopedCounters", "add"),
    ("workloads", "repro.workloads.base", "Workload", "build"),
    ("sim", "repro.sim.machine", "Machine", "__init__"),
    ("sim", "repro.sim.machine", "Machine", "begin"),
    ("sim", "repro.sim.machine", "Machine", "finish"),
    ("harness", "repro.harness.farm", "ResultCache", "get"),
    ("harness", "repro.harness.farm", "ResultCache", "put"),
    ("harness", "repro.harness.farm", "Farm", "map"),
)

#: The layer charged with time no span covers.
RESIDUAL = "residual"


def _classes(cls: type) -> List[type]:
    """*cls* and all its subclasses, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_classes(sub))
    return out


def layer_of_code(filename: str) -> str:
    """The layer of a source file: its package directory under ``repro``."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1]
    return RESIDUAL


class _TracedGen:
    """A coroutine stand-in whose ``send``/``throw`` are timed spans."""

    __slots__ = ("_gen", "_layer", "_resume")

    def __init__(self, gen, layer: int, resume):
        self._gen = gen
        self._layer = layer
        self._resume = resume

    def send(self, value):
        return self._resume(self._gen.send, value, self._layer)

    def throw(self, exc):
        return self._resume(self._gen.throw, exc, self._layer)


class LayerTracer:
    """Span accounting over class-level wrappers; one traced region at a time."""

    def __init__(self):
        self.layers: Dict[str, int] = {}
        self._self_s: List[float] = []      # per layer: raw self time
        self._c_out_s: List[float] = []     # per layer: children's overhead
        self._spans: List[int] = []         # per layer: spans opened
        self._resumes: List[int] = []       # per layer: coroutine resumes
        n = len(PROBES)
        self._calls = [0] * n
        self._incl_s = [0.0] * n            # inclusive, children's overhead out
        self.events = 0
        self.uncontended = 0
        self.engines: Dict[int, object] = {}
        self.wall_s = 0.0
        self.c_call = (0.0, 0.0)            # (c_in, c_out) per wrapped call
        self.c_resume = (0.0, 0.0)          # (c_in, c_out) per traced resume
        self._stack: List[list] = []
        self._code_layer: Dict[str, int] = {}
        self._layer(RESIDUAL)

    # -- accounting ------------------------------------------------------

    def _layer(self, name: str) -> int:
        idx = self.layers.get(name)
        if idx is None:
            idx = self.layers[name] = len(self._self_s)
            self._self_s.append(0.0)
            self._c_out_s.append(0.0)
            self._spans.append(0)
            self._resumes.append(0)
        return idx

    def _wrap(self, fn, layer: int, probe: int, pre=None, post=None):
        """*fn* as a span of *layer*; *pre*/*post* run outside the span."""
        stack = self._stack
        self_s, c_out_s, spans = self._self_s, self._c_out_s, self._spans
        calls, incl_s = self._calls, self._incl_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            frame = [0.0, 0.0, layer]     # child time, child overhead, layer
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                c_in, c_out = tracer.c_call
                parent[0] += dur
                parent[1] += c_in + c_out + frame[1]
                c_out_s[parent[2]] += c_out
                self_s[layer] += dur - frame[0]
                spans[layer] += 1
                calls[probe] += 1
                incl_s[probe] += dur - frame[1] - c_in
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        return wrapper

    def _resume(self, method, value, layer: int):
        stack = self._stack
        frame = [0.0, 0.0, layer]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return method(value)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            parent = stack[-1]
            c_in, c_out = self.c_resume
            parent[0] += dur
            parent[1] += c_in + c_out + frame[1]
            self._c_out_s[parent[2]] += c_out
            self._self_s[layer] += dur - frame[0]
            self._spans[layer] += 1
            self._resumes[layer] += 1

    def _gen_layer(self, gen) -> int:
        filename = gen.gi_code.co_filename
        idx = self._code_layer.get(filename)
        if idx is None:
            idx = self._code_layer[filename] = self._layer(
                layer_of_code(filename))
        return idx

    # -- engine-specific adapters (run outside the span) -----------------

    def _pre_process(self, args):
        engine, gen = args[0], args[1]
        self.engines[id(engine)] = engine
        return (engine, _TracedGen(gen, self._gen_layer(gen), self._resume)
                ) + tuple(args[2:])

    def _pre_use(self, args):
        resource = args[0]
        if resource.in_use == 0 and resource.queue_length == 0:
            self.uncontended += 1
        return args

    def _post_step(self, result) -> None:
        if result:
            self.events += 1

    # -- class-level installation ----------------------------------------

    def _targets(self):
        for probe, (layer, module, cls_name, attr) in enumerate(PROBES):
            base = getattr(import_module(module), cls_name)
            for cls in _classes(base):
                if attr in cls.__dict__:
                    yield probe, layer, cls, attr

    @contextmanager
    def tracing(self):
        """Wrap every probe, open the root span, restore on exit.

        Raises RuntimeError if any class attribute is not the original
        object afterwards (checked by identity).
        """
        adapters = {("Engine", "process"): (self._pre_process, None),
                    ("Engine", "step"): (None, self._post_step),
                    ("Resource", "use"): (self._pre_use, None)}
        saved = []
        try:
            for probe, layer, cls, attr in self._targets():
                original = cls.__dict__[attr]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{cls.__qualname__}.{attr} is not a "
                                    "plain function; cannot wrap it")
                pre, post = adapters.get((cls.__name__, attr), (None, None))
                saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, self._layer(layer),
                                              probe, pre, post))
            root = [0.0, 0.0, self.layers[RESIDUAL]]
            self._stack[:] = [root]
            t0 = time.perf_counter()
            try:
                yield self
            finally:
                wall = time.perf_counter() - t0
                self.wall_s += wall
                self._self_s[root[2]] += wall - root[0]
                self._stack.clear()
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)
            changed = [f"{cls.__qualname__}.{attr}"
                       for cls, attr, original in saved
                       if cls.__dict__.get(attr) is not original]
            if changed:
                raise RuntimeError(f"not restored: {changed}")

    # -- calibration -----------------------------------------------------

    def calibrate(self, n: int = 100_000, reps: int = 5) -> None:
        """Measure the per-call and per-resume cost of tracing.

        Each cost is a best-of-*reps* difference between a traced and a
        plain loop of *n* calls (resumes), split into the part inside the
        span and the part left in the caller.
        """
        class Probe:
            def call(self, a, b):
                return a

        def ticker():
            while True:
                yield None

        def loop_s(fn, *args) -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                fn(*args)
            return time.perf_counter() - t0

        def empty_s() -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                pass
            return time.perf_counter() - t0

        def measure(plain_fn, traced_fn, args):
            best_plain = best_total = best_in = float("inf")
            for _ in range(reps):
                empty = empty_s()
                best_plain = min(best_plain, loop_s(plain_fn, *args) - empty)
                cal = LayerTracer()
                cal._stack[:] = [[0.0, 0.0, 0]]
                fn = traced_fn(cal)
                total = loop_s(fn, *args) - empty
                best_total = min(best_total, total)
                best_in = min(best_in, sum(cal._self_s[1:]))
            c_total = max(0.0, (best_total - best_plain) / n)
            c_in = min(c_total, max(0.0, (best_in - best_plain) / n))
            return c_in, c_total - c_in

        obj = Probe()
        self.c_call = measure(
            obj.call,
            lambda cal: cal._wrap(Probe.call, cal._layer("probe"), 0
                                  ).__get__(obj),
            (1, 2))
        gen = ticker()
        next(gen)
        self.c_resume = measure(
            gen.send,
            lambda cal: _TracedGen(gen, cal._layer("probe"),
                                   cal._resume).send,
            (None,))

    # -- report ------------------------------------------------------------

    def calls(self, cls_name: str, *attrs: str) -> int:
        return sum(self._calls[i] for i, (_l, _m, c, a) in enumerate(PROBES)
                   if c == cls_name and a in attrs)

    def inclusive_s(self, cls_name: str, attr: str) -> float:
        return sum(self._incl_s[i] for i, (_l, _m, c, a) in enumerate(PROBES)
                   if c == cls_name and a == attr)

    def resumes(self, layer: str = "") -> int:
        if layer:
            idx = self.layers.get(layer)
            return 0 if idx is None else self._resumes[idx]
        return sum(self._resumes)

    def overhead_s(self) -> float:
        """Calibrated tracing cost inside the traced wall time."""
        n_resumes = sum(self._resumes)
        n_calls = sum(self._spans) - n_resumes
        return (n_calls * sum(self.c_call)
                + n_resumes * sum(self.c_resume))

    def self_times(self) -> Dict[str, float]:
        """Overhead-corrected self time per layer, residual included.

        These plus :meth:`overhead_s` sum to ``wall_s``.
        """
        out = {}
        for name, idx in self.layers.items():
            resumes = self._resumes[idx]
            calls = self._spans[idx] - resumes
            out[name] = (self._self_s[idx] - self._c_out_s[idx]
                         - calls * self.c_call[0]
                         - resumes * self.c_resume[0])
        return out
