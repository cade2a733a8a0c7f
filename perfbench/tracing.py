"""Per-layer host-time attribution from the benchmark's own files.

No program source is edited: :meth:`Tracer.install` wraps each layer's
public boundary functions at run time (class attributes and module-level
names, including every module that imported a name directly), and
:meth:`Tracer.uninstall` puts the originals back, so untraced passes run
the program exactly as shipped.

A span is ``(request, parent, layer, start_ns, end_ns)``; one root span
of layer ``"request"`` encloses each request, so its self time is the
host time spent outside every named layer (``other``). Spans of one
request are kept in memory until it completes, then folded into self
times by :func:`self_times` and dropped.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

#: layer -> boundary functions, as (module, "Class.method" or "function")
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "ccompiler": (("repro.isa.ccompiler", "compile_c"),),
    "assembler": (("repro.isa.assembler", "assemble"),),
    "opt": (("repro.analysis.opt", "optimize_program"),),
    "jit": (("repro.isa.jit", "JitEngine.run"),),
    # the kernel interprets a process one Machine.step at a time
    "interp": (("repro.isa.machine", "Machine.run"),
               ("repro.isa.machine", "Machine.run_slice"),
               ("repro.isa.machine", "Machine.step")),
    # JIT blocks replay their accesses in batches; an interpreted process
    # on the virtual bus goes through the per-access *_for entry points
    "bus": (("repro.system.bus", "FlatBus.replay_block"),
            ("repro.system.bus", "CachedBus.replay_block"),
            ("repro.system.bus", "VirtualBus.replay_block_for"),
            ("repro.system.bus", "VirtualBus.read_for"),
            ("repro.system.bus", "VirtualBus.write_for"),
            ("repro.system.bus", "VirtualBus.fetch_for")),
    "cache": (("repro.memory.multilevel", "CacheHierarchy.simulate_trace"),
              ("repro.memory.multilevel", "CacheHierarchy.access"),
              ("repro.memory.vectorcache", "simulate_arrays")),
    "mmu": (("repro.vm.mmu", "MMU.access"),
            ("repro.vm.mmu", "MMU.translate_many"),
            ("repro.vm.mmu", "MMU.context_switch")),
    "kernel": (("repro.ossim.kernel", "Kernel.run"),
               ("repro.ossim.kernel", "Kernel.run_one")),
    "simmachine": (("repro.core.machine", "SimMachine.run"),),
    "network": (("repro.cluster.network", "Network.send"),
                ("repro.cluster.network", "Network.recv"),
                ("repro.cluster.network", "Network.recv_any")),
    "life": (("repro.life.serial", "step"),
             ("repro.life.serial", "step_band"),
             ("repro.life.parallel", "step_region"),
             ("repro.cluster.life", "ClusterLife.step")),
}

ROOT = "request"


def label(module_name: str, qualname: str) -> str:
    """A boundary function's name in call counts, e.g. ``mmu.MMU.access``."""
    return f"{module_name.rsplit('.', 1)[-1]}.{qualname}"


#: boundary-function label -> its layer
LAYER_OF = {label(m, q): layer
            for layer, targets in LAYERS.items() for m, q in targets}


def self_times(spans) -> dict[str, int]:
    """Self time per layer (ns) of a span list.

    ``spans`` holds ``(request, parent, layer, start_ns, end_ns)``
    tuples whose ``parent`` is the list index of the enclosing span, or
    -1 for a root. A span's self time is its duration minus the
    durations of its direct children, so the self times of a tree sum
    to the root's duration.
    """
    child_ns = [0] * len(spans)
    for _req, parent, _layer, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, int] = {}
    for i, (_req, _parent, layer, start, end) in enumerate(spans):
        out[layer] = out.get(layer, 0) + (end - start - child_ns[i])
    return out


class Tracer:
    """Span recorder plus per-function call counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self._stack = [-1]
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, label: str, fn):
        spans = self.spans
        stack = self._stack
        calls = self.calls
        calls.setdefault(label, 0)

        def traced(*args, **kwargs):
            calls[label] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (self._request, parent, layer, start, end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def request(self, request_id: int, fn, *args):
        """Run ``fn(*args)`` under a root span.

        Returns ``(value, self ns per layer, wall ns, calls per
        boundary function)``; the request's spans and counts are then
        dropped, so memory stays bounded by one request.
        """
        self._request = request_id
        root = self._wrap(ROOT, ROOT, fn)
        start = perf_counter_ns()
        try:
            value = root(*args)
        finally:
            wall = perf_counter_ns() - start
            selfs = self_times(self.spans)
            self.spans.clear()
            del self.calls[ROOT]
            calls = {k: v for k, v in self.calls.items() if v}
            self.calls.update(dict.fromkeys(self.calls, 0))
        return value, selfs, wall, calls

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function named in :data:`LAYERS`."""
        if self._patches:
            return
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                name = label(module_name, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original,
                                self._wrap(layer, name, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, name, original)
                # rebind the name wherever it was imported directly
                for name, mod in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) \
                            and getattr(mod, qualname, None) is original:
                        self._patch(mod, qualname, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
