"""Layer wrappers for the benchmark: setup timing and per-layer spans.

Every layer is a ``repro`` module, measured from outside by replacing
its public functions with timing wrappers.  Nothing under ``src/`` is
edited: a module-level function is replaced in every ``repro`` module
that holds a reference to it (so callers that imported the name see the
wrapper), and a method is replaced on its class.  A target that does not
exist raises :class:`MissingTarget`, so a rename in ``src/`` fails the
benchmark instead of reporting the layer as zero.

Two kinds of wrapper exist:

* :class:`SetupTimer` times the set-up functions (workload preparation
  and trace compilation).  It wraps a handful of functions called a few
  times per pass and is installed in every run, so that ``wall_s`` can
  exclude set-up and ``setup_s`` can report it.
* :class:`Tracer` wraps every function of :data:`LAYERS` and records a
  span per call.  It is installed only for the traced pass; its cost is
  reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import json
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Layer name -> (module, qualified name or ``Class.pattern``) targets.
#: A pattern target must match at least one public method of the class.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads": (("repro.harness.runner", "prepare_workload"),),
    "sim.ctrace": (
        ("repro.sim.replay", "compile_trace"),
        ("repro.sim.ctrace", "CompiledTrace.derive"),
    ),
    "sim.replay": (("repro.sim.replay", "run_compiled"),),
    "txn.runtime": (
        ("repro.txn.runtime", "ThreadAPI.read"),
        ("repro.txn.runtime", "ThreadAPI.write"),
        ("repro.txn.runtime", "ThreadAPI.tx_begin"),
        ("repro.txn.runtime", "ThreadAPI.tx_commit"),
    ),
    "sim.core": (
        ("repro.sim.machine", "Machine.execute"),
        ("repro.sim.core", "Core.exec_*"),
    ),
    "sim.hierarchy": (
        ("repro.sim.hierarchy", "CacheHierarchy.load"),
        ("repro.sim.hierarchy", "CacheHierarchy.load_fast"),
        ("repro.sim.hierarchy", "CacheHierarchy.store_prepare"),
        ("repro.sim.hierarchy", "CacheHierarchy.store_finish"),
        ("repro.sim.hierarchy", "CacheHierarchy.clwb"),
        ("repro.sim.hierarchy", "CacheHierarchy.force_writeback"),
        ("repro.sim.hierarchy", "CacheHierarchy.fwb_writeback_*"),
    ),
    "sim.memctrl": (
        ("repro.sim.memctrl", "MemoryController.read"),
        ("repro.sim.memctrl", "MemoryController.write"),
        ("repro.sim.memctrl", "MemoryController.retire"),
        ("repro.sim.nvram", "NVRAM.read"),
        ("repro.sim.nvram", "NVRAM.write"),
        ("repro.sim.nvram", "NVRAM.peek"),
    ),
    "core.log": (
        ("repro.core.hwl", "HardwareLogging.on_store"),
        ("repro.core.hwl", "HardwareLogging.on_tx_commit"),
        ("repro.core.softlog", "SoftwareLog.begin"),
        ("repro.core.softlog", "SoftwareLog.data"),
        ("repro.core.softlog", "SoftwareLog.commit"),
        ("repro.core.logbuffer", "LogBuffer.push"),
        ("repro.core.nvlog", "CircularLog.place"),
        ("repro.core.logrecord", "LogRecord.encode"),
    ),
    "core.fwb": (("repro.core.fwb", "ForceWriteBack.scan"),),
    "sim.energy": (("repro.sim.energy", "EnergyModel.*"),),
    "sched": (
        ("repro.sched.loop", "EventLoopScheduler.run_open_loop"),
        ("repro.sched.loop", "EventLoopScheduler.step_all"),
        ("repro.sched.loop", "EventLoopScheduler.drain"),
        ("repro.sched.shard", "ShardMachine.step"),
        ("repro.sched.shard", "ShardMachine.inject"),
        ("repro.sched.traffic", "open_loop_schedule"),
    ),
    "core.recovery": (
        ("repro.core.recovery", "RecoveryManager.scan_window"),
        ("repro.core.recovery", "RecoveryManager.recover"),
    ),
}

#: Functions whose time is set-up time: ``setup_s`` and, subtracted from
#: each pass, the part of a pass that ``wall_s`` does not count.
SETUP_TARGETS: Tuple[Tuple[str, str], ...] = LAYERS["workloads"] + LAYERS["sim.ctrace"]

#: Spans kept in memory for the span file (about 20 MB of tuples).
KEEP_SPANS = 200_000


class MissingTarget(RuntimeError):
    """A wrapped public function no longer exists under its name."""


def import_repro() -> None:
    """Import every ``repro`` module, so that each imported reference to
    a wrapped function exists before wrapping and can be found."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


def _resolve(module_name: str, qualname: str) -> List[Tuple[object, str, Callable]]:
    """``(owner, attribute, function)`` for every function a target names.

    Raises :class:`MissingTarget` when the module, class or function is
    gone, or a pattern matches no public method.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"{module_name}: {exc}") from None
    if "." not in qualname:
        func = module.__dict__.get(qualname)
        if not inspect.isfunction(func):
            raise MissingTarget(f"{module_name}.{qualname} is not a function")
        return [(module, qualname, func)]
    class_name, pattern = qualname.split(".", 1)
    cls = module.__dict__.get(class_name)
    if not inspect.isclass(cls):
        raise MissingTarget(f"{module_name}.{class_name} is not a class")
    found = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not fnmatch.fnmatchcase(name, pattern):
            continue
        if inspect.isfunction(value):
            found.append((cls, name, value))
    if not found:
        raise MissingTarget(f"{module_name}.{qualname} matches no method")
    return found


def check_targets() -> None:
    """Resolve every layer target without wrapping it, so that an
    untraced run fails on a missing function just as a traced one does."""
    for targets in LAYERS.values():
        for module_name, qualname in targets:
            _resolve(module_name, qualname)


class _Patcher:
    """Replace functions in place and put the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, targets: Sequence[Tuple[str, str]], make: Callable) -> None:
        """Wrap every function ``targets`` name with ``make(func, label)``."""
        for module_name, qualname in targets:
            for owner, attr, func in _resolve(module_name, qualname):
                if inspect.isgeneratorfunction(func):
                    raise MissingTarget(
                        f"{module_name}.{qualname}: generator functions "
                        "cannot be timed by a call wrapper"
                    )
                if inspect.isclass(owner):
                    label = f"{module_name}.{owner.__name__}.{attr}"
                else:
                    label = f"{module_name}.{attr}"
                wrapper = make(func, label)
                if inspect.isclass(owner):
                    self._set(owner, attr, wrapper)
                    continue
                # A module-level function: replace every reference a
                # repro module holds, since callers look the name up in
                # their own module.
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if name.startswith("repro") and mod.__dict__.get(attr) is func:
                        self._set(mod, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class SetupTimer:
    """Accumulates time spent in :data:`SETUP_TARGETS` (outermost calls),
    read from ``clock``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.seconds = 0.0
        self._depth = 0
        self._patcher = _Patcher()

    def install(self) -> None:
        self._patcher.wrap(SETUP_TARGETS, self._make)

    def restore(self) -> None:
        self._patcher.restore()

    def take(self) -> float:
        """Set-up seconds since the last call."""
        seconds, self.seconds = self.seconds, 0.0
        return seconds

    def _make(self, func: Callable, _label: str) -> Callable:
        timer = self

        def timed(*args, **kwargs):
            timer._depth += 1
            start = timer.clock()
            try:
                return func(*args, **kwargs)
            finally:
                timer._depth -= 1
                if timer._depth == 0:
                    timer.seconds += timer.clock() - start

        return timed


class Tracer:
    """Per-layer call counts and self time, plus a bounded span log.

    A span is ``(id, parent id, layer, function, start, end)``; the
    parent is the innermost enclosing span of any layer (-1 at top
    level).  Self time is a span's duration minus the time its child
    spans cover.  The first :data:`KEEP_SPANS` spans are kept in memory
    and written by :meth:`write_spans`; later ones only update the
    totals.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.label_calls: Dict[str, int] = {}
        """Calls per wrapped function, by ``module.Class.function``."""
        self.spans: List[tuple] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._patcher = _Patcher()

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            self._patcher.wrap(targets, lambda func, label, layer=layer: self._make(layer, func, label))

    def restore(self) -> None:
        self._patcher.restore()

    def _make(self, layer: str, func: Callable, label: str) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        label_calls = self.label_calls
        label_calls[label] = 0
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                label_calls[label] += 1
                if stack:
                    stack[-1][0] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((span_id, parent, layer, label, start, end))
                else:
                    tracer.dropped += 1

        return traced

    def write_spans(self, path, origin: float) -> None:
        """Write the kept spans as JSON lines, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, layer, label, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "name": label,
                            "start_s": start - origin,
                            "end_s": end - origin,
                        }
                    )
                    + "\n"
                )
