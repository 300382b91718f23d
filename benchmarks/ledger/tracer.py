"""Benchmark-side wall-clock tracer: where a run's host time goes, by layer.

The emulator is not edited.  The tracer wraps its public entry points
from outside — class-level, so ``__slots__`` classes and every instance
created afterwards are covered — and installs the kernel's own
``Simulator.set_dispatch_hook`` on each new simulator.  A layer is a
``repro.<module>`` package (``eventsim``, ``eventsim.bus``, ``net``,
``bgp``, ``sdn``, ``controller``, ``framework``, ``obs.*``, ``runner``,
``config``) plus the host's garbage collector.

Accounting is a span stack.  Every wrapper pushes a frame, runs the
original, and on the way out adds ``duration - time spent in child
frames`` to its layer's *self time* and its whole duration to the
parent frame, so self times never overlap.  ``trial()`` opens the root
frame of one operation; whatever no wrapper claimed is that root's self
time, the ``untraced_residual`` — so per trial
``sum(layer self_s) + untraced_residual_s == trial wall`` by
construction.

Hot wrappers (per simulated event or message) only accumulate; coarse
ones (build, start, measure, execute_spec, cache, registry, trials,
gen-2 collections) also keep a ``(name, start, end, parent, trial)``
span in memory.  ``dump()`` writes spans and the per-trial layer rows
as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "RESIDUAL", "layer_of_module"]

#: the per-trial root frame's layer: time no wrapper claimed.
RESIDUAL = "untraced_residual"
#: the tracer's own measured cost (the dispatch hook times itself).
TRACER = "tracer"

#: bus subscription name -> layer charged for its callback.
SUBSCRIBER_LAYERS = {
    "trace": "obs.tracelog",
    "metrics": "obs.metrics_subscriber",
    "convergence-tracker": "framework",
}

#: longest-prefix map from a callback's module to its layer.
_MODULE_LAYERS = (
    ("repro.eventsim.bus", "eventsim.bus"),
    ("repro.eventsim.trace", "obs.tracelog"),
    ("repro.eventsim.metrics", "obs.metrics_subscriber"),
    ("repro.eventsim", "eventsim"),
    ("repro.net", "net"),
    ("repro.bgp", "bgp"),
    ("repro.sdn", "sdn"),
    ("repro.controller", "controller"),
    ("repro.topology", "topology"),
    ("repro.framework", "framework"),
    ("repro.faults", "framework"),
    ("repro.experiments", "framework"),
    ("repro.obs", "obs"),
    ("repro.runner", "runner"),
    ("repro.config", "config"),
    ("repro.service", "service"),
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning ``module`` (``"other"`` outside the emulator)."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Tracer:
    """Span stack, wrapper installer/uninstaller, per-trial ledger."""

    def __init__(self) -> None:
        #: layer -> [self seconds, calls]; wrappers hold the list itself.
        self.layers: Dict[str, List[float]] = {}
        #: child-time accumulators of the open frames; [0] is a sentinel
        #: so the outermost wrapper always has a parent to report to.
        self._stack: List[float] = [0.0]
        #: coarse spans, in closing order.
        self.spans: List[Dict[str, Any]] = []
        self._open_spans: List[Optional[int]] = [None]
        self._next_span = 0
        self._trial: Optional[str] = None
        #: one row per closed trial: wall, per-layer self seconds (the
        #: residual among them) and wrapper calls, recompute events.
        self.trials: List[Dict[str, Any]] = []
        #: ``(wall seconds, trial)`` of each controller recompute event.
        self.recompute_walls: List[tuple] = []
        #: ``(generation, pause seconds, trial)`` of every collection.
        self.gc_pauses: List[tuple] = []
        #: high-water mark of live foreground events seen at dispatch.
        self.pending_foreground_max = 0
        self._patches: List[tuple] = []
        self._by_code: Dict[Any, List[float]] = {}
        self._timer_fires: frozenset = frozenset()
        self._recompute_acc = self._acc("controller.recompute")
        self._gc_started = 0.0
        self.installed = False

    # ------------------------------------------------------------------
    # accumulators and wrappers
    # ------------------------------------------------------------------
    def _acc(self, layer: str) -> List[float]:
        acc = self.layers.get(layer)
        if acc is None:
            acc = self.layers[layer] = [0.0, 0]
        return acc

    def self_s(self, layer: str) -> float:
        """Self seconds accumulated by ``layer`` so far."""
        return self.layers.get(layer, (0.0, 0))[0]

    def calls(self, layer: str) -> int:
        """Wrapper entries charged to ``layer`` (for ``eventsim``: steps)."""
        return int(self.layers.get(layer, (0.0, 0))[1])

    def timed(self, fn: Callable, layer: str) -> Callable:
        """Wrap ``fn`` so its self time accrues to ``layer`` (hot path:
        no span is kept)."""
        acc = self._acc(layer)
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                acc[0] += duration - stack.pop()
                acc[1] += 1
                stack[-1] += duration

        return wrapper

    def spanned(self, fn: Callable, layer: str, name: str) -> Callable:
        """Wrap ``fn`` like :meth:`timed`, also keeping one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """One coarse span: self time to ``layer``, interval to the dump."""
        acc = self._acc(layer)
        stack = self._stack
        span_id = self._next_span
        self._next_span += 1
        parent = self._open_spans[-1]
        self._open_spans.append(span_id)
        stack.append(0.0)
        started = perf_counter()
        try:
            yield
        finally:
            ended = perf_counter()
            duration = ended - started
            acc[0] += duration - stack.pop()
            acc[1] += 1
            stack[-1] += duration
            self._open_spans.pop()
            self.spans.append(
                {
                    "span": span_id, "name": name, "layer": layer,
                    "start": started, "end": ended, "parent": parent,
                    "trial": self._trial,
                }
            )

    @contextlib.contextmanager
    def trial(self, trial_id: str) -> Iterator[None]:
        """The root frame of one operation; closes its layer ledger."""
        before = {layer: tuple(acc) for layer, acc in self.layers.items()}
        recomputes = len(self.recompute_walls)
        pending_before, self.pending_foreground_max = (
            self.pending_foreground_max, 0
        )
        self._trial = trial_id
        try:
            with self.span("trial", RESIDUAL):
                yield
        finally:
            # the root span just closed (a full collection may have
            # slipped its own span in behind it)
            root = next(s for s in reversed(self.spans) if s["name"] == "trial")
            wall = root["end"] - root["start"]
            self._trial = None
            row: Dict[str, Any] = {
                "trial": trial_id, "wall_s": wall, "layers": {}, "calls": {},
                "recomputes": len(self.recompute_walls) - recomputes,
                "pending_foreground_max": self.pending_foreground_max,
            }
            self.pending_foreground_max = max(
                pending_before, self.pending_foreground_max
            )
            for layer, acc in self.layers.items():
                self_s, calls = before.get(layer, (0.0, 0))
                if acc[0] != self_s:
                    row["layers"][layer] = acc[0] - self_s
                if acc[1] != calls:
                    row["calls"][layer] = int(acc[1] - calls)
            self.trials.append(row)

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------
    def _owner(self, callback) -> List[float]:
        """The accumulator of the layer owning an event callback.

        A timer's ``_fire`` is charged to whoever armed the timer, and
        the controller's debounced recompute to its own sub-layer.
        """
        func = getattr(callback, "__func__", callback)
        if func in self._timer_fires:
            inner = callback.__self__._callback
            func = getattr(inner, "__func__", inner)
        while isinstance(func, functools.partial):
            func = func.func
        code = getattr(func, "__code__", None)
        acc = self._by_code.get(code)
        if acc is None:
            if getattr(func, "__qualname__", "").endswith("._recompute_dirty"):
                acc = self._recompute_acc
            else:
                acc = self._acc(
                    layer_of_module(getattr(func, "__module__", None))
                )
            self._by_code[code] = acc
        return acc

    def attach(self, sim) -> None:
        """Install the dispatch hook on one simulator (new simulators
        get it at construction).

        The hook runs inside the wrapped ``step`` right after the
        handler returned, so the top frame is that step's: what the
        handler's own wrapped calls took is already in it.  The handler
        keeps the rest of its wall time, the step keeps what is left of
        its frame — the queue pop and its bookkeeping — and the hook
        charges its own measured cost to the tracer.
        """
        stack = self._stack
        owner = self._owner
        recompute = self._recompute_acc
        own_acc = self._acc(TRACER)
        clock = perf_counter

        def hook(event, wall):
            entered = clock()
            pending = sim.pending_foreground()
            if pending > self.pending_foreground_max:
                self.pending_foreground_max = pending
            acc = owner(event.callback)
            acc[0] += wall - stack[-1]
            if acc is recompute:
                self.recompute_walls.append((wall, self._trial))
            own = clock() - entered
            own_acc[0] += own
            stack[-1] = wall + own

        sim.set_dispatch_hook(hook)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._stack.append(0.0)
            self._gc_started = perf_counter()
            return
        ended = perf_counter()
        pause = ended - self._gc_started
        self._stack.pop()
        acc = self._acc("gc")
        acc[0] += pause
        acc[1] += 1
        self._stack[-1] += pause
        generation = info.get("generation", 0)
        self.gc_pauses.append((generation, pause, self._trial))
        if generation == 2:
            self.spans.append(
                {
                    "span": self._next_span, "name": "gc.gen2", "layer": "gc",
                    "start": self._gc_started, "end": ended,
                    "parent": self._open_spans[-1], "trial": self._trial,
                }
            )
            self._next_span += 1

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str, *, span: bool = False) -> None:
        """Replace ``owner.attr`` (a class's method or a module's function)
        with a timed wrapper, remembered for :meth:`uninstall`."""
        original = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        wrapped = (
            self.spanned(original, layer, name) if span
            else self.timed(original, layer)
        )
        self._patch(owner, attr, wrapped)

    def install(self) -> "Tracer":
        """Wrap the emulator's entry points.  Call before any
        ``Experiment`` is built: the bus binds subscriber callbacks and
        the kernel its dispatch hook when they are created."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        from repro.bgp.router import BGPRouter
        from repro.config import specio
        from repro.controller import idr
        from repro.controller.speaker import ClusterBGPSpeaker
        from repro.eventsim import timer
        from repro.eventsim.bus import InstrumentationBus
        from repro.eventsim.core import Simulator
        from repro.experiments import common as experiments_common
        from repro.framework import convergence
        from repro.framework.experiment import Experiment
        from repro.net.link import Link
        from repro.obs import anatomy
        from repro.obs.registry import RunRegistry
        from repro.obs.spans import SpanTracker
        from repro.runner import jobs, pool
        from repro.runner.cache import ResultCache
        from repro.sdn.switch import SDNSwitch
        from repro.topology import caida

        self._timer_fires = frozenset(
            cls.__dict__["_fire"]
            for cls in (timer.Timer, timer.PeriodicTimer, timer.DebounceTimer)
        )

        # -- kernel: every step is a frame; the hook splits it ----------
        self.wrap(Simulator, "step", "eventsim")
        init = Simulator.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def hooked_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            tracer.attach(sim)

        self._patch(Simulator, "__init__", hooked_init)

        # -- bus: publishing, and each subscriber's own callback --------
        for attr in ("record", "record_lazy", "publish"):
            self.wrap(InstrumentationBus, attr, "eventsim.bus")
        subscribe = InstrumentationBus.__dict__["subscribe"]

        @functools.wraps(subscribe)
        def timed_subscribe(bus, callback, *, categories=None, sample=1, name=""):
            layer = SUBSCRIBER_LAYERS.get(name, "obs.subscriber")
            return subscribe(
                bus, tracer.timed(callback, layer),
                categories=categories, sample=sample, name=name,
            )

        self._patch(InstrumentationBus, "subscribe", timed_subscribe)
        self.wrap(SpanTracker, "on_record", "obs.span_tracker")

        # -- data path ---------------------------------------------------
        self.wrap(Link, "transmit", "net")
        self.wrap(BGPRouter, "handle_message", "bgp")
        self.wrap(SDNSwitch, "handle_message", "sdn")
        self.wrap(idr.IDRController, "handle_message", "controller")
        self.wrap(ClusterBGPSpeaker, "handle_message", "controller")
        # names imported into idr's namespace: patch them where called.
        self.wrap(idr, "compute_decisions", "controller.compute")
        self.wrap(idr, "build_as_topology", "controller.compute")

        # -- framework / topology ---------------------------------------
        self.wrap(Experiment, "build", "framework", span=True)
        self.wrap(Experiment, "start", "framework", span=True)
        for module in (convergence, experiments_common):
            self.wrap(module, "measure_event", "framework", span=True)
        self.wrap(caida, "caida_hierarchy", "topology", span=True)

        # -- runner / cache / registry / specio / anatomy ----------------
        # pool imported the name too: patch it where it is called.
        for module in (jobs, pool):
            self.wrap(module, "execute_spec", "runner", span=True)
        self.wrap(pool.ParallelRunner, "run", "runner", span=True)
        self.wrap(ResultCache, "get", "runner.cache", span=True)
        self.wrap(ResultCache, "put", "runner.cache", span=True)
        self.wrap(RunRegistry, "record", "obs.registry", span=True)
        self.wrap(specio, "specs_from_json", "config", span=True)
        self.wrap(anatomy, "ensure_record_anatomy", "obs.anatomy", span=True)

        gc.callbacks.append(self._on_gc)
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Put every original back (reverse order) and stop timing gc.
        Simulators built meanwhile keep their hook until they die."""
        if self.installed:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write coarse spans, then per-trial layer rows, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"kind": "span", **span}) + "\n")
            for row in self.trials:
                out.write(json.dumps({"kind": "trial", **row}) + "\n")
