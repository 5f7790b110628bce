"""Per-layer self-time tracing, installed from benchmark code only.

A *layer* is named after a module of ``repro`` (``core.probe`` is
``repro.core.probe``). :class:`LayerTracer` replaces each layer's public
functions and public methods with a timing wrapper, keeps a call stack,
and books every wrapped call's *self* time — its duration minus the part
covered by wrapped calls beneath it — to the layer that owns it. Time
spent in unwrapped code (helpers, NumPy, modules that are no layer) goes
to the nearest wrapped caller; time outside every layer goes to the root
frame and is reported as ``unattributed_s``.

Nothing under ``src/`` changes: :meth:`LayerTracer.install` patches the
module and class attributes (plus every ``from X import f`` rebinding in
other ``repro`` modules) and :meth:`LayerTracer.restore` puts the
originals back, so an untraced pass after a traced one runs the original
code.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time

# Layer -> (module, attribute filter) pairs. ``None`` takes every public
# function and every public method of the classes the module defines; a
# tuple names ``Class.method`` / ``function`` attributes explicitly.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...] | None], ...]] = {
    # The allocation entry point lives on the machine but belongs to the
    # allocator layer: it is where page placement is paid for.
    "machine.allocator": (
        ("repro.machine.allocator", None),
        ("repro.machine.machine", ("SimulatedMachine.allocate",)),
    ),
    "machine.measure": (
        ("repro.machine.machine", (
            "SimulatedMachine.measure_latency",
            "SimulatedMachine.measure_latency_batch",
            "SimulatedMachine.measure_latency_sweeps",
            "SimulatedMachine.measure_latency_pairs",
        )),
    ),
    **{
        layer: ((f"repro.{layer}", None),)
        for layer in (
            "faults.injector", "analysis.gf2", "baselines.drama", "baselines.xiao",
            "core.probe", "core.coarse", "core.selection", "core.partition",
            "core.bankfuncs", "core.fine", "core.dramdig", "fleet.confirm",
            "fleet.store", "rowhammer.hammer", "rowhammer.variants", "dram.compiled",
            "service.translation", "evalsuite.gridrun",
        )
    },
}

ROOT = "<root>"


def _public_targets(module) -> list[str]:
    """``function`` and ``Class.method`` names the module defines publicly."""
    names = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            names.append(name)
        elif inspect.isclass(value) and not issubclass(value, (enum.Enum, BaseException)):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                raw = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                if inspect.isfunction(raw):
                    names.append(f"{name}.{attr}")
    return names


class LayerTracer:
    """Self time and entry counts per layer for code run under :meth:`run`."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        # Self time per wrapped function, for finding the hot spot
        # inside a layer.
        self.functions: dict[str, float] = {}
        self.root_self = 0.0
        self.root_elapsed = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def _wrap(self, layer: str, fn):
        stack, busy, calls = self._stack, self.busy, self.calls
        functions = self.functions
        key = f"{fn.__module__}.{fn.__qualname__}"
        functions[key] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # One entry per transition into the layer: nested calls within
            # the same layer add self time but not entries.
            if not stack or stack[-1][0] != layer:
                calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] += elapsed - frame[1]
                functions[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's targets; undo with :meth:`restore`."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        # id(original module-level function) -> its wrapper; the
        # originals stay alive in ``self._patches``, so ids are not reused.
        replaced_functions: dict[int, object] = {}
        for layer, sources in LAYERS.items():
            targets = []
            for module_name, names in sources:
                module = importlib.import_module(module_name)
                targets += [(module, name) for name in (names or _public_targets(module))]
            for target_module, dotted in targets:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(target_module, owner_name) if owner_name else target_module
                member = vars(owner)[attr]
                if isinstance(member, (staticmethod, classmethod)):
                    raw = member.__func__
                    if inspect.isgeneratorfunction(raw):
                        continue
                    self._patch(owner, attr, type(member)(self._wrap(layer, raw)))
                    continue
                if inspect.isgeneratorfunction(member):
                    # Work happens while the caller iterates, outside the
                    # call; leave it to the caller's frame.
                    continue
                wrapped = self._wrap(layer, member)
                self._patch(owner, attr, wrapped)
                if owner is target_module:
                    replaced_functions[id(member)] = wrapped
        # ``from repro.x import f`` bound the original function object in
        # other modules; rebind those names too.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced_functions.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- the root

    def run(self, fn):
        """Call ``fn()`` as the root frame; its self time is unattributed."""
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.root_self += elapsed - frame[1]
            self.root_elapsed += elapsed

    def accounting_error(self) -> float:
        """|sum of layer self times + unattributed - root elapsed| in seconds."""
        return abs(sum(self.busy.values()) + self.root_self - self.root_elapsed)
