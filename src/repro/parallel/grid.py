"""Grid cell model: deterministic, spawn-safe units of evaluation work.

Design constraints, in order of importance:

1. **Bit-identical to serial.** A cell is a pure function of its payload
   (every seed is computed by the parent and shipped in the payload, never
   derived from worker identity or scheduling order), and results are
   reassembled in submission order. Running with ``jobs=8`` must produce
   the same bytes as ``jobs=1``; ``tests/evalsuite/test_parallel.py``
   regresses this across processes.
2. **Spawn-safe.** Cells name their worker as a ``"module:function"``
   string resolved *inside* the worker after a fresh import, so nothing
   about the parent's state needs to survive pickling — the default start
   method is ``spawn`` (fork-safety of numpy's threadpools is not worth
   trusting), and payloads must contain only picklable values (ints,
   strings, tuples, frozen config dataclasses). Picklability is validated
   when the cell is *built*, in the parent, so a bad payload fails with
   the offending key named instead of an opaque traceback from inside the
   pool.
3. **Serial fallback.** ``jobs=None``/``0``/``1`` executes the cells in
   the calling process with no pool, no context, no pickling.

This module holds the cell model: :class:`GridCell`, its fingerprint,
and :func:`execute_cell`, the entry point every runner calls. The one
engine that runs cells — serially or pooled, with retries, timeouts and
a checkpoint journal — is :mod:`repro.parallel.supervisor`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from dataclasses import dataclass, field, fields, is_dataclass
from importlib import import_module

__all__ = [
    "DEFAULT_START_METHOD",
    "OBS_KEY",
    "CellExecutionError",
    "GridCell",
    "execute_cell",
    "fingerprint_cell",
    "fingerprint_payload",
    "resolve_jobs",
]

DEFAULT_START_METHOD = "spawn"

# The one reserved payload key: the harness's observability hook (trace
# file, telemetry stream). ``_``-prefixed, so fingerprints ignore it.
OBS_KEY = "_obs"

# Workers only ever resolve tasks inside the package itself: a cell that
# named an arbitrary module would turn pickled payloads into an import
# gadget, and there is no legitimate grid work outside the repro tree.
_ALLOWED_PREFIX = "repro."


class CellExecutionError(RuntimeError):
    """A grid cell's worker function raised.

    The message names the cell's task and content fingerprint so a
    failure deep inside a pooled run can be mapped back to the exact
    cell (and its checkpoint-journal entry) that produced it; the
    original exception rides along as ``__cause__``.
    """


@dataclass(frozen=True)
class GridCell:
    """One unit of grid work.

    Attributes:
        task: worker entry point as ``"module:function"``; the module must
            live inside the ``repro`` package.
        payload: keyword arguments for the entry point. Must be picklable
            and must carry every seed the cell needs — workers receive no
            other source of randomness.
    """

    task: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        module, _, function = self.task.partition(":")
        if not function or not module.startswith(_ALLOWED_PREFIX):
            raise ValueError(
                f"task must be 'repro.<module>:<function>', got {self.task!r}"
            )
        try:
            pickle.dumps(self.payload)
        except Exception:
            # Find and name the offending key: "payload isn't picklable"
            # without a key name still means a debugging session.
            for key, value in self.payload.items():
                try:
                    pickle.dumps(value)
                except Exception as error:
                    raise ValueError(
                        f"payload key {key!r} of cell {self.task} is not "
                        f"picklable ({type(value).__name__}): {error}"
                    ) from error
            raise ValueError(
                f"payload of cell {self.task} is not picklable"
            ) from None


def _canonical(value: object) -> str:
    """Deterministic, content-based rendering for fingerprinting.

    Dict entries are sorted so two payloads with the same items in
    different insertion order fingerprint identically; dataclasses render
    by qualified type name and field values, so frozen config objects
    participate by content.
    """
    if isinstance(value, dict):
        entries = sorted(
            (_canonical(key), _canonical(item)) for key, item in value.items()
        )
        return "{" + ",".join(f"{key}:{item}" for key, item in entries) + "}"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ",".join(_canonical(item) for item in value) + close
    if is_dataclass(value) and not isinstance(value, type):
        parts = ",".join(
            f"{spec.name}={_canonical(getattr(value, spec.name))}"
            for spec in fields(value)
        )
        return f"{type(value).__qualname__}({parts})"
    return repr(value)


def fingerprint_payload(task: str, payload: dict) -> str:
    """Content fingerprint of an arbitrary ``(task, payload)`` pair.

    The journal's fingerprint scheme, exposed for other content-addressed
    caches (the translation service keys compiled mappings with it):
    deterministic canonical rendering, harness keys (leading ``_``)
    excluded, SHA-256 hex digest.
    """
    digest = hashlib.sha256()
    digest.update(task.encode())
    digest.update(b"\x00")
    visible = {
        key: value
        for key, value in payload.items()
        if not (isinstance(key, str) and key.startswith("_"))
    }
    digest.update(_canonical(visible).encode())
    return digest.hexdigest()


def fingerprint_cell(cell: GridCell) -> str:
    """Content fingerprint of ``(task, payload)``.

    Two cells fingerprint identically exactly when they would compute the
    same result (cells are pure functions of their payloads), which is
    what lets the checkpoint journal key completed work by fingerprint
    and lets ``--resume`` skip finished cells across process lifetimes.

    Payload keys starting with ``_`` are *reserved for the harness* and
    excluded. The harness's one such key, :data:`OBS_KEY`, never reaches
    the worker function, so it cannot change the result — a traced or
    streaming run and a plain run share journal entries.
    """
    return fingerprint_payload(cell.task, cell.payload)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value.

    ``None``/``0``/``1`` mean serial, ``-1`` means all CPUs, positive
    values pass through up to the host's capacity. Other negatives are
    rejected — the CLI layer already refuses them, and silently treating
    ``-8`` as "all CPUs" hid typos.

    Requests beyond ``cpu_count`` are clamped (with a logged warning)
    rather than honoured: every worker is CPU-bound for its whole cell,
    so oversubscribing spawn pools only adds context-switch thrash and
    per-worker spawn cost.  The clamp floor is 2, never 1 — on a
    single-CPU host an explicit multi-job request still gets a (small)
    pool, because under supervision the pool is an isolation boundary,
    not just a speedup (a cell that kills its process must not kill the
    run).  ``-1`` asks for "what the host has", so on one CPU it
    resolves to serial with no warning.
    """
    if jobs is None or jobs == 0:
        return 1
    cpus = max(os.cpu_count() or 1, 1)
    if jobs == -1:
        return cpus
    if jobs < 0:
        raise ValueError(
            f"jobs must be positive, -1 (all CPUs) or None/0 (serial); got {jobs}"
        )
    limit = max(2, cpus)
    if jobs > limit:
        logging.getLogger("repro.parallel").warning(
            "clamping --jobs %d to %d (host has %d CPU%s)",
            jobs,
            limit,
            cpus,
            "" if cpus == 1 else "s",
        )
        return limit
    return jobs


def execute_cell(cell: GridCell):
    """Run one cell in the current process (the worker entry point).

    Errors raised while *resolving* the task (bad module, missing
    function) propagate unchanged; errors raised by the worker function
    itself are wrapped in :class:`CellExecutionError` naming the cell's
    task and fingerprint, with the original exception as ``__cause__``.

    The one harness hook is the reserved :data:`OBS_KEY` payload entry,
    injected by :func:`repro.evalsuite.gridrun.execute_grid` when the
    run is traced or streams telemetry. It is stripped before the worker
    function is called, and :func:`repro.obs.gridtrace.run_cell_observed`
    runs the cell under the tracer and/or telemetry bus it names.
    """
    module_name, _, function_name = cell.task.partition(":")
    function = getattr(import_module(module_name), function_name)
    kwargs = cell.payload
    hook = kwargs.get(OBS_KEY)
    try:
        if hook is None:
            return function(**kwargs)
        from repro.obs.gridtrace import run_cell_observed

        kwargs = {key: value for key, value in kwargs.items() if key != OBS_KEY}
        return run_cell_observed(function, kwargs, hook)
    except Exception as error:
        raise CellExecutionError(
            f"grid cell {cell.task} (fingerprint {fingerprint_cell(cell)[:12]}) "
            f"failed: {type(error).__name__}: {error}"
        ) from error
