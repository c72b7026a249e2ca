"""Per-layer tracing from outside the program: wrap public calls, time them.

The program under test carries no tracing of its own, so the traced run
replaces each layer's public entry points with timing wrappers for its
duration.  A wrapper must replace the binding the *caller* looks up: for a
function that means every ``repro`` module holding it (``net/packet.py``
does ``from repro.net.headers import checksum16``, so patching only
``repro.net.headers`` would read a silent zero); for a method it means the
class attribute.  :meth:`Tracer.uninstall` puts every original back.

Spans are aggregated as they close, on one thread: a span's parent is the
innermost open span, and its self time is its duration minus the part its
direct children cover.  A boundary re-entered while already open (a
``to_pcap_atomic`` that calls ``to_pcap``) is transparent, so each boundary
counts the outermost call only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from perfbench.stats import self_time

#: ``count(args, kwargs, result)`` → the boundary's extra count for one call.
Counter = Callable[[tuple, dict, Any], int]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: a metric prefix and the public calls behind it."""

    name: str
    targets: tuple[str, ...]
    extra: str | None = None
    count: Counter | None = None
    #: Whether the boundary encloses other boundaries, so self time is
    #: published for it.
    nests: bool = False


def _sized(value: Any) -> int:
    # Counting a one-shot iterable would consume it out from under the call.
    return len(value) if hasattr(value, "__len__") else 0


def _aggregated_verdicts(rows: Sequence[dict]) -> int:
    # The aggregate table ends in a "total" row whenever it has more than one.
    if rows and rows[-1].get("environment") == "total" and len(rows) > 1:
        return int(rows[-1]["captures"])
    return sum(int(row["captures"]) for row in rows)


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary(
        "streaming.session",
        ("repro.streaming.session:InteractiveStreamingSession.run",),
        nests=True,
    ),
    Boundary(
        "tls.encrypt",
        ("repro.tls.ciphers:CipherSpec.encrypt",),
        "bytes",
        lambda args, kwargs, result: len(_arg(args, kwargs, 1, "plaintext")),
    ),
    Boundary("net.tcp_send", ("repro.net.tcp:TCPSender.send",)),
    Boundary(
        "net.checksum",
        ("repro.net.headers:checksum16",),
        "bytes",
        lambda args, kwargs, result: len(_arg(args, kwargs, 0, "data")),
    ),
    Boundary(
        "net.pcap_write",
        (
            "repro.net.capture:CapturedTrace.to_pcap",
            "repro.net.capture:CapturedTrace.to_pcap_atomic",
        ),
        "packets",
        lambda args, kwargs, result: int(result),
        nests=True,
    ),
    Boundary(
        "net.pcap_read",
        (
            "repro.net.capture:CapturedTrace.from_pcap",
            "repro.net.pcap:PcapReader.read_columns",
        ),
        "packets",
        lambda args, kwargs, result: result.packet_count,
        nests=True,
    ),
    Boundary("net.parse_frame", ("repro.net.packet:Packet.parse_frame",)),
    Boundary(
        "dataset.sidecar_build",
        ("repro.dataset.sidecar:sidecar_entry_for",),
        nests=True,
    ),
    Boundary("dataset.sidecar_write", ("repro.dataset.sidecar:SidecarWriter.write",)),
    Boundary(
        "dataset.sidecar_lookup",
        ("repro.dataset.sidecar:capture_records_for",),
        "hits",
        lambda args, kwargs, result: int(result is not None),
    ),
    Boundary(
        "dataset.writer_add", ("repro.dataset.format:DatasetWriter.add",), nests=True
    ),
    Boundary(
        "engine.session_plan", ("repro.engine.plan:SessionPlan.execute",), nests=True
    ),
    Boundary(
        "core.train",
        ("repro.core.pipeline:WhiteMirrorAttack.train",),
        "sessions",
        lambda args, kwargs, result: _sized(_arg(args, kwargs, 1, "sessions")),
        nests=True,
    ),
    Boundary(
        "core.extract",
        ("repro.core.features:extract_client_records",),
        "records",
        lambda args, kwargs, result: len(result),
        nests=True,
    ),
    Boundary("core.select_flow", ("repro.core.features:select_streaming_flow",)),
    Boundary(
        "core.classify",
        (
            "repro.core.classifier:RecordTypeClassifier.classify",
            "repro.core.fingerprint:FingerprintLibrary.classify_lengths",
        ),
        "lengths",
        lambda args, kwargs, result: len(result),
    ),
    Boundary("core.learn", ("repro.core.fingerprint:FingerprintLibrary.learn",)),
    Boundary("core.infer", ("repro.core.inference:infer_choices",)),
    Boundary("core.reconstruct", ("repro.core.inference:reconstruct_path",)),
    Boundary(
        "ingest.hash",
        ("repro.ingest.log:capture_fingerprint",),
        "bytes",
        lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, 0, "path")),
    ),
    Boundary("ingest.log_append", ("repro.ingest.log:ResultsLog.append",)),
    Boundary(
        "ingest.log_load",
        ("repro.ingest.log:ResultsLog.load",),
        "lines",
        lambda args, kwargs, result: len(result),
    ),
    Boundary(
        "ingest.aggregate",
        ("repro.ingest.service:StreamingAttackService.aggregate_rows",),
        "verdicts_scanned",
        lambda args, kwargs, result: _aggregated_verdicts(result),
    ),
    Boundary("ingest.metadata", ("repro.ingest.tasks:metadata_entries_near",)),
    Boundary("ingest.scan", ("repro.ingest.watcher:CaptureWatcher.scan",)),
    Boundary("jobs.emit", ("repro.jobs.events:EventBus.emit",)),
)


class Tracer:
    """Wraps every boundary's public calls and aggregates their spans."""

    def __init__(self) -> None:
        #: name -> [calls, busy seconds, self seconds, extra count]
        self.totals: dict[str, list[float]] = {
            boundary.name: [0, 0.0, 0.0, 0] for boundary in BOUNDARIES
        }
        self._open: set[str] = set()
        #: Child-span intervals of each open span, innermost last.
        self._stack: list[list[tuple[float, float]]] = []
        self._class_patches: list[tuple[type, str, Any]] = []
        #: id(wrapper) -> (wrapper, original function)
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    def reset(self) -> None:
        """Zero every total (between passes)."""
        for values in self.totals.values():
            values[:] = [0, 0.0, 0.0, 0]

    def _wrap(self, boundary: Boundary, function: Callable) -> Callable:
        if inspect.isgeneratorfunction(function):
            raise TypeError(
                f"{boundary.name}: cannot time generator {function.__qualname__}"
            )
        name = boundary.name
        count = boundary.count
        totals = self.totals[name]
        open_names = self._open
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if name in open_names:
                return function(*args, **kwargs)
            open_names.add(name)
            children: list[tuple[float, float]] = []
            stack.append(children)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.discard(name)
                if stack:
                    stack[-1].append((start, end))
                totals[0] += 1
                totals[1] += end - start
                totals[2] += self_time(start, end, children)
            if count is not None:
                totals[3] += count(args, kwargs, result)
            return result

        self._originals[id(traced)] = (traced, function)
        return traced

    def install(self) -> None:
        """Replace every boundary's call sites with timing wrappers."""
        for boundary in BOUNDARIES:
            for target in boundary.targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attribute = qualname.rpartition(".")
                if owner_name:
                    self._patch_method(boundary, getattr(module, owner_name), attribute)
                else:
                    self._patch_function(boundary, getattr(module, attribute))

    def _patch_method(self, boundary: Boundary, owner: type, attribute: str) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(boundary, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(boundary, raw.__func__))
        else:
            replacement = self._wrap(boundary, raw)
        setattr(owner, attribute, replacement)
        self._class_patches.append((owner, attribute, raw))

    def _patch_function(self, boundary: Boundary, function: Callable) -> None:
        wrapper = self._wrap(boundary, function)
        bound = 0
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is function:
                    setattr(module, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{boundary.name}: no module binds {function!r}")

    def uninstall(self) -> None:
        """Restore every original binding, including ones made while traced."""
        for owner, attribute, raw in reversed(self._class_patches):
            setattr(owner, attribute, raw)
        self._class_patches.clear()
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
        self._originals.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-boundary metrics: ``.calls``, ``.s``, ``.self_s``, extra count."""
        metrics: dict[str, float] = {}
        for boundary in BOUNDARIES:
            calls, busy, own, extra = self.totals[boundary.name]
            metrics[f"{boundary.name}.calls"] = calls
            metrics[f"{boundary.name}.s"] = busy
            if boundary.nests:
                metrics[f"{boundary.name}.self_s"] = own
            if boundary.extra is not None:
                metrics[f"{boundary.name}.{boundary.extra}"] = extra
        return metrics


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
