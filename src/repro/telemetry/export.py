"""Exporters: Prometheus text rendering and a background JSON-lines reporter.

Two export surfaces cover live operation and offline analysis:

* :func:`render_prometheus` turns a :class:`~.metrics.MetricsRegistry`
  into the Prometheus text exposition format (``# TYPE`` lines, labeled
  series, cumulative ``_bucket{le=...}`` histograms) -- paste-able behind
  any HTTP handler, and parseable by :func:`parse_prometheus_text` (used
  by the golden-file test and the CI smoke job);
* :class:`StatsReporter` appends a timestamped JSON snapshot to a file on
  a background thread at a fixed period -- flight-recorder output that
  survives the process.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from pathlib import Path
from typing import Callable

from ..exceptions import TelemetryError
from .metrics import LatencyHistogram, MetricsRegistry

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
#: The three escapes the Prometheus text format defines for label values.
#: Everything else -- including ``{``, ``}``, ``,``, spaces, and raw
#: carriage returns -- passes through verbatim inside the quotes, which is
#: why the parser below tokenizes label blocks instead of regexing to the
#: first ``}``.
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
_LABEL_UNESCAPES = {"\\": "\\", "n": "\n", '"': '"'}


def _sanitize_name(name: str) -> str:
    cleaned = _NAME_BAD_CHARS.sub("_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _render_labels(items: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{_sanitize_name(k)}="{_escape_label_value(v)}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def _format_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(bound)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (families name-sorted)."""
    lines: list[str] = []
    for family in registry.families():
        name = _sanitize_name(family.name)
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for items, metric in sorted(family.children.items()):
            if isinstance(metric, LatencyHistogram):
                pairs, total, count = metric.exposition()
                for bound, cumulative in pairs:
                    le = f'le="{_format_le(bound)}"'
                    lines.append(f"{name}_bucket{_render_labels(items, le)} {cumulative}")
                lines.append(f"{name}_sum{_render_labels(items)} {_format_value(total)}")
                lines.append(f"{name}_count{_render_labels(items)} {count}")
            else:
                lines.append(f"{name}{_render_labels(items)} {_format_value(metric.value)}")
    return "\n".join(lines) + "\n"


_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _parse_label_block(
    line: str, pos: int, lineno: int
) -> tuple[list[tuple[str, str]], int]:
    """Tokenize ``{k="v",...}`` starting at ``line[pos] == '{'``.

    Returns the (name, unescaped value) pairs in source order and the
    index just past the closing ``}``.  A regex can't do this: label
    values may legally contain ``}``, ``{``, ``,``, and spaces inside
    the quotes, so the closing brace is only found by walking the
    escapes.
    """
    items: list[tuple[str, str]] = []
    pos += 1  # consume '{'
    if pos < len(line) and line[pos] == "}":
        return items, pos + 1
    while True:
        match = _LABEL_NAME.match(line, pos)
        if match is None:
            raise TelemetryError(
                f"malformed label name on exposition line {lineno}: {line!r}"
            )
        key = match.group(0)
        pos = match.end()
        if pos + 1 >= len(line) or line[pos] != "=" or line[pos + 1] != '"':
            raise TelemetryError(
                f'expected ="value" after label {key!r} on exposition line {lineno}'
            )
        pos += 2  # consume '="'
        chars: list[str] = []
        while True:
            if pos >= len(line):
                raise TelemetryError(
                    f"unterminated label value on exposition line {lineno}: {line!r}"
                )
            ch = line[pos]
            if ch == "\\":
                if pos + 1 >= len(line):
                    raise TelemetryError(
                        f"dangling backslash on exposition line {lineno}: {line!r}"
                    )
                replacement = _LABEL_UNESCAPES.get(line[pos + 1])
                if replacement is None:
                    raise TelemetryError(
                        f"unknown escape \\{line[pos + 1]} on exposition line {lineno}"
                    )
                chars.append(replacement)
                pos += 2
            elif ch == '"':
                pos += 1
                break
            else:
                chars.append(ch)
                pos += 1
        items.append((key, "".join(chars)))
        if pos < len(line) and line[pos] == ",":
            pos += 1
            continue
        if pos < len(line) and line[pos] == "}":
            return items, pos + 1
        raise TelemetryError(
            f"expected ',' or '}}' after label value on exposition line {lineno}"
        )


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{series: value}`` (validation helper).

    Strict about what :func:`render_prometheus` emits: every non-comment
    line must be ``name[{labels}] value`` with a finite-or-special float
    value.  Label values are tokenized with full escape handling, so
    values containing ``}``, ``,``, quotes, backslashes, or newlines
    (escaped as ``\\n``) round-trip exactly; the series key is rebuilt by
    re-escaping, so it matches what :func:`render_prometheus` emitted.
    Raises :class:`~repro.exceptions.TelemetryError` on any malformed
    line, which is exactly what the CI smoke job wants to fail on.

    The text is split on ``\\n`` only -- a raw carriage return inside a
    quoted label value stays inside its line rather than splitting it
    (``str.splitlines`` would break there); a single trailing ``\\r`` per
    line is tolerated for CRLF transports.
    """
    series: dict[str, float] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        line = line.strip(" \t")
        if not line or line.startswith("#"):
            continue
        match = _METRIC_NAME.match(line)
        if match is None:
            raise TelemetryError(f"malformed exposition line {lineno}: {raw!r}")
        name = match.group(0)
        pos = match.end()
        if pos < len(line) and line[pos] == "{":
            items, pos = _parse_label_block(line, pos, lineno)
            labels = _render_labels(tuple(items))
        else:
            labels = ""
        rest = line[pos:]
        if not rest or rest[0] not in " \t":
            raise TelemetryError(f"malformed exposition line {lineno}: {raw!r}")
        value_text = rest.strip(" \t")
        if not value_text or " " in value_text or "\t" in value_text:
            raise TelemetryError(
                f"expected a single value on exposition line {lineno}: {raw!r}"
            )
        try:
            value = float(value_text)
        except ValueError as exc:
            raise TelemetryError(
                f"bad value on exposition line {lineno}: {value_text!r}"
            ) from exc
        key = name + labels
        if key in series:
            raise TelemetryError(f"duplicate series on line {lineno}: {key}")
        series[key] = value
    return series


class StatsReporter:
    """Appends a periodic JSON-lines snapshot to a file from a daemon thread.

    ``snapshot_fn`` is any zero-argument callable returning a JSON-ready
    mapping (typically ``Telemetry.snapshot`` or
    ``ServingFrontend.stats_snapshot``); each line gains ``ts`` (unix
    seconds) and ``elapsed_s`` since the reporter started.  A final
    snapshot is written on :meth:`stop`, so short runs still produce at
    least one line.

    ``fsync_period_s`` additionally fsyncs the file at most that often --
    flight-recorder durability across power loss without paying an fsync
    per line.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], dict],
        path: str | Path,
        period_s: float = 1.0,
        fsync_period_s: float | None = None,
    ) -> None:
        if not (math.isfinite(period_s) and period_s > 0):
            raise TelemetryError(
                f"period_s must be finite and positive, got {period_s}"
            )
        if fsync_period_s is not None and fsync_period_s < 0:
            raise TelemetryError(
                f"fsync_period_s must be >= 0, got {fsync_period_s}"
            )
        self._snapshot_fn = snapshot_fn
        self.path = Path(path)
        self._period_s = period_s
        self._fsync_period_s = fsync_period_s
        self._last_fsync = float("-inf")
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at = 0.0
        self._lines_written = 0
        self._write_lock = threading.Lock()

    def _write_line(self) -> None:
        payload = dict(self._snapshot_fn())
        payload["ts"] = time.time()
        payload["elapsed_s"] = round(time.perf_counter() - self._started_at, 6)
        line = json.dumps(payload, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        with self._write_lock:
            with self.path.open("ab") as handle:
                handle.write(data)
                if self._fsync_period_s is not None:
                    now = time.monotonic()
                    if now - self._last_fsync >= self._fsync_period_s:
                        handle.flush()
                        os.fsync(handle.fileno())
                        self._last_fsync = now
            self._lines_written += 1

    @property
    def lines_written(self) -> int:
        with self._write_lock:
            return self._lines_written

    def start(self) -> "StatsReporter":
        if self._thread is not None:
            raise TelemetryError("reporter already started")
        self._stop.clear()
        self._started_at = time.perf_counter()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._thread = threading.Thread(
            target=self._run, name="stats-reporter", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            self._write_line()

    def stop(self) -> int:
        """Stop the thread, write one final line, return total lines written."""
        if self._thread is None:
            return self.lines_written
        self._stop.set()
        self._thread.join()
        self._thread = None
        self._write_line()
        return self.lines_written

    def __enter__(self) -> "StatsReporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
