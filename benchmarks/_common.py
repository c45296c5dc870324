"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment from DESIGN.md's index: it
logs a result table (visible with ``pytest -s`` / when running the file
as a script) and persists it under ``benchmarks/results/`` so
EXPERIMENTS.md can reference the measured rows.

:func:`emit_json` is the machine-readable companion: it writes a
``benchmarks/results/<name>.json`` record and can embed a snapshot of the
global :class:`repro.obs.MetricsRegistry`, so CI artifacts carry the
cache/store/serving counters observed during the run alongside the
benchmark's own numbers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.bench import Table

RESULTS_DIR = Path(__file__).parent / "results"

# Benchmarks are applications (not library code): route their diagnostics
# through the repro.* logging hierarchy and make them visible by default.
obs.setup_logging()
_LOG = obs.get_logger("repro.benchmarks")


def emit(table: Table, name: str) -> None:
    """Log a result table and persist it to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = table.render()
    _LOG.info("%s\n%s", name, text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def emit_json(
    name: str,
    payload: dict[str, Any],
    metrics: bool = False,
    dtype=None,
    rank_metrics: dict[str, Any] | None = None,
    prometheus: bool = False,
) -> Path:
    """Persist a machine-readable record to ``benchmarks/results/<name>.json``.

    With ``metrics=True`` the current global
    :meth:`repro.obs.MetricsRegistry.snapshot` is embedded under a
    ``"metrics"`` key — counters from live sources (operator cache,
    propagation engine, serving stores) accumulate whether or not tracing
    is enabled, so the artifact records what the benchmark actually
    exercised.

    ``dtype`` records the element type the benchmark ran at (a
    ``"dtype"`` key, e.g. ``"float32"``).

    ``rank_metrics`` embeds per-rank registry dumps from a distributed
    run (e.g. ``BackendResult.rank_metrics``) under a ``"rank_metrics"``
    key, so the artifact keeps each child process's counters alongside
    the coordinator's.

    ``prometheus=True`` additionally writes the embedded snapshot (or
    the live registry when ``metrics`` is off) in Prometheus text
    exposition format to ``benchmarks/results/<name>.prom``; the output
    is linted with :func:`repro.obs.telemetry.lint_prometheus` and any
    violation raises — a CI artifact that scrapers cannot parse is a
    benchmark failure, not a warning.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = dict(payload)
    if dtype is not None:
        record["dtype"] = np.dtype(dtype).name
    if metrics:
        record["metrics"] = obs.get_registry().snapshot()
    if rank_metrics is not None:
        record["rank_metrics"] = rank_metrics
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(
        json.dumps(record, indent=2, default=_jsonable) + "\n",
        encoding="utf-8",
    )
    _LOG.info("wrote %s", path)
    if prometheus:
        from repro.obs.telemetry import lint_prometheus, to_prometheus

        snapshot = record.get("metrics")
        if snapshot is None:
            snapshot = obs.get_registry().snapshot()
        text = to_prometheus(snapshot, extra_labels={"benchmark": name})
        errors = lint_prometheus(text)
        if errors:
            raise ValueError(
                f"{name}: Prometheus exposition failed lint: {errors[:5]}"
            )
        prom_path = RESULTS_DIR / f"{name}.prom"
        prom_path.write_text(text, encoding="utf-8")
        _LOG.info("wrote %s", prom_path)
    return path


def _jsonable(value: Any):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")
