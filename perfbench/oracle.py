"""An answer oracle that does not run the SQL engine.

It re-evaluates each :class:`~perfbench.workloads.QuerySpec` straight from
the xSEED files: station directories are globbed, record headers are read
with ``repro.mseed.scan_headers`` and payloads decoded with
``repro.mseed.read_records``; the joins and filters are numpy masks. It
shares with the engine only the file format readers, none of the catalog,
planner, executor, mount or cache code.

Answers are compared by *fingerprint*, so the timed phase keeps a few
integers per query instead of every row: a ``rows`` answer becomes its row
count plus an order-independent 64-bit multiset hash of its
(sample_time, sample_value) pairs; an ``avg`` answer is the float itself.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional

import numpy as np

from repro.mseed import read_records, scan_headers

from .workloads import AVG, QuerySpec

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xC2B2AE3D27D4EB4F)
_K3 = np.uint64(0x165667B19E3779F9)

Fingerprint = tuple  # ("avg", value) or ("rows", count, hash)


def rows_fingerprint(times: np.ndarray, values: np.ndarray) -> Fingerprint:
    """Order-independent fingerprint of a multiset of (time, value) rows."""
    t = np.ascontiguousarray(times, dtype=np.int64).view(np.uint64)
    v = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    with np.errstate(over="ignore"):
        mixed = (t * _K1) ^ (v * _K2)
        mixed ^= mixed >> np.uint64(29)
        mixed *= _K3
        mixed ^= mixed >> np.uint64(32)
    return ("rows", int(len(t)), int(mixed.sum(dtype=np.uint64)))


def answer_fingerprint(kind: str, result) -> Fingerprint:
    """Fingerprint of the program's answer (a ``TwoStageResult``)."""
    batch = result.result.batch
    if kind == AVG:
        value = batch.columns[0].to_pylist()[0] if batch.num_rows else None
        return ("avg", None if value is None else float(value))
    return rows_fingerprint(batch.columns[0].values, batch.columns[1].values)


def matches(expected: Fingerprint, actual: Fingerprint) -> bool:
    if expected[0] != actual[0]:
        return False
    if expected[0] == "avg":
        a, b = expected[1], actual[1]
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return expected == actual


class Oracle:
    """Expected answers for one archive, decoding each file at most once."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._station_files: dict[str, list[Path]] = {}
        self._headers: dict[Path, list] = {}
        self._decoded: dict[Path, list[tuple[int, np.ndarray, np.ndarray]]] = {}

    def _files_of(self, station: str) -> list[Path]:
        if station not in self._station_files:
            self._station_files[station] = sorted(
                self.root.glob(f"*/*.{station}/*.xseed")
            )
        return self._station_files[station]

    def _records(self, path: Path) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(record start, sample times, sample values) of every record."""
        if path not in self._decoded:
            self._decoded[path] = [
                (
                    record.header.start_time,
                    record.sample_times(),
                    record.samples.astype(np.float64),
                )
                for record in read_records(path)
            ]
        return self._decoded[path]

    def expected(self, query: QuerySpec) -> Fingerprint:
        times: list[np.ndarray] = []
        values: list[np.ndarray] = []
        for path in self._files_of(query.station):
            if path not in self._headers:
                self._headers[path] = scan_headers(path)
            headers = self._headers[path]
            first = headers[0]
            if first.station != query.station or (
                query.channel is not None and first.channel != query.channel
            ):
                continue
            if not any(
                query.record_lo < h.start_time < query.record_hi
                for h in headers
            ):
                continue
            for start, t, v in self._records(path):
                if not query.record_lo < start < query.record_hi:
                    continue
                keep = (t > query.sample_lo) & (t < query.sample_hi)
                times.append(t[keep])
                values.append(v[keep])
        t_all = np.concatenate(times) if times else np.empty(0, np.int64)
        v_all = np.concatenate(values) if values else np.empty(0, np.float64)
        if query.kind == AVG:
            return ("avg", float(v_all.mean()) if len(v_all) else None)
        return rows_fingerprint(t_all, v_all)

    def check(self, query: QuerySpec, actual: Fingerprint) -> bool:
        return matches(self.expected(query), actual)


def first_mismatch(
    oracle: Oracle, answers: list[tuple[QuerySpec, Fingerprint]]
) -> tuple[int, Optional[str]]:
    """Count wrong answers; also describe the first one (None if all right)."""
    wrong = 0
    first: Optional[str] = None
    for query, actual in answers:
        expected = oracle.expected(query)
        if not matches(expected, actual):
            wrong += 1
            if first is None:
                first = f"expected {expected}, got {actual} for:\n{query.sql}"
    return wrong, first
