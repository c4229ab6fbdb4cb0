"""Seeded query generation for the three workloads.

The benchmark writes every SQL string itself; the program under test only
ever receives those strings. Nothing here calls ``repro.explore.workload``
or ``repro.serve.driver``, so a change to the program cannot change the
load it is measured under.

Each workload separates its *shape* from its *draws*. The shape — step
kinds, window widths, record-window lengths, the popularity-rank sequence —
is fixed, so every seed asks for the same amount of work. The seed draws
the concrete stations, channels, days, window positions and the rank→file
assignment, so another seed sends different SQL of the same shape.
"""

from __future__ import annotations

import datetime as _dt
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.mseed.synthesize import RepositorySpec

SECOND_US = 1_000_000
HOUR_US = 3_600 * SECOND_US
DAY_US = 24 * HOUR_US

AVG = "avg"  # Query 1: one channel, AVG(D.sample_value)
ROWS = "rows"  # Query 2: all channels of a station, (sample_time, sample_value)

_EPOCH = _dt.datetime(1970, 1, 1)


@dataclass(frozen=True)
class QuerySpec:
    """One query: its SQL plus the bounds the oracle re-evaluates.

    All four bounds are exclusive, as in the SQL: records with
    ``record_lo < R.start_time < record_hi`` and samples with
    ``sample_lo < D.sample_time < sample_hi``.
    """

    kind: str
    station: str
    channel: Optional[str]  # None: every channel of the station
    record_lo: int
    record_hi: int
    sample_lo: int
    sample_hi: int
    step: str

    @property
    def sql(self) -> str:
        select = (
            "AVG(D.sample_value)"
            if self.kind == AVG
            else "D.sample_time, D.sample_value"
        )
        where = [f"F.station = '{self.station}'"]
        if self.channel is not None:
            where.append(f"F.channel = '{self.channel}'")
        where += [
            f"R.start_time > '{iso(self.record_lo)}'",
            f"R.start_time < '{iso(self.record_hi)}'",
            f"D.sample_time > '{iso(self.sample_lo)}'",
            f"D.sample_time < '{iso(self.sample_hi)}'",
        ]
        return (
            f"SELECT {select}\n"
            "FROM F JOIN R ON F.uri = R.uri\n"
            "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id\n"
            "WHERE " + "\nAND ".join(where)
        )


def iso(micros: int) -> str:
    """Epoch microseconds as a timestamp literal (own formatter, not the
    program's, so a parser bug shows as a wrong answer)."""
    moment = _EPOCH + _dt.timedelta(microseconds=int(micros))
    if micros % SECOND_US:
        return moment.strftime("%Y-%m-%dT%H:%M:%S.%f")
    return moment.strftime("%Y-%m-%dT%H:%M:%S")


def day_start(spec: RepositorySpec, day_index: int) -> int:
    first = _dt.datetime.fromisoformat(spec.start_day)
    return int((first - _EPOCH).total_seconds()) * SECOND_US + day_index * DAY_US


def _day_window(spec: RepositorySpec, day_index: int, days: int = 1) -> tuple[int, int]:
    """Exclusive R.start_time bounds selecting ``days`` days of records."""
    lo = day_start(spec, day_index)
    return lo, lo + days * DAY_US - 1_000


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# -- explore-5k ------------------------------------------------------------------

# One exploration session: a quick look, zooms in and out around the focus,
# two moves to a new focus. (step, query shape, sample-window seconds).
SESSION_SHAPE: tuple[tuple[str, str, int], ...] = (
    ("quick_look", AVG, 3600),
    ("zoom_in", ROWS, 1800),
    ("zoom_in", ROWS, 900),
    ("zoom_out", ROWS, 3600),
    ("zoom_out", ROWS, 7200),
    ("move_on", AVG, 3600),
    ("zoom_in", ROWS, 1800),
    ("zoom_in", AVG, 900),
    ("zoom_out", ROWS, 3600),
    ("move_on", AVG, 3600),
    ("zoom_in", ROWS, 1800),
    ("zoom_out", ROWS, 3600),
)


def explore_session(spec: RepositorySpec, seed: int, index: int) -> list[QuerySpec]:
    """Session ``index`` of the seeded explore-5k sequence."""
    rng = _rng(seed, 1, index)
    queries: list[QuerySpec] = []
    focus = None
    for step, kind, window_s in SESSION_SHAPE:
        if focus is None or step == "move_on":
            day = int(rng.integers(spec.days))
            # Centres stay >= 2 h from midnight: every window fits its day.
            center = day_start(spec, day) + int(
                rng.integers(2 * 3600, 22 * 3600)
            ) * SECOND_US
            focus = (
                spec.stations[int(rng.integers(len(spec.stations)))],
                spec.channels[int(rng.integers(len(spec.channels)))],
                day,
                center,
            )
        station, channel, day, center = focus
        record_lo, record_hi = _day_window(spec, day)
        half = window_s * SECOND_US // 2
        queries.append(
            QuerySpec(
                kind=kind,
                station=station,
                channel=channel if kind == AVG else None,
                record_lo=record_lo,
                record_hi=record_hi,
                sample_lo=center - half,
                sample_hi=center + half,
                step=step,
            )
        )
    return queries


def explore_sessions(spec: RepositorySpec, seed: int) -> Iterator[list[QuerySpec]]:
    return (explore_session(spec, seed, index) for index in itertools.count())


# -- mount-120 -------------------------------------------------------------------

# (record-window days, sample-window hours), cycled: 3 channels x 2-6 days
# of candidate files (12 mounts per query on average), 1-12 h of samples.
MOUNT_SHAPE: tuple[tuple[int, int], ...] = (
    (2, 1), (4, 6), (6, 12), (3, 3), (5, 9),
    (4, 2), (2, 8), (6, 4), (5, 12), (3, 5),
)


def mount_query(spec: RepositorySpec, seed: int, index: int) -> QuerySpec:
    """Query ``index`` of the seeded mount-120 sequence (Query 2's shape)."""
    days, hours = MOUNT_SHAPE[index % len(MOUNT_SHAPE)]
    return _mount_query(spec, _rng(seed, 2, index), days, hours)


def mount_first_query(spec: RepositorySpec, seed: int, k: int) -> QuerySpec:
    """The first query of the ``k``-th fresh engine, always of one shape: 4
    days of records and a 6 h window starting 1 h into a record (never the
    first, which ``R.start_time >`` excludes). Every such query decodes the
    same number of records, so the median over engines measures the engine,
    not the draw."""
    days, width = 4, 6 * HOUR_US
    rng = _rng(seed, 5, k)
    first_day = int(rng.integers(spec.days - days + 1))
    record_lo, record_hi = _day_window(spec, first_day, days)
    record_us = round(spec.samples_per_record / spec.sample_rate) * SECOND_US
    last_record = (record_hi - record_lo - width - HOUR_US) // record_us
    start = record_lo + int(rng.integers(1, last_record + 1)) * record_us + HOUR_US
    return QuerySpec(
        kind=ROWS,
        station=spec.stations[int(rng.integers(len(spec.stations)))],
        channel=None,
        record_lo=record_lo,
        record_hi=record_hi,
        sample_lo=start,
        sample_hi=start + width,
        step="first",
    )


def _mount_query(
    spec: RepositorySpec, rng: np.random.Generator, days: int, hours: int
) -> QuerySpec:
    first_day = int(rng.integers(spec.days - days + 1))
    record_lo, record_hi = _day_window(spec, first_day, days)
    width = hours * HOUR_US
    start = record_lo + int(
        rng.integers((record_hi - record_lo - width) // SECOND_US)
    ) * SECOND_US
    return QuerySpec(
        kind=ROWS,
        station=spec.stations[int(rng.integers(len(spec.stations)))],
        channel=None,
        record_lo=record_lo,
        record_hi=record_hi,
        sample_lo=start,
        sample_hi=start + width,
        step="window",
    )


def mount_queries(spec: RepositorySpec, seed: int) -> Iterator[QuerySpec]:
    return (mount_query(spec, seed, index) for index in itertools.count())


# -- serve-skewed ----------------------------------------------------------------

# How the load splits between the two paths it exercises was measured, not
# assumed (perfbench/README.md, "serve-skewed's traffic"). Both clients ask
# for the same file, so every extraction serves both, and a query is read
# from cache only when an earlier, wider window around the same moment
# covers it. CENTERS_PER_FILE sets that split: over the first 800 queries,
# 1 centre gave 70% cache scans, 3 gave 17-29% and 6 gave 11%. Exponents
# from 0.8 to 1.4 stayed within the same 17-29%.
ZIPF_EXPONENT = 1.1
CLIENTS = 2
# Outer sample-window hours, cycled: Query 1 windows of 1-6 h, the range of
# the exploration walks' windows. The second client asks a nested window of
# half the width inside the first's.
SERVE_WIDTHS_H = (1, 3, 2, 6, 4, 2)
CENTERS_PER_FILE = 3  # each file has a few "interesting" moments
# Popularity ranks come from a fixed stream: the skew is the shape, the
# seed only decides which file holds which rank.
_RANK_STREAM = 9_001


def serve_first_queries(spec: RepositorySpec, seed: int, count: int) -> list[QuerySpec]:
    """First queries for ``count`` fresh services: the first client's query
    of every step with the same (first) window width."""
    stride = len(SERVE_WIDTHS_H)
    steps = itertools.islice(serve_steps(spec, seed), 0, count * stride, stride)
    return [step[0] for step in steps]


def serve_files(spec: RepositorySpec) -> list[tuple[str, str, int]]:
    """Every (station, channel, day) file of the archive, in a fixed order."""
    return [
        (station, channel, day)
        for day in range(spec.days)
        for station in spec.stations
        for channel in spec.channels
    ]


def zipf_ranks(files: int) -> Iterator[int]:
    """The popularity rank of each step's file; the same for every seed."""
    weights = 1.0 / np.arange(1, files + 1) ** ZIPF_EXPONENT
    rng = np.random.default_rng(_RANK_STREAM)
    while True:
        yield from rng.choice(files, size=4096, p=weights / weights.sum())


def serve_steps(spec: RepositorySpec, seed: int) -> Iterator[tuple[QuerySpec, ...]]:
    """Closed-loop steps: one query per client, all on the same file."""
    files = serve_files(spec)
    rng = _rng(seed, 3)
    by_rank = rng.permutation(len(files))
    centers = rng.integers(
        3 * 3600, 21 * 3600, size=(len(files), CENTERS_PER_FILE)
    )
    for step, rank in enumerate(zipf_ranks(len(files))):
        file_index = int(by_rank[rank])
        station, channel, day = files[file_index]
        record_lo, record_hi = _day_window(spec, day)
        step_rng = _rng(seed, 4, step)
        center = day_start(spec, day) + int(
            centers[file_index, int(step_rng.integers(CENTERS_PER_FILE))]
        ) * SECOND_US
        half = SERVE_WIDTHS_H[step % len(SERVE_WIDTHS_H)] * HOUR_US // 2
        offset = int(step_rng.integers(-half // 2, half // 2 + 1)) // SECOND_US
        inner = center + offset * SECOND_US
        windows = (
            (center - half, center + half),
            (inner - half // 2, inner + half // 2),
        )
        yield tuple(
            QuerySpec(
                kind=AVG,
                station=station,
                channel=channel,
                record_lo=record_lo,
                record_hi=record_hi,
                sample_lo=lo,
                sample_hi=hi,
                step=f"client{client}",
            )
            for client, (lo, hi) in enumerate(windows)
        )
