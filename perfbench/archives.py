"""The benchmark's two synthetic archives, generated once per checkout.

Both are deterministic functions of their :class:`RepositorySpec`, so the
harness's spec-digest cache (``materialize_repository``) is reused: a run
finds the archive already on disk and never regenerates it. Generation runs
in ``run.py``'s parent process, before the measured interpreter starts, so
neither its time nor its memory shows in any metric.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.setup import default_spec, materialize_repository
from repro.mseed.repository import FileRepository
from repro.mseed.synthesize import RepositorySpec

# Generated archives live in the checkout, never in a system temp dir.
CACHE_DIRNAME = ".perfbench_archives"

EXPLORE_STATIONS = tuple(f"S{i:03d}" for i in range(125))
EXPLORE_CHANNELS = ("BHE", "BHN", "BHZ", "HHE", "HHZ")


def explore_spec() -> RepositorySpec:
    """The paper's Figure 3 scale: 125 stations x 5 channels x 8 days."""
    return RepositorySpec(
        stations=EXPLORE_STATIONS,
        channels=EXPLORE_CHANNELS,
        days=8,
        sample_rate=0.05,
        samples_per_record=360,
    )


# workload name -> (spec factory, exact file count the archive must have)
ARCHIVES = {
    "explore-5k": (explore_spec, 5000),
    "mount-120": (default_spec, 120),
    "serve-skewed": (default_spec, 120),
}


def spec_for(workload: str) -> RepositorySpec:
    return ARCHIVES[workload][0]()


def archive_for(workload: str, checkout: Path) -> FileRepository:
    """The workload's archive, generated on first use; file count checked."""
    factory, expected = ARCHIVES[workload]
    repository = materialize_repository(factory(), checkout / CACHE_DIRNAME)
    found = len(repository.uris())
    if found != expected:
        raise RuntimeError(
            f"{workload}: archive at {repository.root} has {found} files, "
            f"expected {expected}; delete it to regenerate"
        )
    return repository
