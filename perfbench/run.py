"""Run one benchmark workload: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, from the repository root.

This parent process generates the workload's archive on first use (once per
checkout, cached under ``.perfbench_archives/``), then runs the measurement
in a fresh interpreter with a fixed ``PYTHONHASHSEED`` and relays its JSON
result as the last line of standard output. Archive generation therefore
never counts toward set-up time or peak memory. Any failure exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore-5k", "mount-120", "serve-skewed")


def child_timeout_s(seconds: float) -> float:
    """The measured interpreter's time limit: the clock, plus set-ups, the
    untimed count prefix and the oracle, with a margin. It is 170 s for the
    40 s runs ``BENCHMARK.json`` asks for."""
    return 2 * seconds + 90


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"no program source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CHECKOUT / "src"), str(CHECKOUT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    # Generate (or find) the archive here, outside the measured interpreter.
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench.archives import archive_for

    archive_for(args.workload, CHECKOUT)
    command = [
        sys.executable, "-m", "perfbench.bench",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--checkout", str(CHECKOUT),
    ]
    try:
        child = subprocess.run(
            command, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=child_timeout_s(args.seconds),
        )
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout)
        return child.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
