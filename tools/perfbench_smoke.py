#!/usr/bin/env python3
"""Run every perfbench workload briefly and check its verdict (CI step).

Usage, from the repository root::

    python3 tools/perfbench_smoke.py [--seconds 3]

Each workload of ``perfbench/run.py`` runs once, traced, with seed 1
for ``--seconds``.  The last stdout line of every run must be a JSON
result with ``correct: true`` and ``failed: 0``; a decoder change that
breaks a workload's table check therefore fails here, not only when the
benchmark itself is run.

Exit status: 0 when every workload passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = (
    "campaign_cold", "campaign_warm", "campaign_acoustic", "serve_open_loop",
)


def run_workload(name: str, seconds: float) -> str | None:
    """Run one workload; ``None`` if it passed, else what went wrong."""
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "perfbench" / "run.py"),
            "--workload", name, "--seed", "1",
            "--seconds", str(seconds), "--trace", "1",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}\n{proc.stderr[-2000:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last stdout line is not JSON: {lines[-1]!r}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (
            f"correct={result.get('correct')} failed={result.get('failed')}"
            f" of {result.get('attempted')}\n{proc.stderr[-2000:]}"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    failures = 0
    for name in WORKLOADS:
        problem = run_workload(name, args.seconds)
        print(f"{name}: {'ok' if problem is None else 'FAILED ' + problem}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
