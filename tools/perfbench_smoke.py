#!/usr/bin/env python3
"""Run every perfbench workload briefly and check its verdict (CI step).

Usage, from the repository root::

    python3 tools/perfbench_smoke.py [--seconds 3]

Each workload of ``perfbench/run.py`` runs once, traced, with seed 1
for ``--seconds``.  The last stdout line of every run must be a JSON
result with ``correct: true`` and ``failed: 0``; a decoder change that
breaks a workload's table check therefore fails here, not only when the
benchmark itself is run.

The deterministic per-op counters of each traced run (``stages_run``,
``supervectors``, ``decoder_frames``, ``store_hits``) must also match
``perfbench_counters.json`` beside this script.  A number there is
exact.  A ``[low, high]`` pair is an inclusive range, for a counter
whose per-op mean depends on how many ops fit in the window: the
acoustic corpora of seed 1 decode 3936, 4014 and 3942 frames per op,
and a served request extracts one supervector per frontend (6) unless
the score cache answers it.  ``sv_nnz_mean`` is a window mean over
corpora of different sizes and is not checked.

Exit status: 0 when every workload passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXPECTED_COUNTERS = Path(__file__).with_name("perfbench_counters.json")
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
    return counter_mismatches(name, result["metrics"])


def counter_mismatches(name: str, metrics: dict) -> str | None:
    """``None`` if every expected counter of ``name`` holds, else which not."""
    expected = json.loads(EXPECTED_COUNTERS.read_text())[name]
    wrong = []
    for counter, want in expected.items():
        low, high = want if isinstance(want, list) else (want, want)
        got = metrics[counter]["value"]
        if not low <= got <= high:
            wrong.append(f"{counter}={got} (expected {want})")
    return "counters " + ", ".join(wrong) if wrong else None


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
