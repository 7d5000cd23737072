"""Run manifests: persisting and rendering one run's trace + metrics.

A *runlog* is a directory with two files:

``manifest.json``
    run-level provenance and the per-stage roll-up — run name, start
    time, total wall, git revision, Python version, the root span's
    attributes verbatim (the CLI stores the experiment-config SHA-256
    fingerprint there, computed by
    :func:`repro.serve.artifacts.config_fingerprint`), aggregated
    per-stage durations/calls, and a metrics snapshot (which carries the
    serve/cache hit rates when an engine ran under the trace);
``spans.jsonl``
    one JSON object per span, preorder — id, parent id, name, start
    time, wall/CPU seconds, thread, attributes, counters.  The flat
    parent-pointer form keeps the file streamable and diff-able.

:func:`write_runlog` serialises a closed root span (from
:func:`repro.obs.trace.stop_trace`); :func:`read_runlog` loads a
directory back; :func:`render_runlog` draws the stage tree that
``repro obs show <runlog>`` prints, aggregating same-named sibling spans
into one row (calls × total wall) so a thousand per-utterance decode
spans render as a single line.

Everything here is stdlib-only; the fingerprint is *received*, never
computed, so this module stays importable without numpy.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

from repro.obs.trace import Span

__all__ = [
    "RUNLOG_SCHEMA",
    "MANIFEST_FILE",
    "SPANS_FILE",
    "RUNLOG_DIR_ENV",
    "RunLog",
    "git_revision",
    "default_runlog_root",
    "aggregate_stages",
    "write_runlog",
    "read_runlog",
    "render_runlog",
]

#: Runlog layout version; bump on any incompatible change.
RUNLOG_SCHEMA = "repro.obs/1"

MANIFEST_FILE = "manifest.json"
SPANS_FILE = "spans.jsonl"

#: Environment variable overriding where CLI runlogs are written.
RUNLOG_DIR_ENV = "REPRO_RUNLOG_DIR"


def git_revision(cwd: str | Path | None = None) -> str | None:
    """The git commit hash of ``cwd``, or ``None`` outside a work tree.

    ``cwd`` defaults to this package's own directory, so a run launched
    from anywhere records the revision of the code it ran.
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def default_runlog_root() -> Path:
    """Directory runlogs default into (``REPRO_RUNLOG_DIR`` or runlogs/)."""
    return Path(os.environ.get(RUNLOG_DIR_ENV, "runlogs"))


def aggregate_stages(records: list[dict]) -> dict[str, dict[str, Any]]:
    """Roll span records up by name: calls, wall/CPU totals, audio.

    This is the manifest's ``stages`` table — a flat per-stage-name
    account that answers "where did the run spend its time" without
    reading the span tree.  The ``audio_s`` counter (recorded by the
    pipeline's and the scoring engine's Table 5 stage spans) is summed
    when present so real-time factors can be recomputed from the
    manifest alone.
    """
    stages: dict[str, dict[str, Any]] = {}
    for rec in records:
        entry = stages.setdefault(
            rec["name"], {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        entry["calls"] += 1
        if rec.get("wall_s") is not None:
            entry["wall_s"] += rec["wall_s"]
        if rec.get("cpu_s") is not None:
            entry["cpu_s"] += rec["cpu_s"]
        audio = rec.get("counters", {}).get("audio_s")
        if audio:
            entry["audio_s"] = entry.get("audio_s", 0.0) + audio
    return stages


@dataclasses.dataclass
class RunLog:
    """A loaded runlog: manifest dict + flat span records + source path."""

    path: Path
    manifest: dict[str, Any]
    spans: list[dict[str, Any]]

    @property
    def name(self) -> str:
        """The run name (root span name)."""
        return str(self.manifest.get("name", "run"))

    def stage_names(self) -> list[str]:
        """Names in the manifest's per-stage roll-up."""
        return sorted(self.manifest.get("stages", {}))


def write_runlog(
    directory: str | Path,
    root: Span,
    *,
    metrics: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Persist a closed span tree (+ optional metrics) to ``directory``.

    ``extra`` entries are merged into the manifest top level (the CLI
    records the command line there).  Returns the runlog directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = [sp.to_record() for sp in root.walk()]
    with open(directory / SPANS_FILE, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    manifest: dict[str, Any] = {
        "schema": RUNLOG_SCHEMA,
        "name": root.name,
        "created_unix": root.start_unix,
        "wall_s": root.wall_s,
        "python": sys.version.split()[0],
        "git_rev": git_revision(),
        "attrs": dict(root.attrs),
        "n_spans": len(records),
        "stages": aggregate_stages(records[1:]),  # exclude the root itself
        "metrics": metrics or {},
    }
    if extra:
        manifest.update(extra)
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2))
    return directory


def read_runlog(path: str | Path) -> RunLog:
    """Load a runlog directory (or its ``manifest.json``) back.

    Raises ``FileNotFoundError`` for a missing manifest and
    ``ValueError`` for an unsupported schema.
    """
    path = Path(path)
    directory = path.parent if path.name == MANIFEST_FILE else path
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"no runlog manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    schema = manifest.get("schema")
    if schema != RUNLOG_SCHEMA:
        raise ValueError(
            f"runlog schema {schema!r} unsupported "
            f"(this build reads {RUNLOG_SCHEMA!r})"
        )
    spans: list[dict[str, Any]] = []
    spans_path = directory / SPANS_FILE
    if spans_path.exists():
        with open(spans_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return RunLog(path=directory, manifest=manifest, spans=spans)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 100.0:
        return f"{value:.0f}s"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def _fmt_notes(counters: dict[str, float], attrs: dict[str, Any]) -> str:
    parts: list[str] = []
    for key in sorted(counters):
        value = counters[key]
        if value == int(value):
            parts.append(f"{key}={int(value)}")
        else:
            parts.append(f"{key}={value:.3g}")
    for key in sorted(attrs):
        parts.append(f"{key}={attrs[key]}")
    return " ".join(parts)


def render_runlog(run: RunLog, *, max_depth: int | None = None) -> str:
    """Human-readable stage tree of a runlog (the ``obs show`` output).

    Same-named sibling spans collapse into one aggregated row (call
    count, summed wall/CPU, summed counters); attributes are shown only
    for singleton rows where they are unambiguous.  ``max_depth`` bounds
    the tree depth (``None`` = unlimited).
    """
    manifest = run.manifest
    lines: list[str] = []
    created = manifest.get("created_unix")
    header = f"run: {run.name}"
    if manifest.get("wall_s") is not None:
        header += f"   wall {_fmt_seconds(manifest['wall_s'])}"
    lines.append(header)
    meta_bits = []
    if created is not None:
        import time as _time

        meta_bits.append(
            _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(created))
        )
    if manifest.get("git_rev"):
        meta_bits.append(f"git {str(manifest['git_rev'])[:12]}")
    if manifest.get("python"):
        meta_bits.append(f"python {manifest['python']}")
    fingerprint = manifest.get("attrs", {}).get("config_sha256")
    if fingerprint:
        meta_bits.append(f"config {str(fingerprint)[:12]}…")
    if meta_bits:
        lines.append("  " + "  ".join(meta_bits))
    lines.append(f"  spans: {manifest.get('n_spans', len(run.spans))}")
    lines.append("")

    by_id = {rec["id"]: rec for rec in run.spans}
    children: dict[Any, list[dict]] = {}
    roots: list[dict] = []
    for rec in run.spans:
        parent = rec.get("parent")
        if parent is None or parent not in by_id:
            roots.append(rec)
        else:
            children.setdefault(parent, []).append(rec)

    name_w = 44
    lines.append(
        f"{'stage':<{name_w}}{'calls':>7}{'wall':>10}{'cpu':>10}{'%par':>7}  notes"
    )
    lines.append("-" * (name_w + 34 + 8))

    def emit(members: list[dict], depth: int, parent_wall: float | None) -> None:
        if max_depth is not None and depth > max_depth:
            return
        groups: dict[str, list[dict]] = {}
        for rec in members:
            groups.setdefault(rec["name"], []).append(rec)
        for name, group in groups.items():
            walls = [r["wall_s"] for r in group if r.get("wall_s") is not None]
            cpus = [r["cpu_s"] for r in group if r.get("cpu_s") is not None]
            wall = sum(walls) if walls else None
            cpu = sum(cpus) if cpus else None
            counters: dict[str, float] = {}
            for rec in group:
                for key, value in rec.get("counters", {}).items():
                    counters[key] = counters.get(key, 0.0) + value
            attrs = dict(group[0].get("attrs", {})) if len(group) == 1 else {}
            pct = (
                f"{100.0 * wall / parent_wall:.0f}%"
                if wall is not None and parent_wall
                else "-"
            )
            indent = "  " * depth
            label = f"{indent}{name}"
            if len(label) > name_w - 1:
                label = label[: name_w - 2] + "…"
            lines.append(
                f"{label:<{name_w}}{len(group):>7}{_fmt_seconds(wall):>10}"
                f"{_fmt_seconds(cpu):>10}{pct:>7}  {_fmt_notes(counters, attrs)}"
                .rstrip()
            )
            grandchildren: list[dict] = []
            for rec in group:
                grandchildren.extend(children.get(rec["id"], []))
            if grandchildren:
                emit(grandchildren, depth + 1, wall)

    for root_rec in roots:
        wall = root_rec.get("wall_s")
        label = root_rec["name"]
        if len(label) > name_w - 1:
            label = label[: name_w - 2] + "…"
        lines.append(
            f"{label:<{name_w}}{1:>7}{_fmt_seconds(wall):>10}"
            f"{_fmt_seconds(root_rec.get('cpu_s')):>10}{'':>7}  "
            f"{_fmt_notes(root_rec.get('counters', {}), {})}".rstrip()
        )
        emit(children.get(root_rec["id"], []), 1, wall)

    stages = manifest.get("stages", {})
    if stages:
        lines.append("")
        lines.append("per-stage roll-up (manifest):")
        lines.append(
            f"  {'stage':<24}{'calls':>7}{'wall':>10}{'audio':>10}{'rtf':>10}"
        )
        for name in sorted(stages, key=lambda n: -stages[n].get("wall_s", 0.0)):
            entry = stages[name]
            audio = entry.get("audio_s")
            # Significant digits: confusion-frontend RTFs are ~1e-5.
            rtf = (
                f"{entry.get('wall_s', 0.0) / audio:.3g}"
                if audio
                else "-"
            )
            lines.append(
                f"  {name:<24}{entry.get('calls', 0):>7}"
                f"{_fmt_seconds(entry.get('wall_s')):>10}"
                f"{_fmt_seconds(audio):>10}{rtf:>10}"
            )
    return "\n".join(lines)
