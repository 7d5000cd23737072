"""Runlog persistence: JSONL round-trip, manifests, rendering, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    read_runlog,
    render_runlog,
    trace,
    write_runlog,
)
from repro.obs.runlog import (
    MANIFEST_FILE,
    RUNLOG_SCHEMA,
    SPANS_FILE,
    RunLog,
    aggregate_stages,
    default_runlog_root,
    git_revision,
)

SAMPLE = Path(__file__).parent.parent / "data" / "sample_runlog"


def _tiny_root():
    """A small closed trace with two stages and counters."""
    trace.start_trace("unit-run")
    trace.annotate_root(config_sha256="deadbeef")
    with trace.span("decoding") as sp:
        sp.inc("audio_s", 30.0)
    with trace.span("decoding") as sp:
        sp.inc("audio_s", 12.0)
    with trace.span("fusion", subsystems=2):
        pass
    return trace.stop_trace()


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        root = _tiny_root()
        path = write_runlog(
            tmp_path / "log", root, metrics={"c": {"type": "counter", "value": 1}}
        )
        run = read_runlog(path)
        assert run.name == "unit-run"
        assert run.manifest["schema"] == RUNLOG_SCHEMA
        assert run.manifest["attrs"]["config_sha256"] == "deadbeef"
        assert run.manifest["metrics"]["c"]["value"] == 1
        assert run.manifest["n_spans"] == len(run.spans) == 4

    def test_spans_jsonl_is_one_record_per_line(self, tmp_path):
        path = write_runlog(tmp_path / "log", _tiny_root())
        lines = (path / SPANS_FILE).read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == [
            "unit-run",
            "decoding",
            "decoding",
            "fusion",
        ]
        root_rec = records[0]
        assert root_rec["parent"] is None
        assert all(r["parent"] == root_rec["id"] for r in records[1:])

    def test_read_accepts_manifest_path(self, tmp_path):
        path = write_runlog(tmp_path / "log", _tiny_root())
        run = read_runlog(path / MANIFEST_FILE)
        assert run.path == path

    def test_manifest_stages_exclude_root(self, tmp_path):
        path = write_runlog(tmp_path / "log", _tiny_root())
        run = read_runlog(path)
        assert run.stage_names() == ["decoding", "fusion"]
        decoding = run.manifest["stages"]["decoding"]
        assert decoding["calls"] == 2
        assert decoding["audio_s"] == pytest.approx(42.0)

    def test_extra_merged_into_manifest(self, tmp_path):
        path = write_runlog(
            tmp_path / "log", _tiny_root(), extra={"argv": ["dba", "-V", "3"]}
        )
        assert read_runlog(path).manifest["argv"] == ["dba", "-V", "3"]

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_runlog(tmp_path / "nothing-here")

    def test_bad_schema_raises(self, tmp_path):
        directory = tmp_path / "log"
        directory.mkdir()
        (directory / MANIFEST_FILE).write_text(
            json.dumps({"schema": "repro.obs/999"})
        )
        with pytest.raises(ValueError):
            read_runlog(directory)


class TestAggregateStages:
    def test_sums_by_name(self):
        records = [
            {"name": "a", "wall_s": 1.0, "cpu_s": 0.5, "counters": {}},
            {"name": "a", "wall_s": 2.0, "cpu_s": 1.0, "counters": {"audio_s": 3}},
            {"name": "b", "wall_s": None, "cpu_s": None, "counters": {}},
        ]
        stages = aggregate_stages(records)
        assert stages["a"] == {
            "calls": 2,
            "wall_s": 3.0,
            "cpu_s": 1.5,
            "audio_s": 3,
        }
        assert stages["b"] == {"calls": 1, "wall_s": 0.0, "cpu_s": 0.0}


class TestRender:
    def test_render_aggregates_siblings(self, tmp_path):
        path = write_runlog(tmp_path / "log", _tiny_root())
        text = render_runlog(read_runlog(path))
        assert "unit-run" in text
        assert "decoding" in text
        assert "audio_s=42" in text  # summed sibling counters
        assert "config deadbeef" in text
        assert "per-stage roll-up" in text

    def test_max_depth_bounds_tree(self, tmp_path):
        trace.start_trace("deep")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        path = write_runlog(tmp_path / "log", trace.stop_trace())
        shallow = render_runlog(read_runlog(path), max_depth=1)
        # The span *tree* is pruned; the manifest roll-up at the bottom
        # still lists every stage name.
        tree = shallow.split("per-stage roll-up")[0]
        assert "outer" in tree
        assert "inner" not in tree


    def test_small_rtf_keeps_significant_digits(self):
        # 1.2 ms of decoding for 40 s of audio: RTF 3e-05, not 0.0000.
        run = RunLog(
            Path("mem"),
            {
                "name": "rtf",
                "stages": {
                    "decoding": {"calls": 1, "wall_s": 0.0012, "audio_s": 40.0}
                },
            },
            [],
        )
        rollup = render_runlog(run).split("per-stage roll-up")[1]
        row = next(line for line in rollup.splitlines() if "decoding" in line)
        assert row.split()[-1] == "3e-05"


class TestSampleRunlog:
    """The checked-in sample the CI docs job renders."""

    def test_sample_exists_and_loads(self):
        run = read_runlog(SAMPLE)
        assert run.manifest["schema"] == RUNLOG_SCHEMA
        for stage in ("decoding", "sv_generation", "svm_training", "sv_product"):
            assert stage in run.stage_names()

    def test_sample_renders_via_cli(self, capsys):
        from repro.cli import main

        assert main(["obs", "show", str(SAMPLE)]) == 0
        out = capsys.readouterr().out
        assert "decoding" in out
        assert "per-stage roll-up" in out

    def test_cli_reports_missing_runlog(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "show", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDefaults:
    def test_git_revision_independent_of_cwd(self, tmp_path, monkeypatch):
        # The default looks at the package's checkout, not the process
        # cwd: launching from a directory outside any work tree must not
        # lose (or change) the recorded revision.
        import repro.obs.runlog as runlog

        package_dir = Path(runlog.__file__).resolve().parent
        expected = git_revision(package_dir)
        monkeypatch.chdir(tmp_path)
        assert git_revision() == expected
        assert git_revision(tmp_path) is None

    def test_runlog_root_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNLOG_DIR", raising=False)
        assert default_runlog_root() == Path("runlogs")
        monkeypatch.setenv("REPRO_RUNLOG_DIR", "/tmp/elsewhere")
        assert default_runlog_root() == Path("/tmp/elsewhere")
