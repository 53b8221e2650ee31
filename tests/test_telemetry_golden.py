"""Byte-for-byte goldens for every telemetry view of one committed stream.

``golden/telemetry.jsonl`` is a synthetic two-session file holding root,
phase, unit and one other kind of span; counters on two backends; events
with reasons and spec prefixes; process-pool worker spans with
``queue_wait``; parent and worker ``resource_sample`` events; and a
truncated last line.  Each test renders one view through the CLI and
compares it with the file of the same name under ``golden/``, so any
change to what a view prints shows up here as a diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
STREAM = GOLDEN / "telemetry.jsonl"

VIEWS = {
    "summarize.txt": ["telemetry", "summarize", str(STREAM)],
    "summarize.json": ["telemetry", "summarize", str(STREAM), "--json"],
    "summarize_last.txt": ["telemetry", "summarize", str(STREAM), "--last"],
    "summarize_last.json": ["telemetry", "summarize", str(STREAM), "--last", "--json"],
    "metrics.prom": ["report", "metrics", str(STREAM)],
    "metrics.json": ["report", "metrics", str(STREAM), "--format", "json"],
}


def render(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("golden", sorted(VIEWS))
def test_view_matches_golden(golden, capsys):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert render(VIEWS[golden], capsys) == expected


def test_html_report_matches_golden(tmp_path, capsys, monkeypatch):
    import repro.observe.perf as perf
    import repro.store.store as store

    monkeypatch.setattr(perf, "host_fingerprint", lambda: "golden-host")
    monkeypatch.setattr(store, "describe_version", lambda: "golden-version")
    rendered = render(
        ["report", "html", "--telemetry", str(STREAM),
         "--store", str(tmp_path / "no-store")],
        capsys,
    )
    assert rendered == (GOLDEN / "report.html").read_text(encoding="utf-8")
