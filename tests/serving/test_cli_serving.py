"""CLI entry points for the serving engine: serve / batch / backends."""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.cli import main
from repro.serving.request import ModExpRequest
from repro.serving.wire import request_to_json
from repro.utils.rng import random_odd_modulus


def _workload_lines(count: int, distinct_moduli: int, seed: int = 0) -> str:
    rng = random.Random(seed)
    moduli = [random_odd_modulus(48, rng) for _ in range(distinct_moduli)]
    lines = []
    for i in range(count):
        n = moduli[i % distinct_moduli]
        lines.append(
            request_to_json(
                ModExpRequest(
                    rng.randrange(n), rng.randrange(1, n), n, request_id=f"r{i}"
                )
            )
        )
    return "\n".join(lines) + "\n"


def _expected_by_id(workload: str) -> dict:
    out = {}
    for line in workload.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        base, exp, mod = (
            int(obj[k]) if isinstance(obj[k], str) else obj[k]
            for k in ("base", "exponent", "modulus")
        )
        out[obj["id"]] = pow(base, exp, mod)
    return out


class TestBatchCommand:
    def test_batch_file_to_file(self, tmp_path):
        workload = _workload_lines(6, 2)
        src = tmp_path / "work.jsonl"
        dst = tmp_path / "results.jsonl"
        src.write_text(workload)
        out = io.StringIO()
        code = main(["batch", str(src), "--out", str(dst)], out=out)
        assert code == 0
        results = [json.loads(line) for line in dst.read_text().splitlines()]
        assert len(results) == 6
        expected = _expected_by_id(workload)
        for obj in results:
            assert obj["ok"] is True
            value = int(obj["value"]) if isinstance(obj["value"], str) else obj["value"]
            assert value == expected[obj["id"]]
        assert "6 requests, 6 ok, 0 failed" in out.getvalue()

    def test_batch_bad_line_keeps_alignment_and_exits_nonzero(self, tmp_path):
        workload = _workload_lines(2, 1, seed=1).splitlines()
        workload.insert(1, '{"base": 2}')  # missing fields
        src = tmp_path / "work.jsonl"
        src.write_text("\n".join(workload) + "\n")
        out = io.StringIO()
        code = main(["batch", str(src)], out=out)
        assert code == 1
        payload_lines = [
            line for line in out.getvalue().splitlines() if line.startswith("{")
        ]
        results = [json.loads(line) for line in payload_lines]
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error_type"] == "WireFormatError"

    def test_batch_metrics_snapshot_shows_serving_counters(self, tmp_path):
        workload = _workload_lines(4, 2, seed=2)
        src = tmp_path / "work.jsonl"
        dst = tmp_path / "results.jsonl"
        metrics = tmp_path / "metrics.json"
        src.write_text(workload)
        out = io.StringIO()
        code = main(
            [
                "batch", str(src), "--out", str(dst),
                "--metrics", "--metrics-out", str(metrics),
            ],
            out=out,
        )
        assert code == 0
        assert "serving.requests" in out.getvalue()
        snapshot = json.loads(metrics.read_text())
        names = {row["name"] for rows in snapshot.values() for row in rows}
        assert {"serving.requests", "serving.batches", "serving.batch_size"} <= names

    def test_batch_rejects_unknown_backend(self, tmp_path):
        src = tmp_path / "work.jsonl"
        src.write_text(_workload_lines(1, 1))
        with pytest.raises(Exception, match="unknown backend"):
            main(["batch", str(src), "--backend", "abacus"], out=io.StringIO())


class TestServeCommand:
    def test_serve_reads_stdin_writes_results(self, monkeypatch, capsys):
        workload = _workload_lines(3, 1, seed=3)
        monkeypatch.setattr("sys.stdin", io.StringIO(workload))
        out = io.StringIO()
        code = main(["serve", "--max-batch", "2"], out=out)
        assert code == 0
        results = [json.loads(line) for line in out.getvalue().splitlines()]
        expected = _expected_by_id(workload)
        for obj in results:
            value = int(obj["value"]) if isinstance(obj["value"], str) else obj["value"]
            assert value == expected[obj["id"]]
        assert "[serve: 3 served, 3 ok" in capsys.readouterr().err


class TestBackendsCommand:
    def test_backends_table_lists_every_backend(self):
        out = io.StringIO()
        assert main(["backends"], out=out) == 0
        text = out.getvalue()
        for name in ("integer", "crt-rsa", "rtl", "highradix"):
            assert name in text
        for name in ("scalable", "chip"):
            assert name not in text
