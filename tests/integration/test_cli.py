"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--scenario", "nope", "--out", "x"])


class TestWorkflows:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "trace.csv"
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cars",
                "25",
                "--days",
                "7",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_generate_writes_csv(self, trace_path, capsys):
        assert trace_path.exists()
        header = trace_path.read_text().splitlines()[0]
        assert header == "start,car_id,cell_id,carrier,technology,duration"

    def test_generate_anonymized(self, tmp_path, capsys):
        path = tmp_path / "anon.csv"
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cars",
                "5",
                "--days",
                "7",
                "--out",
                str(path),
                "--anonymize-key",
                "k1",
            ]
        )
        assert code == 0
        body = path.read_text()
        assert "anon-" in body
        assert "car-0" not in body

    def test_analyze_prints_report(self, trace_path, capsys):
        code = main(
            [
                "analyze",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--no-clustering",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "Table 3" in out

    def test_quality_flags_artifacts(self, trace_path, capsys):
        code = main(["quality", "--trace", str(trace_path), "--days", "7"])
        out = capsys.readouterr().out
        assert "records examined" in out
        # The generator injects artifacts, so quality exits non-zero.
        assert code == 2

    def test_saturate_reports_saturation(self, capsys):
        code = main(["saturate", "--duration-hours", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean U_PRB during test" in out
        assert "GB" in out

    def test_fota_compares_policies(self, trace_path, capsys):
        code = main(
            [
                "fota",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--update-mb",
                "50",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("naive", "off-peak", "rare-first", "busy-aware"):
            assert name in out

    def test_fota_throttled(self, trace_path, capsys):
        code = main(
            [
                "fota",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--max-concurrent",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "naive-throttled" in out

    def test_journeys_summary(self, trace_path, capsys):
        code = main(
            [
                "journeys",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "journeys:" in out
        assert "median distance" in out

    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-stream") / "shards"
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cars",
                "25",
                "--days",
                "7",
                "--out",
                str(directory),
                "--format",
                "cdrz",
                "--shard-rows",
                "400",
            ]
        )
        assert code == 0
        return directory

    def test_stream_reports_identically_at_any_worker_count(
        self, shard_dir, capsys
    ):
        outputs = []
        for workers in ("1", "2"):
            code = main(
                [
                    "stream",
                    "--trace",
                    str(shard_dir),
                    "--days",
                    "7",
                    "--workers",
                    workers,
                    "--chunk-rows",
                    "128",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "map-reduce over" in out
            assert "duration: median" in out
            assert "carrier time shares" in out
            # Everything below the run header is derived from the reduced
            # result, which must not depend on the worker count.
            outputs.append(out.split("\n", 1)[1])
        assert outputs[0] == outputs[1]

    def test_analyze_workers_routes_to_fused_mapreduce(self, shard_dir, capsys):
        # Default engine: the fused map-reduce path, which prints the full
        # Section 4 statistics rather than the streaming summary.
        code = main(
            [
                "analyze",
                "--trace",
                str(shard_dir),
                "--days",
                "7",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fused map-reduce over" in out
        assert "connect time: mean share" in out
        assert "carrier time shares" in out

    def test_analyze_reference_engine_refuses_workers(self, shard_dir, capsys):
        # The record-based reference loops run in one process only; asking
        # for workers must fail loudly rather than print another report.
        code = main(
            [
                "analyze",
                "--trace",
                str(shard_dir),
                "--days",
                "7",
                "--workers",
                "2",
                "--engine",
                "reference",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "analyze --engine reference runs in one process; "
            "use --workers 1 or --engine fused"
        ]

    def test_analyze_rejects_the_retired_vectorized_engine(self, shard_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--trace", str(shard_dir), "--engine", "vectorized"])
        assert excinfo.value.code == 2

    def test_stream_rejects_text_traces(self, trace_path, capsys):
        code = main(["stream", "--trace", str(trace_path), "--days", "7"])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs a cdrz trace" in err

    def test_analyze_markdown(self, trace_path, capsys):
        code = main(
            [
                "analyze",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--no-clustering",
                "--markdown",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "## Connected-car analysis report" in out
        assert "| Monday |" in out
