"""The in-memory fused ``analyze`` path builds no ``ConnectionRecord``.

``load_trace`` returns a lazy batch, preprocessing keeps columnar views and
the Figure 11 vectors come from arrays, so from load through clustering the
fused engine never needs a record object.  These guards keep it that way,
on a ``.cdrz`` shard directory and on a CSV trace, in the library and
through the CLI.
"""

import numpy as np
import pytest

from repro.algorithms.timebins import StudyClock
from repro.cdr.io import load_trace
from repro.cdr.records import count_record_constructions
from repro.cli import main
from repro.core.pipeline import AnalysisPipeline
from repro.core.report import format_report
from repro.network.load import CellLoadModel
from repro.network.topology import build_topology
from repro.simulate.scenarios import scenario

CARS, DAYS = 25, 7


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("zero-records")
    shards = root / "shards"
    common = ["--scenario", "smoke", "--cars", str(CARS), "--days", str(DAYS)]
    assert main(["generate", *common, "--out", str(shards), "--shard-rows", "500"]) == 0
    csv_path = root / "trace.csv"
    assert main(["convert", str(shards), str(csv_path)]) == 0
    assert len(list(shards.glob("*.cdrz"))) > 1
    return {"cdrz-shards": shards, "csv": csv_path}


@pytest.fixture(scope="module")
def pipeline():
    config = scenario("smoke", n_cars=1, n_days=DAYS)
    clock = StudyClock(n_days=DAYS)
    topology = build_topology(config.topology)
    load_model = CellLoadModel(topology, clock, seed=config.load_seed)
    return AnalysisPipeline(clock, load_model, topology.cells)


@pytest.mark.parametrize("kind", ["cdrz-shards", "csv"])
def test_fused_pipeline_with_clustering_builds_no_records(traces, pipeline, kind):
    with count_record_constructions() as counter:
        batch = load_trace(traces[kind])
        report = pipeline.run(batch, engine="fused", with_clustering=True)
        text = format_report(report)
    assert counter.count == 0
    # The guard means something only if clustering really ran.
    assert report.clusters is not None
    assert report.clusters.vectors.any()

    reference = pipeline.run(load_trace(traces[kind]), engine="reference")
    assert reference.clusters is not None
    assert np.array_equal(report.clusters.vectors, reference.clusters.vectors)
    assert text == format_report(reference)


@pytest.mark.parametrize("kind", ["cdrz-shards", "csv"])
def test_cli_analyze_builds_no_records(traces, kind, capsys):
    argv = [
        "analyze", "--trace", str(traces[kind]), "--scenario", "smoke",
        "--days", str(DAYS), "--workers", "1",
    ]
    capsys.readouterr()
    with count_record_constructions() as counter:
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert counter.count == 0
    assert "== Busy-cell clusters (Fig 11) ==" in out
    assert main([*argv, "--engine", "reference"]) == 0
    assert capsys.readouterr().out == out
