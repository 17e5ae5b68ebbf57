"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "-o", "x.npz"])
        assert args.road == "smooth_highway"
        assert args.state == "awake"

    def test_bad_road_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--road", "moon", "-o", "x.npz"])

    def test_sweep_choices(self):
        args = build_parser().parse_args(["sweep", "distance", "--seeds", "1"])
        assert args.which == "distance" and args.seeds == [1]

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.vehicles == 4
        assert args.faults == 0
        assert args.workers == 4
        assert args.queue_depth == 4096
        assert args.fault_at is None

    def test_gateway_serve_does_not_load_the_linter(self):
        # A fresh interpreter: this test process has long imported it.
        probe = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "args = build_parser().parse_args(['gateway', 'serve'])\n"
            "assert args.command == 'gateway'\n"
            "print([m for m in sys.modules if m.startswith('repro.lint')])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_serving_stack_does_not_load_scipy(self):
        # A fresh interpreter: the reference tests load scipy into this
        # one. Importing it costs every serving process (the server, the
        # forkserver, each shard worker) about 0.3 s and 13-20 MB, and the
        # gateway brings sessions up on its event loop.
        probe = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['gateway', 'serve'])\n"
            "import repro.fleet.scheduler, repro.gateway.http, repro.gateway.server\n"
            "import repro.shard, repro.shard._preload\n"
            "from repro.gateway.ingest import IngestSession\n"
            "session = IngestSession('s', n_bins=32, frame_rate_hz=25.0)\n"
            "session.start()\n"
            "session.close()\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestCommands:
    def test_simulate_then_detect(self, tmp_path, capsys):
        out = tmp_path / "drive.npz"
        rc = main([
            "simulate", "--duration", "30", "--seed", "3",
            "--road", "parked", "-o", str(out),
        ])
        assert rc == 0 and out.exists()
        captured = capsys.readouterr().out
        assert "wrote" in captured and "blinks" in captured

        rc = main(["detect", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "accuracy" in captured

    def test_vitals_command(self, tmp_path, capsys):
        out = tmp_path / "drive.npz"
        main(["simulate", "--duration", "30", "--seed", "4", "-o", str(out)])
        capsys.readouterr()
        rc = main(["vitals", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "respiration" in captured and "heart rate" in captured

    def test_fleet_command(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        rc = main([
            "fleet", "--vehicles", "2", "--faults", "1", "--duration", "8",
            "--workers", "2", "--json", str(out),
        ])
        assert rc == 0 and out.exists()
        captured = capsys.readouterr().out
        assert "v00" in captured and "v01" in captured
        assert "restarts" in captured and "latency p95" in captured
        import json

        snap = json.loads(out.read_text())
        assert snap["counters"]["fleet.restarts"] >= 1
        assert snap["counters"]["fleet.frames_processed"] > 0

    def test_fleet_rejects_more_faults_than_vehicles(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--vehicles", "2", "--faults", "3", "--duration", "5"])

    @pytest.mark.slow
    def test_sweep_command(self, capsys):
        rc = main(["sweep", "distance", "--seeds", "1", "--duration", "30"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "0.400" in captured  # the 40 cm row


class TestGenerators:
    def test_corpus_roundtrip(self, tmp_path):
        from repro.datasets.generators import generate_study_corpus, load_manifest
        from repro.datasets.participants import study_participants

        specs = generate_study_corpus(
            tmp_path, seeds=(7,), duration_s=10.0,
            participants=study_participants()[:2],
        )
        assert len(specs) == 4  # 2 participants x 2 states x 1 road x 1 seed
        loaded = load_manifest(tmp_path)
        assert len(loaded) == 4
        spec, trace = loaded[0]
        assert trace.state == spec.state
        assert trace.duration_s == pytest.approx(10.0)

    def test_cache_reuse(self, tmp_path):
        from repro.datasets.generators import generate_study_corpus
        from repro.datasets.participants import study_participants

        participants = study_participants()[:1]
        generate_study_corpus(tmp_path, seeds=(7,), duration_s=5.0,
                              participants=participants)
        first = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.npz")}
        generate_study_corpus(tmp_path, seeds=(7,), duration_s=5.0,
                              participants=participants)
        second = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.npz")}
        assert first == second  # untouched on the second call

    def test_missing_manifest(self, tmp_path):
        from repro.datasets.generators import load_manifest

        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)


class TestCsvExport:
    @pytest.mark.slow
    def test_sweep_with_csv(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        rc = main(["sweep", "glasses", "--seeds", "1", "--duration", "30",
                   "--csv", str(out)])
        assert rc == 0 and out.exists()
        from repro.eval.export import load_series

        series = load_series(out)
        assert set(series) == {"none", "myopia", "sunglasses"}
