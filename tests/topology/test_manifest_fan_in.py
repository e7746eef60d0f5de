"""The manifest fan-in of `topo finalize` and `hh discover --topology`.

Both verbs walk a `repro topo launch` manifest the same way: pull each
collector, and for one that does not answer fall back to its durable
``state.npz`` through the restore-or-quarantine loader.  Here every
collector is unreachable (nothing listens on its port), so each test
exercises exactly that fallback: a healthy file is recovered, a corrupt
or non-finite one is quarantined, a missing one is lost.  The supervisor
recovers a dead collector through the same loader.
"""

from __future__ import annotations

import json
import socket
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.core.domain import Domain
from repro.resilience import STATUS_QUARANTINED
from repro.server import DURABLE_STATE_FILENAME, LoadGenerator
from repro.service import AggregationSession, ProtocolSpec
from repro.topology import FanInAggregator, TopologySupervisor

from ..service.util import encode_frames, small_dataset
from ..service.util import write_non_finite_checkpoint


def _closed_port() -> int:
    """A localhost port nothing listens on (bound, then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _write_manifest(base, spec: ProtocolSpec, domain: Domain, count: int):
    """A manifest of ``count`` unreachable collectors; returns their dirs."""
    directories = [base / f"c{index}" for index in range(count)]
    for directory in directories:
        directory.mkdir(parents=True)
    manifest = {
        "format_version": 1,
        "spec": spec.to_dict(),
        "attributes": list(domain.attributes),
        "routing": "round-robin",
        "collectors": [
            {
                "collector_id": f"c{index}",
                "host": "127.0.0.1",
                "port": _closed_port(),
                "checkpoint_dir": str(directory),
            }
            for index, directory in enumerate(directories)
        ],
    }
    (base / "topology.json").write_text(json.dumps(manifest))
    return directories


def _collected(spec: ProtocolSpec, domain: Domain) -> AggregationSession:
    session = AggregationSession(spec, domain)
    dataset = small_dataset(n=96, d=domain.dimension)
    for frame in encode_frames(spec.build(), dataset, 32):
        session.submit(frame)
    return session


class TestTopoFinalize:
    SPEC = ProtocolSpec(protocol="InpRR", epsilon=1.1, max_width=2)
    DOMAIN = Domain.binary(4)

    def test_non_finite_state_is_quarantined_then_counted_lost(
        self, tmp_path, capsys
    ):
        healthy, poisoned = _write_manifest(
            tmp_path, self.SPEC, self.DOMAIN, 2
        )
        session = _collected(self.SPEC, self.DOMAIN)
        session.checkpoint(healthy / DURABLE_STATE_FILENAME)
        write_non_finite_checkpoint(
            session, poisoned / DURABLE_STATE_FILENAME
        )

        assert main(["topo", "finalize", "--dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "collector c0 is unreachable; recovered 96 report(s)" in err
        assert "collector c1 is unreachable; checkpoint quarantined" in err
        assert "non-finite" in err
        assert not (poisoned / DURABLE_STATE_FILENAME).exists()
        assert (poisoned / "state.npz.corrupt").exists()
        assert (poisoned / "state.npz.corrupt.report.txt").exists()

        # The quarantined file is gone now, so a degraded rerun finds c1
        # lost and finalizes over c0 alone.
        output = tmp_path / "partial.json"
        assert main([
            "topo", "finalize", "--dir", str(tmp_path), "--allow-partial",
            "--json", str(output),
        ]) == 0
        payload = json.loads(output.read_text())
        assert payload["num_reports"] == 96
        assert payload["topology"]["unreachable"] == ["c0", "c1"]
        statuses = {
            entry["collector_id"]: entry["status"]
            for entry in payload["coverage"]["collectors"]
        }
        assert statuses == {"c0": "recovered", "c1": "lost"}


class TestHHDiscoverTopology:
    SPEC = ProtocolSpec(
        protocol="HH", epsilon=2.0, max_width=2, options={"top_k": 2}
    )
    DOMAIN = Domain.binary(4)

    @pytest.fixture(autouse=True)
    def _no_fleet(self, monkeypatch):
        # The collectors are unreachable by design; this suite is about
        # the fan-in after delivery, so the client fleet is a no-op.
        async def delivered_nothing(fleet):
            return SimpleNamespace(acked_reports=0, frames=0, connections=0)

        monkeypatch.setattr(LoadGenerator, "run", delivered_nothing)

    def _discover(self, tmp_path) -> int:
        return main([
            "hh", "discover", "--topology", str(tmp_path),
            "-n", "200", "--connect-timeout", "1",
        ])

    def test_corrupt_state_is_quarantined_and_still_fatal(
        self, tmp_path, capsys
    ):
        (victim,) = _write_manifest(tmp_path, self.SPEC, self.DOMAIN, 1)
        (victim / DURABLE_STATE_FILENAME).write_bytes(b"torn write")
        assert self._discover(tmp_path) == 2
        err = capsys.readouterr().err
        assert "hh discover: collector c0 is unreachable;" in err
        assert "checkpoint quarantined" in err
        assert not (victim / DURABLE_STATE_FILENAME).exists()
        assert (victim / "state.npz.corrupt").exists()
        assert (victim / "state.npz.corrupt.report.txt").exists()

    def test_missing_state_keeps_the_no_checkpoint_error(
        self, tmp_path, capsys
    ):
        _write_manifest(tmp_path, self.SPEC, self.DOMAIN, 1)
        assert self._discover(tmp_path) == 2
        err = capsys.readouterr().err
        assert "collector c0" in err
        assert "left no durable checkpoint" in err


class TestSupervisorRecovery:
    def test_non_finite_state_of_a_dead_collector_is_quarantined(
        self, tmp_path
    ):
        spec = ProtocolSpec(protocol="InpHT", epsilon=1.1, max_width=2)
        domain = Domain.binary(4)
        supervisor = TopologySupervisor(
            spec, domain, base_dir=tmp_path, collectors=2
        )
        victim = supervisor.handles[1]
        victim.checkpoint_dir.mkdir(parents=True)
        write_non_finite_checkpoint(
            _collected(spec, domain),
            victim.checkpoint_dir / DURABLE_STATE_FILENAME,
            extra={"acked_tokens": {"t-1": {"frames": 1, "reports": 32}}},
            value=np.inf,
        )
        supervisor._recover(victim)

        recovered = supervisor.recovered_states()[victim.collector_id]
        assert recovered.num_reports == 0
        assert recovered.acked_tokens == {}
        lost = supervisor.lost_collectors()[victim.collector_id]
        assert lost.startswith("checkpoint quarantined")
        assert (victim.checkpoint_dir / "state.npz.corrupt").exists()
        coverage = supervisor.coverage_report(FanInAggregator(spec, domain))
        entry = next(
            item
            for item in coverage.collectors
            if item.collector_id == victim.collector_id
        )
        assert entry.status == STATUS_QUARANTINED
