"""Non-finite accumulator state is refused at rest and in transit.

A NaN or an infinity in a float state array would poison every estimate
it is merged into.  ``checkpoint_bytes`` — behind file checkpoints, the
durable ``state.npz`` and PULL ``STATE`` answers — refuses to serialize
such state, and restore refuses an archive holding it even when its
digest matches, so :func:`restore_or_quarantine` moves it aside like a
torn file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.exceptions import AggregationError, WireFormatError
from repro.resilience import (
    STATUS_LOST,
    STATUS_QUARANTINED,
    STATUS_RECOVERED,
    restore_or_quarantine,
)
from repro.server import DURABLE_STATE_FILENAME, CollectionServer
from repro.service import AggregationSession, ProtocolSpec

from .util import (
    SEED,
    encode_frames,
    small_dataset,
    write_non_finite_checkpoint,
)

FLOAT_STATE_PROTOCOLS = ["InpHT", "InpRR", "InpHTCMS", "MargRR", "HH"]


def _session(name: str = "InpHT") -> AggregationSession:
    options = {"InpHTCMS": {"num_hashes": 3, "width": 32}}.get(name, {})
    spec = ProtocolSpec(
        protocol=name, epsilon=1.1, max_width=2, options=options
    )
    session = AggregationSession(spec, Domain.binary(4))
    protocol = spec.build()
    for frame in encode_frames(protocol, small_dataset(), 32, seed=SEED):
        session.submit(frame)
    return session


def _poisoned(session: AggregationSession, value: float):
    """A fresh session holding ``session``'s state with every float array
    set to ``value``."""
    state = session._accumulator.state_dict()
    for name, array in state.items():
        if np.asarray(array).dtype.kind == "f":
            state[name] = np.full_like(array, value)
    poisoned = AggregationSession(session.spec, session.domain)
    poisoned._accumulator.load_state(state)
    return poisoned


class TestCheckpointRefusesNonFiniteState:
    @pytest.mark.parametrize("name", FLOAT_STATE_PROTOCOLS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_checkpoint_bytes_raises(self, name, value):
        session = _poisoned(_session(name), value)
        with pytest.raises(AggregationError, match="non-finite"):
            session.checkpoint_bytes()

    def test_file_checkpoint_writes_nothing(self, tmp_path):
        session = _poisoned(_session(), np.nan)
        target = tmp_path / "ckpt.npz"
        with pytest.raises(AggregationError, match="non-finite"):
            session.checkpoint(target)
        assert list(tmp_path.iterdir()) == []

    def test_healthy_state_still_round_trips(self):
        session = _session()
        data = session.checkpoint_bytes()
        restored = AggregationSession.restore_bytes(data)
        assert restored.num_reports == session.num_reports


class TestRestoreRefusesNonFiniteState:
    @pytest.mark.parametrize("name", FLOAT_STATE_PROTOCOLS)
    def test_digest_valid_nan_archive_is_a_wire_format_error(
        self, name, tmp_path
    ):
        path = tmp_path / "state.npz"
        write_non_finite_checkpoint(_session(name), path)
        with pytest.raises(WireFormatError, match="non-finite"):
            AggregationSession.restore(path)
        with pytest.raises(WireFormatError, match="non-finite"):
            AggregationSession.restore_bytes(path.read_bytes())


class TestRestoreOrQuarantine:
    def test_healthy_checkpoint_is_recovered_with_its_tokens(self, tmp_path):
        session = _session()
        path = session.checkpoint(
            tmp_path / "state.npz",
            extra={"acked_tokens": {"t-1": {"frames": 2, "reports": 64}}},
        )
        loaded = restore_or_quarantine(path, "test")
        assert loaded.status == STATUS_RECOVERED
        assert loaded.session.num_reports == session.num_reports
        assert loaded.acked_tokens == {"t-1": {"frames": 2, "reports": 64}}
        assert path.exists()

    def test_missing_checkpoint_is_lost(self, tmp_path):
        loaded = restore_or_quarantine(tmp_path / "state.npz", "test")
        assert loaded.status == STATUS_LOST
        assert loaded.session is None
        assert "left no durable checkpoint" in loaded.detail

    @pytest.mark.parametrize("kind", ["torn", "non-finite"])
    def test_corrupt_checkpoint_is_quarantined(self, kind, tmp_path):
        path = tmp_path / "state.npz"
        if kind == "torn":
            path.write_bytes(b"not a checkpoint")
        else:
            write_non_finite_checkpoint(_session(), path)
        loaded = restore_or_quarantine(path, "test restore")
        assert loaded.status == STATUS_QUARANTINED
        assert loaded.session is None and loaded.acked_tokens == {}
        assert loaded.detail.startswith("checkpoint quarantined")
        assert not path.exists()
        assert (tmp_path / "state.npz.corrupt").exists()
        report = tmp_path / "state.npz.corrupt.report.txt"
        assert "test restore" in report.read_text()

    def test_durable_server_quarantines_non_finite_state_and_starts_empty(
        self, tmp_path
    ):
        session = _session()
        write_non_finite_checkpoint(
            session,
            tmp_path / DURABLE_STATE_FILENAME,
            extra={"acked_tokens": {"t-1": {"frames": 1, "reports": 32}}},
        )
        server = CollectionServer(
            session.spec,
            session.domain,
            checkpoint_dir=tmp_path,
            durable_acks=True,
        )
        assert server.combined_session().num_reports == 0
        assert (tmp_path / "state.npz.corrupt").exists()
        assert not (tmp_path / DURABLE_STATE_FILENAME).exists()
