"""Fuzzing the report wire codec: every mutated frame is refused cleanly or
folds into finite estimates.

For all nine protocols and the heavy-hitter family, hypothesis mutates a
valid frame's header fields (version, kind length, payload length), its
row count, its layout entries and its payload bytes.  Each mutant must
either raise :class:`WireFormatError` — leaving the session's
``state_dict`` byte-identical — or be accepted with every released
marginal finite.  Any other exception fails the property.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import WireFormatError
from repro.core.privacy import PrivacyBudget
from repro.datasets import BinaryDataset
from repro.protocols.registry import PROTOCOL_CLASSES, make_protocol
from repro.service import AggregationSession, report_schema_for

ALL_PROTOCOLS = sorted(PROTOCOL_CLASSES)

#: Smaller sketch so the InpHTCMS cases stay fast at test scale.
PROTOCOL_OPTIONS = {"InpHTCMS": {"num_hashes": 3, "width": 32}}

D = 4

_PREFIX = struct.calcsize("<4sHH")


def _frame_and_session(name):
    protocol = make_protocol(
        name, PrivacyBudget(1.0), 2, **PROTOCOL_OPTIONS.get(name, {})
    )
    rng = np.random.default_rng(11)
    records = (rng.random((40, D)) < 0.4).astype(np.int8)
    dataset = BinaryDataset.from_records(records)
    frame = protocol.encode_batch(records, rng=rng).to_bytes()
    session = AggregationSession(protocol.spec(), dataset.domain)
    session.submit(frame)
    return frame, session


_FIXTURES = {}


def _fixture(name):
    """One primed (frame, session) per protocol, built lazily."""
    if name not in _FIXTURES:
        _FIXTURES[name] = _frame_and_session(name)
    return _FIXTURES[name]


def _state(session):
    frozen = {"metadata": session.metadata}
    for key, value in session._accumulator.state_dict().items():
        array = np.asarray(value)
        frozen[key] = (str(array.dtype), array.shape, array.tobytes())
    return frozen


@st.composite
def mutations(draw, frame: bytes):
    """A frame with one to three targeted or random byte-level edits."""
    data = bytearray(frame)
    kind_length = struct.unpack_from("<H", data, 6)[0]
    payload = _PREFIX + kind_length + 8
    kind = bytes(data[_PREFIX : _PREFIX + kind_length]).decode()
    values = payload + report_schema_for(kind).layout.size
    targets = [
        "version", "kind_length", "payload_length", "rows", "layout",
        "values", "values", "byte", "truncate", "extend",
    ]
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(targets))
        if target == "version" and len(data) >= _PREFIX:
            struct.pack_into("<H", data, 4, draw(st.integers(0, 0xFFFF)))
        elif target == "kind_length" and len(data) >= _PREFIX:
            struct.pack_into("<H", data, 6, draw(st.integers(0, 64)))
        elif target == "payload_length" and len(data) >= payload:
            length = draw(st.integers(0, 1 << 20) | st.integers(0, (1 << 64) - 1))
            struct.pack_into("<Q", data, payload - 8, length)
        elif target == "rows" and len(data) >= payload + 4:
            rows = draw(st.integers(0, 256) | st.integers(0, 0xFFFFFFFF))
            struct.pack_into("<I", data, payload, rows)
        elif target == "layout" and len(data) > payload + 4:
            position = draw(st.integers(payload + 4, min(len(data), payload + 24) - 1))
            data[position] = draw(st.integers(0, 255))
        elif target == "values" and len(data) > values:
            # Field data only: these mutants mostly decode, so they probe
            # the alphabet checks and the fold rather than the layout.
            position = draw(st.integers(values, len(data) - 1))
            data[position] = draw(st.integers(0, 255))
        elif target == "byte" and data:
            position = draw(st.integers(0, len(data) - 1))
            data[position] = draw(st.integers(0, 255))
        elif target == "truncate" and data:
            del data[draw(st.integers(0, len(data) - 1)) :]
        elif target == "extend":
            data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_frames_are_refused_or_finite(name, data):
    frame, session = _fixture(name)
    mutant = data.draw(mutations(frame))
    before = _state(session)
    try:
        session.submit(mutant)
    except WireFormatError:
        assert _state(session) == before
        return
    # Accepted: the estimate must stay finite.  Put the state back so the
    # next example starts from the primed session.
    try:
        tables = session.snapshot().query_all()
        for table in tables.values():
            assert np.all(np.isfinite(table.values))
    finally:
        _FIXTURES.pop(name)
