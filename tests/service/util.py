"""Shared helpers for the collection-service test suites."""

from __future__ import annotations

import io
import json
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.privacy import PrivacyBudget
from repro.core.rng import spawn_rngs
from repro.datasets import BinaryDataset
from repro.protocols.registry import PROTOCOL_CLASSES, make_protocol

LN3 = float(np.log(3.0))

#: Smaller sketch so the InpHTCMS cases stay fast at test scale.
PROTOCOL_OPTIONS = {"InpHTCMS": {"num_hashes": 3, "width": 32}}

ALL_PROTOCOLS = sorted(PROTOCOL_CLASSES)

SEED = 20180610


def build(name: str, epsilon: float = LN3, width: int = 2):
    options = PROTOCOL_OPTIONS.get(name, {})
    return make_protocol(name, PrivacyBudget(epsilon), width, **options)


def small_dataset(n: int = 96, d: int = 4, seed: int = 97) -> BinaryDataset:
    rng = np.random.default_rng(seed)
    marginal_probs = rng.random(d) * 0.6 + 0.2
    records = (rng.random((n, d)) < marginal_probs).astype(np.int8)
    return BinaryDataset.from_records(records)


def streaming_rngs(seed: int, num_batches: int) -> List:
    """The exact per-batch generators ``run_streaming(rng=default_rng(seed))``
    uses, so wire-path estimates can be compared bit-for-bit against it."""
    generator = np.random.default_rng(seed)
    if num_batches == 1:
        return [generator]
    return spawn_rngs(generator, num_batches)


def encode_batches(protocol, dataset, batch_size, seed=SEED) -> List:
    """Client-side: the in-memory report batches of a streaming run."""
    rngs = streaming_rngs(seed, dataset.num_batches(batch_size))
    return [
        protocol.encode_batch(chunk, rng=chunk_rng)
        for chunk, chunk_rng in zip(dataset.iter_batches(batch_size), rngs)
    ]


def encode_frames(protocol, dataset, batch_size, seed=SEED) -> List[bytes]:
    """Client-side: the same batches in their serialized wire form."""
    return [
        reports.to_bytes()
        for reports in encode_batches(protocol, dataset, batch_size, seed)
    ]


def estimates_of(estimator) -> Dict[int, np.ndarray]:
    return {beta: table.values for beta, table in estimator.query_all().items()}


def assert_estimates_equal(observed, expected):
    assert observed.keys() == expected.keys()
    for beta in expected:
        np.testing.assert_array_equal(observed[beta], expected[beta])


def forge_report_frame(
    kind: str,
    rows: int,
    fields: Sequence[Tuple[int, Sequence[int], bytes]],
    scalars: Sequence[int] = (),
    version: int = None,
) -> bytes:
    """Hand-build a report frame from raw layout entries and field bytes.

    ``fields`` holds one ``(width, extents, data)`` per schema field, in
    schema order; nothing is checked, so tests can forge any layout.
    """
    from repro.protocols.wire import WIRE_FORMAT_VERSION

    layout = struct.pack("<I", rows)
    for width, extents, _ in fields:
        layout += struct.pack("<B", width)
        layout += struct.pack(f"<{len(extents)}I", *extents)
    layout += struct.pack(f"<{len(scalars)}q", *scalars)
    payload = layout + b"".join(data for _, _, data in fields)
    name = kind.encode("utf-8")
    return (
        struct.pack(
            "<4sHH",
            b"RPRB",
            WIRE_FORMAT_VERSION if version is None else version,
            len(name),
        )
        + name
        + struct.pack("<Q", len(payload))
        + payload
    )


def pack_planes(values, width: int = 1) -> bytes:
    """``width`` LSB-first bit planes of ``values``: the wire layout of a
    non-RAW field (plane ``j`` holds bit ``j`` of every value)."""
    words = np.asarray(values, dtype=np.uint64)
    planes = (words >> np.arange(width, dtype=np.uint64)[:, None]) & np.uint64(1)
    return np.packbits(planes.astype(np.uint8), axis=1, bitorder="little").tobytes()


def state_bytes(session) -> Dict[str, object]:
    """A session's ``state_dict`` (dtype, shape and raw bytes per array) plus
    its counters, so two snapshots compare equal only if byte-identical."""
    state = session._accumulator.state_dict()
    frozen: Dict[str, object] = {"metadata": session.metadata}
    for key, value in state.items():
        array = np.asarray(value)
        frozen[key] = (str(array.dtype), array.shape, array.tobytes())
    return frozen


def write_non_finite_checkpoint(session, path, *, extra=None, value=np.nan):
    """Write ``session`` to ``path`` with every float state array set to
    ``value``, re-stamped so the digest matches: only the finiteness check
    on restore can tell this checkpoint from a healthy one."""
    from repro.resilience.integrity import embed_integrity

    with np.load(io.BytesIO(session.checkpoint_bytes(extra=extra))) as archive:
        header = json.loads(str(archive["header"][()]))
        state = {
            name[len("state__"):]: archive[name]
            for name in archive.files
            if name.startswith("state__")
        }
    for name, array in state.items():
        if array.dtype.kind == "f":
            state[name] = np.full_like(array, value)
    header = embed_integrity(header, state)
    with open(path, "wb") as handle:
        np.savez(
            handle,
            header=np.array(json.dumps(header)),
            **{"state__" + name: array for name, array in state.items()},
        )
