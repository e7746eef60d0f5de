"""Serialized report sizes must track the paper's Table 2 communication.

Table 2 counts the *information-theoretic* bits each user sends (a marginal
index in ``d`` bits, a noisy value in 1 bit, ...).  The wire codec packs
every field at its alphabet's width — signs and cell bits in 1 bit, indices
in at most ``ceil(log2 n)`` bits — so the measured per-user payload must
stay within a quarter of the Table 2 bound, plus a constant per-frame
header (frame header, layout block and each bit plane's byte padding):

* lower bound — the wire can compress below Table 2 only for sum-form
  reports (``InpRR`` ships ``2^d`` column counts per *batch*, amortising
  the per-user ``2^d`` bits), and even then never below ``1/64`` of it;
* upper bound — ``1.25 x`` Table 2 bits per user plus
  :data:`MAX_FRAME_OVERHEAD_BYTES` per frame.

Protocols outside Table 2 are held to their own ``communication_bits``;
their 64-bit fields (OLH seeds, the HH column blocks) travel raw.
"""

from __future__ import annotations

import pytest

from repro.service import AggregationSession
from repro.theory import bounds

from .util import ALL_PROTOCOLS, build, encode_batches, small_dataset

#: Wire bits per Table 2 bit, beyond the per-frame header.
TABLE2_FACTOR = 1.25

#: Protocols Table 2 covers (``theory.bounds.communication_bits``).
TABLE2_PROTOCOLS = ("InpRR", "InpPS", "InpHT", "MargRR", "MargPS", "MargHT")

#: Wire bits per ``communication_bits`` bit for the other protocols: the
#: HH column blocks carry every inner field as a raw 64-bit word.
OTHER_FACTOR = 2.0

#: Frame header + layout block + per-plane byte padding, per frame.
MAX_FRAME_OVERHEAD_BYTES = 64

#: The wire never undercuts Table 2 by more than this (sum-form InpRR).
MIN_RATIO = 1.0 / 64

N = 200
D = 6
K = 2


@pytest.fixture(scope="module")
def dataset():
    return small_dataset(n=N, d=D, seed=11)


def _wire_bytes(name, dataset):
    protocol = build(name, width=K)
    (reports,) = encode_batches(protocol, dataset, None)
    frame = reports.to_bytes()

    session = AggregationSession(protocol.spec(), dataset.domain)
    session.submit(frame)
    metadata = session.metadata
    assert metadata["wire_bytes_total"] == len(frame)
    assert metadata["wire_reports"] == N
    return protocol, len(frame)


@pytest.mark.parametrize("name", TABLE2_PROTOCOLS)
def test_wire_bits_per_user_track_table2(name, dataset):
    _, wire_bytes = _wire_bytes(name, dataset)
    table2_bits = bounds.communication_bits(name, D, K)
    budget = TABLE2_FACTOR * table2_bits * N / 8 + MAX_FRAME_OVERHEAD_BYTES
    ratio = 8.0 * wire_bytes / N / table2_bits
    assert MIN_RATIO <= ratio, f"{name}: ratio {ratio:.3f} below the floor"
    assert wire_bytes <= budget, (
        f"{name}: {wire_bytes} wire bytes for {N} users exceeds "
        f"{TABLE2_FACTOR} x Table 2's {table2_bits} bits/user plus a "
        f"{MAX_FRAME_OVERHEAD_BYTES}-byte header ({budget:.0f} bytes)"
    )


@pytest.mark.parametrize(
    "name", [name for name in ALL_PROTOCOLS if name not in TABLE2_PROTOCOLS]
)
def test_other_protocols_track_their_communication_bits(name, dataset):
    protocol, wire_bytes = _wire_bytes(name, dataset)
    bits = protocol.communication_bits(D)
    budget = OTHER_FACTOR * bits * N / 8 + MAX_FRAME_OVERHEAD_BYTES
    assert MIN_RATIO <= 8.0 * wire_bytes / N / bits
    assert wire_bytes <= budget, (
        f"{name}: {wire_bytes} wire bytes for {N} users exceeds "
        f"{OTHER_FACTOR} x its {bits} bits/user plus the header"
    )


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_container_overhead_is_bounded(name, dataset):
    """An empty batch's frame is pure overhead (header and layout block);
    it must fit the per-frame allowance the bands above grant."""
    protocol = build(name, width=K)
    reports = protocol.encode_batch(dataset.records[:0])
    assert reports.num_users == 0
    assert 0 < len(reports.to_bytes()) <= MAX_FRAME_OVERHEAD_BYTES


def test_table2_protocols_match_bounds_module(dataset):
    """The protocol objects and ``theory.bounds`` agree on Table 2."""
    for name in TABLE2_PROTOCOLS:
        assert build(name, width=K).communication_bits(D) == (
            bounds.communication_bits(name, D, K)
        )


def test_batching_amortises_sum_form_reports(dataset):
    """InpRR's per-batch column sums shrink the per-user wire cost as the
    batch grows — the deployment story for its otherwise 2^d-bit reports."""
    protocol = build("InpRR")
    small_frames = encode_batches(protocol, dataset, 20)
    (large_frame,) = encode_batches(protocol, dataset, None)
    small_bytes = sum(len(reports.to_bytes()) for reports in small_frames)
    assert len(large_frame.to_bytes()) < small_bytes
