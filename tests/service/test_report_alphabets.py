"""Decode-time alphabet checks: no report outside its mechanism's output
alphabet may touch aggregation state.

Every rejection below asserts two things: the submit raises
:class:`WireFormatError` (which the collection server turns into an ERR),
and the session's ``state_dict`` is byte-identical before and after.
"""

from __future__ import annotations

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from repro.core.exceptions import WireFormatError
from repro.protocols.inp_ht import InpHTReports
from repro.protocols.inp_htcms import InpHTCMSReports
from repro.protocols.inp_ps import InpPSReports
from repro.protocols.inp_rr import InpRRReports
from repro.service import AggregationSession, decode_reports, report_schema_for

from .util import (
    ALL_PROTOCOLS,
    build,
    encode_batches,
    forge_report_frame,
    pack_planes,
    small_dataset,
    state_bytes,
)

D = 4


@pytest.fixture(scope="module")
def dataset():
    return small_dataset(n=96, d=D)


def _primed_session(name, dataset):
    """A session that has already folded one valid batch."""
    protocol = build(name)
    session = AggregationSession(protocol.spec(), dataset.domain)
    (reports,) = encode_batches(protocol, dataset, None)
    session.submit(reports.to_bytes())
    return session, reports


def _assert_refused(session, submission, match=None):
    before = state_bytes(session)
    with pytest.raises(WireFormatError, match=match):
        session.submit(submission)
    assert state_bytes(session) == before


def _raw_floats(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


# The poisoned frames the collector used to accept: each permanently
# corrupted the estimate (NaN, 2.8e302 and -2013 marginals; +-inf; NaN).
POISONED_SUMS = {"nan": np.nan, "1e300": 1e300, "-7": -7.0}


@pytest.mark.parametrize("label", sorted(POISONED_SUMS))
def test_poisoned_inprr_sums_rejected(label, dataset):
    session, _ = _primed_session("InpRR", dataset)
    sums = np.zeros(1 << D)
    sums[3] = POISONED_SUMS[label]
    poisoned = InpRRReports(report_sums=sums, num_users=10)
    with pytest.raises(WireFormatError, match="count alphabet"):
        poisoned.to_bytes()  # not representable on the wire
    _assert_refused(session, poisoned, match="count alphabet")
    # The nearest wire forms: the raw float64 words, and a count word
    # above num_users.
    as_floats = forge_report_frame(
        "InpRR", 0, [(64, (1 << D,), _raw_floats(sums))], scalars=(10,)
    )
    _assert_refused(session, as_floats, match="count alphabet takes")
    counts = np.zeros(1 << D, dtype=np.uint64)
    counts[3] = 7 if label == "-7" else 60000
    over = forge_report_frame(
        "InpRR", 0, [(16, (1 << D,), pack_planes(counts, 16))], scalars=(10,)
    )
    if label == "-7":
        # 7 <= num_users is a legal count; -7 itself cannot be written.
        session.submit(over)
    else:
        _assert_refused(session, over, match=r"num_users = 10")


def test_poisoned_inpht_values_rejected(dataset):
    session, _ = _primed_session("InpHT", dataset)
    values = np.array([np.inf, 5.0, -3.0])
    poisoned = InpHTReports(choices=np.zeros(3, dtype=np.int64), noisy_values=values)
    with pytest.raises(WireFormatError, match="sign alphabet"):
        poisoned.to_bytes()
    _assert_refused(session, poisoned, match="sign alphabet")
    forged = forge_report_frame(
        "InpHT", 3, [(1, (), pack_planes([0, 0, 0])), (64, (), _raw_floats(values))]
    )
    _assert_refused(session, forged, match="sign alphabet takes 1..1 bits")


def test_poisoned_inphtcms_signs_rejected(dataset):
    session, _ = _primed_session("InpHTCMS", dataset)
    signs = np.array([np.nan, 9.0])
    poisoned = InpHTCMSReports(
        hash_indices=np.zeros(2, dtype=np.int64),
        coefficient_indices=np.zeros(2, dtype=np.int64),
        noisy_signs=signs,
    )
    with pytest.raises(WireFormatError, match="sign alphabet"):
        poisoned.to_bytes()
    _assert_refused(session, poisoned, match="sign alphabet")
    zeros = pack_planes([0, 0])
    forged = forge_report_frame(
        "InpHTCMS", 2, [(1, (), zeros), (1, (), zeros), (64, (), _raw_floats(signs))]
    )
    _assert_refused(session, forged, match="sign alphabet takes 1..1 bits")


def test_inpps_index_range_checked_at_decode(dataset):
    """InpPS's range check lives at decode, not at fold."""
    session, _ = _primed_session("InpPS", dataset)
    frame = InpPSReports(noisy_indices=np.array([0, 1 << D])).to_bytes()
    decode_reports(frame)  # well-formed on its own: the bound is the spec's
    _assert_refused(session, frame, match=r"2\^d = 16")
    with pytest.raises(WireFormatError, match="index alphabet"):
        InpPSReports(noisy_indices=np.array([-1])).to_bytes()


INDEX_CASES = [
    (name, spec.name)
    for name in ALL_PROTOCOLS
    for spec in report_schema_for(name).fields
    if spec.alphabet.kind == "index"
]


@pytest.mark.parametrize("name,field", INDEX_CASES)
def test_index_one_past_its_bound_rejected(name, field, dataset):
    session, reports = _primed_session(name, dataset)
    (spec,) = [s for s in report_schema_for(name).fields if s.name == field]
    bound = session.protocol.alphabet_sizes(D)[spec.alphabet.size]
    values = np.array(getattr(reports, field))
    values[0] = bound
    poisoned = dataclasses.replace(reports, **{field: values})
    match = re.escape(spec.alphabet.size)
    _assert_refused(session, poisoned.to_bytes(), match=match)
    _assert_refused(session, poisoned, match=match)
    values[0] = bound - 1
    session.submit(dataclasses.replace(reports, **{field: values}).to_bytes())


@pytest.mark.parametrize(
    "name,field", [("MargRR", "cell_bits"), ("InpEM", "noisy_records")]
)
def test_wrong_column_count_rejected(name, field, dataset):
    session, reports = _primed_session(name, dataset)
    narrow = dataclasses.replace(reports, **{field: getattr(reports, field)[:, 1:]})
    _assert_refused(session, narrow.to_bytes(), match="along its last axis")


def test_wrong_sum_length_rejected(dataset):
    session, reports = _primed_session("InpRR", dataset)
    short = dataclasses.replace(reports, report_sums=reports.report_sums[:-1])
    _assert_refused(session, short.to_bytes(), match=r"2\^d")


def test_in_memory_batches_checked_too(dataset):
    session, reports = _primed_session("MargRR", dataset)
    bits = np.array(reports.cell_bits)
    bits[0, 0] = 2
    _assert_refused(
        session, dataclasses.replace(reports, cell_bits=bits), match="bit alphabet"
    )


def test_amplification_frame_rejected_before_allocation():
    """A few payload bytes declaring millions of InpPS rows: the exact-length
    check refuses it before any array exists, so decode memory stays within
    a small multiple of the frame."""
    frame = forge_report_frame("InpPS", 5_000_000, [(8, (), bytes(64))])
    tracemalloc.start()
    try:
        with pytest.raises(WireFormatError, match="row count"):
            decode_reports(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(frame) + 64 * 1024


def test_rows_need_payload_bits():
    """Rows must be paid for in bits: a 2-D field with zero columns cannot
    carry a row count on its own."""
    frame = forge_report_frame("InpEM", 1 << 30, [(1, (0,), b"")])
    with pytest.raises(WireFormatError, match="carry no bits"):
        decode_reports(frame)


@pytest.mark.parametrize("name", ["InpHT", "MargRR", "InpEM", "InpOLH"])
def test_decode_memory_is_bounded_by_frame_bytes(name):
    """Widening a legitimate large frame costs at most 64x its bytes (a
    1-bit sign becomes a float64) plus constant-size temporaries."""
    protocol = build(name)
    records = small_dataset(n=100_000, d=6, seed=5).records
    frame = protocol.encode_batch(records, rng=np.random.default_rng(1)).to_bytes()
    tracemalloc.start()
    try:
        decode_reports(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(frame) + (1 << 20)


@pytest.mark.parametrize("oracle", ["InpOLH", "InpHT", "InpHTCMS"])
def test_hh_inner_reports_checked_per_level(oracle, dataset):
    """The HH column blocks travel raw, so each level's unpacked inner
    reports are checked against that level's oracle alphabets."""
    from repro.core.privacy import PrivacyBudget
    from repro.heavyhitters import HeavyHitters

    protocol = HeavyHitters(PrivacyBudget(1.0), 2, oracle=oracle, fanout=2)
    session = AggregationSession(protocol.spec(), dataset.domain)
    reports = protocol.encode_batch(dataset.records, rng=np.random.default_rng(4))
    session.submit(reports.to_bytes())
    if oracle == "InpHT":
        floats = np.array(reports.float_data)
        floats[0, 0] = 0.5
        poisoned = dataclasses.replace(reports, float_data=floats)
        match = "sign alphabet"
    else:
        ints = np.array(reports.int_data)
        ints[0, 1] = 1 << 40  # bucket / coefficient index far past its range
        poisoned = dataclasses.replace(reports, int_data=ints)
        match = "index alphabet"
    _assert_refused(session, poisoned.to_bytes(), match=match)
