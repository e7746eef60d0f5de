"""The collection-service API: spec → wire → session.

This package is the deployment-shaped face of the library, mirroring how
production LDP collectors (Apple's HCMS deployment, RAPPOR-style pipelines)
are actually wired:

* :class:`ProtocolSpec` — a declarative, JSON-round-trippable protocol
  configuration that client and server agree on out-of-band
  (``spec.build()`` instantiates the protocol on either side);
* the **report wire codec** — every protocol's report batch serializes to a
  validated, versioned byte frame (``reports.to_bytes()`` /
  ``Reports.from_bytes()`` / ``protocol.decode_reports(buf)``), so reports
  cross process and machine boundaries without pickle;
* :class:`AggregationSession` — the long-lived server object: byte-level
  ``submit``, non-destructive mid-stream ``snapshot``, and
  ``checkpoint``/``restore`` so an aggregation survives process restarts
  and resumes bit-for-bit.

The simulation entry points (``run``/``run_streaming``, the sweep harness,
the CLI) are re-plumbed over the same layer, so the simulated and deployed
paths produce identical estimates by construction.
"""

from ..protocols.wire import (
    WIRE_FORMAT_VERSION,
    Alphabet,
    ReportField,
    ReportSchema,
    WireCodableReports,
    available_report_kinds,
    decode_reports,
    encode_reports,
    iter_report_frames,
    register_report_schema,
    report_schema_for,
    split_report_frames,
)
from .session import CHECKPOINT_FORMAT_VERSION, AggregationSession
from .spec import SPEC_FORMAT_VERSION, ProtocolSpec

__all__ = [
    # spec
    "ProtocolSpec",
    "SPEC_FORMAT_VERSION",
    # wire codec
    "WIRE_FORMAT_VERSION",
    "Alphabet",
    "ReportField",
    "ReportSchema",
    "WireCodableReports",
    "available_report_kinds",
    "register_report_schema",
    "report_schema_for",
    "encode_reports",
    "decode_reports",
    "iter_report_frames",
    "split_report_frames",
    # session
    "AggregationSession",
    "CHECKPOINT_FORMAT_VERSION",
]
