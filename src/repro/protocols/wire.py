"""Byte-level wire codec for protocol report batches.

The streaming pipeline moves report batches between the client-side
:meth:`~repro.protocols.base.MarginalReleaseProtocol.encode_batch` and the
aggregator-side :class:`~repro.protocols.base.Accumulator` as in-memory
dataclasses.  This module gives every one of those dataclasses a portable
byte form so reports can cross process and machine boundaries without
pickle: each protocol registers a :class:`ReportSchema` describing its
report fields (name, dtype, rank and output :class:`Alphabet`), and the
codec packs them into a self-describing *frame*::

    offset  size  content
    0       4     magic  b"RPRB"
    4       2     wire-format version (little-endian u16, currently 2)
    6       2     report-kind length L (little-endian u16)
    8       L     report kind, UTF-8 (the protocol name, e.g. b"InpHT")
    8 + L   8     payload length P (little-endian u64)
    16 + L  P     payload (below)

The payload is a fixed-size *layout block* followed by the field data::

    u32            row count R (users in the batch; 0 for sum-form schemas)
    per field      u8 word width w, then u32 extents: the trailing axes of a
                   per-user field (R is its first axis) or every axis of a
                   sum-form field
    per scalar     i64 value (e.g. InpRR's num_users)
    per field      the field's N values (row-major): a RAW field as N
                   little-endian 64-bit words, any other as w bit planes
                   of ceil(N / 8) bytes each, plane j holding bit j of
                   every word, LSB-first

Word widths follow each field's declared alphabet, so a report costs about
the paper's Table 2 bits rather than a 64-bit word per logical value:

    alphabet  values                                  decoded dtype  w
    SIGN      -1/+1 (sign-RR outputs)                 float64        1
    BIT       0/1 cells (MargRR cells, InpEM records) int8           1
    index(n)  0 <= v < n, n from the spec             int64          1..53
    COUNT     integral 0 <= v <= num_users (sums)     float64        1..53
    RAW       any 64-bit word (OLH seeds, HH blocks)  int64/float64  64

``index`` and ``COUNT`` words are as narrow as the batch's largest value
needs — at most ``ceil(log2 n)`` bits for a well-formed index field.

Frames are length-prefixed, so any number of them can be concatenated on a
byte stream (that is what ``repro encode | repro aggregate`` pipes) and
split back apart with :func:`iter_report_frames`.  Decoding checks the
magic, the version and the kind, that every width fits its alphabet, and
that the payload holds exactly the bytes the row count, extents and widths
imply — so the row count is bounded by the payload's bits and no forged
header can make the decoder allocate more than a fixed multiple of the
frame it was sent.  Values are read through ``np.frombuffer`` views of the
frame and widened into fresh arrays of the schema dtypes, so decoded
batches never pin the buffer they came from.  Anything off raises
:class:`~repro.core.exceptions.WireFormatError` instead of corrupting the
aggregation; :func:`check_alphabet` adds the spec-dependent checks (index
ranges, extents) that ``protocol.decode_reports`` runs before a batch can
touch state.

Every alphabet value round-trips exactly, so an encode → ``to_bytes`` →
``from_bytes`` → aggregate round trip is bit-for-bit identical to handing
the in-memory batch straight to the accumulator.  A batch holding a value
outside its alphabet (a NaN sign, a negative index) is not representable
and ``to_bytes`` refuses it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.exceptions import WireFormatError

__all__ = [
    "WIRE_FORMAT_VERSION",
    "MAX_PAYLOAD_BYTES",
    "REPORT_MAGIC",
    "FRAME_PREFIX",
    "FRAME_LENGTH",
    "Alphabet",
    "SIGN",
    "BIT",
    "COUNT",
    "RAW",
    "index",
    "ReportField",
    "ReportSchema",
    "WireCodableReports",
    "available_report_kinds",
    "register_report_schema",
    "report_schema_for",
    "encode_reports",
    "decode_reports",
    "check_alphabet",
    "concat_report_batches",
    "iter_report_frames",
    "split_report_frames",
]

#: Version stamp written into every frame header.  Bump on any layout change.
WIRE_FORMAT_VERSION = 2

#: Hard per-frame payload limit (1 GiB), enforced on encode and decode.  A
#: real report batch is orders of magnitude smaller; a declared length above
#: this is a corrupted/forged header, and rejecting it up front keeps a
#: streaming reader from buffering unbounded input on one flipped bit.
MAX_PAYLOAD_BYTES = 1 << 30

_MAGIC = b"RPRB"
_PREFIX = struct.Struct("<4sHH")  # magic, version, kind length
_LENGTH = struct.Struct("<Q")  # payload length

#: Public aliases of the frame header layout, shared with the collection
#: service's session framing (``repro.server.framing``) so the two frame
#: families cannot silently drift apart.
REPORT_MAGIC = _MAGIC
FRAME_PREFIX = _PREFIX
FRAME_LENGTH = _LENGTH

_U32_MAX = 0xFFFFFFFF

#: Plane bits merged per decode step.  It caps the unpacking temporaries at
#: a constant, so decode memory is the widened output plus O(1).
_CHUNK_BITS = 1 << 17


@dataclass(frozen=True)
class Alphabet:
    """The set of values one report field may take.

    ``kind`` (``"sign"``, ``"bit"``, ``"index"``, ``"count"`` or ``"raw"``)
    fixes the wire width and the decode checks (see the module header);
    ``size`` names the spec quantity bounding an ``index`` field
    (``"|T|"``, ``"2^d"``, ``"C(d,k)"``, ...), which each protocol resolves
    in ``alphabet_sizes(dimension)``.
    """

    kind: str
    size: Optional[str] = None


#: Allowed word widths (inclusive) per alphabet kind.
_WIDTHS: Dict[str, Tuple[int, int]] = {
    "sign": (1, 1),
    "bit": (1, 1),
    # Below 2^53, so every index word is exact in float64 and int64.
    "index": (1, 53),
    # float64 holds every integer below 2^53 exactly.
    "count": (1, 53),
    "raw": (64, 64),
}

SIGN = Alphabet("sign")
BIT = Alphabet("bit")
#: Integral counts bounded by the batch's ``num_users`` scalar field.
COUNT = Alphabet("count")
RAW = Alphabet("raw")


def index(size: str) -> Alphabet:
    """The alphabet ``{0, ..., n - 1}`` with ``n`` the spec quantity ``size``."""
    return Alphabet("index", size)


@dataclass(frozen=True)
class ReportField:
    """One array attribute of a report batch.

    ``dtype`` is the decoded dtype: float64 for ``SIGN`` and ``COUNT``,
    int8 for ``BIT``, int64 for ``index``, any 8-byte type for ``RAW``.
    ``per_user`` marks arrays with one row per reporting user; all such
    fields of a batch must agree on their row count, which then defines the
    batch's ``num_users``.  Sum-form fields (e.g. ``InpRR``'s per-cell
    report sums) set ``per_user=False`` and carry no row constraint.
    ``extent`` names the spec quantity the field's last axis must equal
    (``"2^k"`` cells, ``"d"`` attributes, ...); :func:`check_alphabet`
    enforces it.
    """

    name: str
    dtype: np.dtype
    alphabet: Alphabet
    ndim: int = 1
    per_user: bool = True
    extent: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))


@dataclass(frozen=True)
class ReportSchema:
    """Wire description of one protocol's report-batch dataclass."""

    kind: str
    report_class: type
    fields: Tuple[ReportField, ...]
    #: Non-array integer attributes (e.g. ``InpRR``'s ``num_users``).
    scalar_fields: Tuple[str, ...] = field(default=())
    #: The payload's fixed-size layout block (see the module header).
    layout: struct.Struct = field(init=False, repr=False, compare=False)
    #: Per field: (field, alphabet kind, extent count, min width, max width).
    decode_plan: Tuple[Tuple[ReportField, str, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )
    #: Fields decoded together, as (first, stop, kinds, dtypes) over field
    #: positions: each run of consecutive 1-D per-user bit-plane fields
    #: (they share the row count, so their planes are one contiguous
    #: matrix), and every other field on its own.
    decode_blocks: Tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = tuple(
            (
                f,
                f.alphabet.kind,
                f.ndim - 1 if f.per_user else f.ndim,
                *_WIDTHS[f.alphabet.kind],
            )
            for f in self.fields
        )
        layout = "<I" + "".join("B" + "I" * entry[2] for entry in plan)
        layout += "q" * len(self.scalar_fields)
        blocks = []
        for position, f in enumerate(self.fields):
            fuses = f.alphabet.kind != "raw" and f.per_user and f.ndim == 1
            if fuses and blocks and blocks[-1][1]:
                blocks[-1][0].append(position)
            else:
                blocks.append(([position], fuses))
        object.__setattr__(self, "layout", struct.Struct(layout))
        object.__setattr__(self, "decode_plan", plan)
        object.__setattr__(
            self,
            "decode_blocks",
            tuple(
                (
                    block[0],
                    block[-1] + 1,
                    tuple(self.fields[p].alphabet.kind for p in block),
                    tuple(self.fields[p].dtype for p in block),
                )
                for block, _ in blocks
            ),
        )


_SCHEMAS_BY_KIND: Dict[str, ReportSchema] = {}
_SCHEMAS_BY_CLASS: Dict[type, ReportSchema] = {}


def register_report_schema(
    kind: str,
    report_class: type,
    fields: Tuple[ReportField, ...],
    scalar_fields: Tuple[str, ...] = (),
) -> ReportSchema:
    """Register a report dataclass with the wire codec (one per protocol)."""
    schema = ReportSchema(
        kind=kind,
        report_class=report_class,
        fields=tuple(fields),
        scalar_fields=tuple(scalar_fields),
    )
    existing = _SCHEMAS_BY_KIND.get(kind)
    if existing is not None and existing.report_class is not report_class:
        raise WireFormatError(
            f"report kind {kind!r} is already registered to "
            f"{existing.report_class.__name__}"
        )
    _SCHEMAS_BY_KIND[kind] = schema
    _SCHEMAS_BY_CLASS[report_class] = schema
    return schema


def available_report_kinds() -> Tuple[str, ...]:
    """All registered report kinds (one per protocol), sorted."""
    return tuple(sorted(_SCHEMAS_BY_KIND))


def report_schema_for(key: Union[str, type]) -> ReportSchema:
    """Look up a schema by report kind, report class or report instance type."""
    if isinstance(key, str):
        try:
            return _SCHEMAS_BY_KIND[key]
        except KeyError:
            raise WireFormatError(
                f"unknown report kind {key!r}; registered kinds: "
                f"{list(available_report_kinds())}",
                reason="kind",
            ) from None
    try:
        return _SCHEMAS_BY_CLASS[key]
    except KeyError:
        raise WireFormatError(
            f"{key.__name__} is not registered with the report wire codec",
            reason="kind",
        ) from None


class WireCodableReports:
    """Mixin giving a registered report dataclass its byte form."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        """Serialize this batch into one self-describing wire frame."""
        return encode_reports(self)

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray, memoryview]):
        """Decode one wire frame into a validated report batch of this type."""
        return decode_reports(data, expected_kind=report_schema_for(cls).kind)


def encode_reports(reports: Any) -> bytes:
    """Serialize a report batch into one wire frame (see the module header)."""
    schema = report_schema_for(type(reports))
    arrays, rows = _checked_arrays(schema, reports)
    scalars = _checked_scalars(schema, reports)
    num_users = scalars.get("num_users", rows)
    layout = [rows if rows is not None else 0]
    blocks = []
    for spec, value in zip(schema.fields, arrays):
        _check_values(schema, spec, value, num_users, size=None)
        extents = value.shape[1:] if spec.per_user else value.shape
        if any(extent > _U32_MAX for extent in extents):
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} has shape {value.shape}; "
                f"every extent must fit in 32 bits",
                reason="length",
            )
        width, block = _pack_field(spec, value.reshape(-1))
        layout += [width, *extents]
        blocks.append(block)
    layout += [scalars[name] for name in schema.scalar_fields]
    if layout[0] > _U32_MAX:
        raise WireFormatError(
            f"{schema.kind} report batch has {layout[0]} rows, above the "
            f"{_U32_MAX}-row frame limit; encode smaller batches",
            reason="length",
        )
    payload = schema.layout.pack(*layout) + b"".join(blocks)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireFormatError(
            f"{schema.kind} report batch serializes to {len(payload)} bytes, "
            f"above the {MAX_PAYLOAD_BYTES}-byte frame limit; encode smaller "
            f"batches",
            reason="length",
        )
    kind = schema.kind.encode("utf-8")
    return (
        _PREFIX.pack(_MAGIC, WIRE_FORMAT_VERSION, len(kind))
        + kind
        + _LENGTH.pack(len(payload))
        + payload
    )


def decode_reports(
    data: Union[bytes, bytearray, memoryview], expected_kind: str = None
) -> Any:
    """Decode exactly one wire frame into a validated report batch.

    The buffer must hold one complete frame and nothing else; use
    :func:`iter_report_frames` for concatenated frames.  ``expected_kind``
    additionally pins the frame to one protocol's reports.

    ``bytearray``/``memoryview`` input is parsed in place (no up-front
    ``bytes`` copy) — the zero-copy server ingest path hands receive-buffer
    views straight in.
    """
    buffer = data if isinstance(data, (bytes, memoryview)) else memoryview(data)
    reports, consumed = _decode_frame(buffer, expected_kind)
    if consumed != len(buffer):
        raise WireFormatError(
            f"report frame holds {consumed} bytes but the buffer has "
            f"{len(buffer)}; trailing data is not allowed (use "
            f"iter_report_frames for concatenated frames)",
            reason="length",
        )
    return reports


def check_alphabet(
    reports: Any, sizes: Mapping[str, int], *, decoded: bool = False
) -> None:
    """Check a report batch against its schema's alphabets and extents.

    ``sizes`` resolves the spec quantities the schema names (the
    protocol's ``alphabet_sizes(dimension)``).  Covers what the frame
    layout alone cannot: every index below its ``n`` and every ``extent``
    equal to its spec value.  Unless ``decoded`` says the batch came out
    of :func:`decode_reports` — whose layout already guarantees them — the
    dtypes, ranks, row agreement and every value's membership are checked
    too.  Raises :class:`~repro.core.exceptions.WireFormatError` on the
    first violation.
    """
    schema = report_schema_for(type(reports))
    if decoded:
        arrays = [getattr(reports, spec.name) for spec in schema.fields]
    else:
        arrays, rows = _checked_arrays(schema, reports)
        num_users = _checked_scalars(schema, reports).get("num_users", rows)
    for spec, value in zip(schema.fields, arrays):
        if spec.extent is not None and value.shape[-1] != sizes[spec.extent]:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must have "
                f"{sizes[spec.extent]} entries ({spec.extent}) along its last "
                f"axis, got shape {value.shape}",
                reason="length",
            )
        bound = spec.alphabet.size
        if not decoded:
            _check_values(
                schema, spec, value, num_users, None if bound is None else sizes[bound]
            )
        elif bound is not None and value.size and value.max() >= sizes[bound]:
            raise _outside_alphabet(schema, spec, f"[0, {bound} = {sizes[bound]})")


def _checked_arrays(schema: ReportSchema, reports: Any):
    """Each field as an array of its schema dtype and rank, plus the rows."""
    arrays = []
    rows = None
    rows_field = None
    for spec in schema.fields:
        value = np.asarray(getattr(reports, spec.name))
        if value.dtype != spec.dtype:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must have dtype "
                f"{spec.dtype}, got {value.dtype}",
                reason="alphabet",
            )
        if value.ndim != spec.ndim:
            raise WireFormatError(
                f"{schema.kind} field {spec.name!r} must be {spec.ndim}-D, "
                f"got {value.ndim}-D",
                reason="length",
            )
        if spec.per_user:
            if rows is None:
                rows, rows_field = int(value.shape[0]), spec.name
            elif int(value.shape[0]) != rows:
                raise WireFormatError(
                    f"{schema.kind} per-user fields disagree on the batch "
                    f"size: {rows_field!r} has {rows} rows but "
                    f"{spec.name!r} has {value.shape[0]}",
                    reason="length",
                )
        arrays.append(value)
    return arrays, rows


def _checked_scalars(schema: ReportSchema, reports: Any) -> Dict[str, int]:
    scalars = {}
    for name in schema.scalar_fields:
        value = int(getattr(reports, name))
        if not 0 <= value < 1 << 63:
            raise WireFormatError(
                f"{schema.kind} field {name!r} must be a non-negative 64-bit "
                f"integer, got {value}",
                reason="alphabet",
            )
        scalars[name] = value
    return scalars


def _check_values(
    schema: ReportSchema,
    spec: ReportField,
    value: np.ndarray,
    num_users: Optional[int],
    size: Optional[int],
) -> None:
    """Raise unless every value of ``value`` lies in the field's alphabet."""
    kind = spec.alphabet.kind
    if kind == "raw" or value.size == 0:
        return
    if kind == "sign":
        valid = bool(np.all((value == 1.0) | (value == -1.0)))
        expected = "{-1, +1}"
    elif kind == "bit":
        valid = bool(np.all((value == 0) | (value == 1)))
        expected = "{0, 1}"
    elif kind == "index":
        if size is None:
            # Without a spec only the widest index word bounds the value.
            size = 1 << _WIDTHS["index"][1]
        valid = int(value.min()) >= 0 and int(value.max()) < size
        expected = f"[0, {spec.alphabet.size} = {size})"
    else:  # count
        with np.errstate(invalid="ignore"):
            valid = bool(
                np.all(np.isfinite(value))
                and np.all(value == np.floor(value))
                and value.min() >= 0
                and value.max() <= num_users
            )
        expected = f"integral counts in [0, num_users = {num_users}]"
    if not valid:
        raise _outside_alphabet(schema, spec, expected)


def _outside_alphabet(
    schema: ReportSchema, spec: ReportField, expected: str
) -> WireFormatError:
    return WireFormatError(
        f"{schema.kind} field {spec.name!r} holds values outside its "
        f"{spec.alphabet.kind} alphabet {expected}",
        reason="alphabet",
    )


def _pack_field(spec: ReportField, flat: np.ndarray) -> Tuple[int, bytes]:
    """The word width and packed bytes of an alphabet-checked field."""
    kind = spec.alphabet.kind
    if kind == "raw":
        return 64, flat.astype(spec.dtype.newbyteorder("<"), copy=False).tobytes()
    if kind in ("sign", "bit"):
        return 1, np.packbits(flat > 0, bitorder="little").tobytes()
    width = max(1, int(flat.max(initial=0)).bit_length())
    shifts = np.arange(width, dtype=np.uint64)[:, None]
    planes = ((flat.astype(np.uint64) >> shifts) & np.uint64(1)).astype(np.uint8)
    return width, np.packbits(planes, axis=1, bitorder="little").tobytes()


def concat_report_batches(batches):
    """Concatenate decoded report batches into one equivalent batch.

    The server's micro-batcher coalesces the frames of many connections
    into a single accumulator ``update`` call; this is the schema-driven
    concatenation that makes the coalesced update bit-for-bit identical to
    submitting the batches one by one.  Per-user fields concatenate along
    the user axis; sum-form fields (``per_user=False``, exact integer
    counts held in float64) add elementwise under a strict shape check;
    scalar fields add as Python ints.  Either grouping feeds the same
    exact integer sums into the accumulator, so the estimates agree to
    the last bit.
    """
    batches = list(batches)
    if not batches:
        raise WireFormatError("cannot concatenate zero report batches")
    if len(batches) == 1:
        return batches[0]
    schema = report_schema_for(type(batches[0]))
    for other in batches[1:]:
        if type(other) is not type(batches[0]):
            raise WireFormatError(
                f"cannot concatenate {type(batches[0]).__name__} with "
                f"{type(other).__name__} report batches"
            )
    values: Dict[str, Any] = {}
    for spec in schema.fields:
        arrays = [np.asarray(getattr(batch, spec.name)) for batch in batches]
        if spec.per_user:
            try:
                values[spec.name] = np.concatenate(arrays, axis=0)
            except ValueError as error:
                raise WireFormatError(
                    f"{schema.kind} field {spec.name!r} batches do not "
                    f"concatenate: {error}"
                ) from error
        else:
            first = arrays[0]
            for array in arrays[1:]:
                if array.shape != first.shape:
                    raise WireFormatError(
                        f"{schema.kind} field {spec.name!r} batches disagree "
                        f"on shape: {first.shape} vs {array.shape}"
                    )
            total = first.copy()
            for array in arrays[1:]:
                total += array
            values[spec.name] = total
    for name in schema.scalar_fields:
        values[name] = sum(int(getattr(batch, name)) for batch in batches)
    return schema.report_class(**values)


def iter_report_frames(
    source: Union[bytes, bytearray, memoryview, BinaryIO],
    expected_kind: str = None,
) -> Iterator[Any]:
    """Yield every report batch from a byte buffer or binary stream.

    Frames must be back-to-back; a partial trailing frame raises
    :class:`~repro.core.exceptions.WireFormatError`.
    """
    for frame in split_report_frames(source):
        reports, _ = _decode_frame(frame, expected_kind=expected_kind)
        yield reports


def split_report_frames(
    source: Union[bytes, bytearray, memoryview, BinaryIO],
) -> Iterator[bytes]:
    """Yield each frame's raw bytes without decoding the payloads.

    Lets a relay (or :class:`~repro.service.AggregationSession`) split a
    concatenated stream and hand complete frames on, paying the decode cost
    only once at the consumer.  A bytes buffer is split at absolute offsets
    (O(total bytes) regardless of frame count); a binary stream is read
    incrementally, one frame in memory at a time, so an aggregator can
    consume an arbitrarily long collection without slurping it whole.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        buffer = bytes(source)
        offset = 0
        while offset < len(buffer):
            _, _, frame_end = _parse_frame_header(buffer, offset)
            yield buffer[offset:frame_end]
            offset = frame_end
        return
    while True:
        frame = _read_exact(source, _PREFIX.size)
        if not frame:
            return
        if len(frame) == _PREFIX.size:
            magic, version, kind_length = _PREFIX.unpack(frame)
            # Validate before trusting any length field from the stream —
            # reading garbage lengths could block on gigabytes of input.
            if magic != _MAGIC:
                raise WireFormatError(
                    f"buffer does not start with a repro report frame "
                    f"(magic {magic!r}, expected {_MAGIC!r})",
                    reason="kind",
                )
            if version != WIRE_FORMAT_VERSION:
                raise WireFormatError(
                    f"report frame uses wire-format version {version}, but "
                    f"this library speaks version {WIRE_FORMAT_VERSION}",
                    reason="version",
                )
            header_rest = _read_exact(source, kind_length + _LENGTH.size)
            frame += header_rest
            if len(header_rest) == kind_length + _LENGTH.size:
                (payload_length,) = _LENGTH.unpack_from(header_rest, kind_length)
                if payload_length > MAX_PAYLOAD_BYTES:
                    raise WireFormatError(
                        f"report frame declares a {payload_length}-byte "
                        f"payload, above the {MAX_PAYLOAD_BYTES}-byte frame "
                        f"limit — corrupted length field?",
                        reason="length",
                    )
                frame += _read_exact(source, payload_length)
        # _parse_frame_header owns every truncation/kind check, so the
        # stream and buffer paths report identical errors.
        _parse_frame_header(frame, 0)
        yield frame


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    """Read exactly ``size`` bytes unless the stream ends first."""
    chunks = []
    remaining = size
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _parse_frame_header(buffer: bytes, offset: int) -> Tuple[str, int, int]:
    """Validate the frame header at ``offset``.

    Returns ``(kind, header_end, frame_end)`` as absolute positions into
    ``buffer``.  All transport-level checks — truncation, magic, wire-format
    version, kind decodability — live here, shared by frame splitting and
    frame decoding.
    """
    available = len(buffer) - offset
    if available < _PREFIX.size:
        raise WireFormatError(
            f"report frame is truncated: need at least {_PREFIX.size} header "
            f"bytes, got {available}",
            reason="length",
        )
    magic, version, kind_length = _PREFIX.unpack_from(buffer, offset)
    if magic != _MAGIC:
        raise WireFormatError(
            f"buffer does not start with a repro report frame "
            f"(magic {magic!r}, expected {_MAGIC!r})",
            reason="kind",
        )
    if version != WIRE_FORMAT_VERSION:
        raise WireFormatError(
            f"report frame uses wire-format version {version}, but this "
            f"library speaks version {WIRE_FORMAT_VERSION}",
            reason="version",
        )
    header_end = offset + _PREFIX.size + kind_length + _LENGTH.size
    if len(buffer) < header_end:
        raise WireFormatError(
            f"report frame is truncated inside its header: need "
            f"{header_end - offset} bytes, got {available}",
            reason="length",
        )
    kind_start = offset + _PREFIX.size
    try:
        kind = bytes(buffer[kind_start : kind_start + kind_length]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireFormatError(
            f"report frame kind is not valid UTF-8: {error}",
            reason="kind",
        ) from error
    (payload_length,) = _LENGTH.unpack_from(buffer, kind_start + kind_length)
    if payload_length > MAX_PAYLOAD_BYTES:
        raise WireFormatError(
            f"report frame declares a {payload_length}-byte payload, above "
            f"the {MAX_PAYLOAD_BYTES}-byte frame limit — corrupted length "
            f"field?",
            reason="length",
        )
    frame_end = header_end + payload_length
    if len(buffer) < frame_end:
        raise WireFormatError(
            f"report frame is truncated: payload declares {payload_length} "
            f"bytes but only {len(buffer) - header_end} follow the header",
            reason="length",
        )
    return kind, header_end, frame_end


def _decode_frame(buffer: bytes, expected_kind: str = None) -> Tuple[Any, int]:
    """Decode the frame at the start of ``buffer``; return (reports, size)."""
    kind, header_end, frame_end = _parse_frame_header(buffer, 0)
    schema = report_schema_for(kind)
    if expected_kind is not None and kind != expected_kind:
        raise WireFormatError(
            f"report frame carries {kind!r} reports, expected "
            f"{expected_kind!r}",
            reason="kind",
        )
    values = _decode_payload(schema, buffer, header_end, frame_end)
    return schema.report_class(**values), frame_end


def _decode_payload(
    schema: ReportSchema, buffer, start: int, end: int
) -> Dict[str, Any]:
    """Validate the payload's layout block, then widen every field.

    Every length is checked before the first array is allocated: the
    payload must hold exactly the bytes its row count, extents and widths
    imply.
    """
    layout = schema.layout
    size = end - start
    if size < layout.size:
        raise _corrupted(
            schema,
            f"{size} payload bytes cannot hold the {layout.size}-byte layout "
            f"block",
        )
    entries = layout.unpack_from(buffer, start)
    rows = entries[0]
    cursor = 1
    row_bits = 0
    offset = start + layout.size
    # Per field: word width, word count, shape (None: 1-D per-user) and
    # payload offset.
    widths, counts, shapes, offsets = [], [], [], []
    for spec, kind, extent_count, low, high in schema.decode_plan:
        width = entries[cursor]
        if not low <= width <= high:
            raise _corrupted(
                schema,
                f"field {spec.name!r} declares {width}-bit words, but its "
                f"{kind} alphabet takes {low}..{high} bits",
                "alphabet",
            )
        if extent_count:
            extents = entries[cursor + 1 : cursor + 1 + extent_count]
            if spec.per_user:
                row_bits += width * math.prod(extents)
                shape = (rows, *extents)
            else:
                shape = extents
            count = math.prod(shape)
        else:
            row_bits += width
            shape = None
            count = rows
        cursor += 1 + extent_count
        widths.append(width)
        counts.append(count)
        shapes.append(shape)
        offsets.append(offset)
        offset += count * 8 if kind == "raw" else width * ((count + 7) // 8)
    values: Dict[str, Any] = {}
    for name, value in zip(schema.scalar_fields, entries[cursor:]):
        if value < 0:
            raise _corrupted(
                schema, f"field {name!r} is negative ({value})", "alphabet"
            )
        values[name] = value
    if rows and not row_bits:
        # Rows must be paid for in payload bits, or a few bytes could
        # declare billions of users.
        raise _corrupted(
            schema, f"{rows} rows declared but the per-user fields carry no bits"
        )
    if offset != end:
        raise _corrupted(
            schema,
            f"the payload holds {size} bytes but its row count ({rows}), "
            f"extents and widths imply {offset - start}",
        )
    fields = schema.fields
    for first, stop, kinds, dtypes in schema.decode_blocks:
        count = counts[first]
        if kinds[0] == "raw":
            arrays = (_unpack_words(dtypes[0], buffer, offsets[first], count),)
        else:
            arrays = _unpack_planes(
                kinds, tuple(widths[first:stop]), dtypes, buffer, offsets[first], count
            )
        for position, kind, array in zip(range(first, stop), kinds, arrays):
            spec = fields[position]
            if kind == "count" and count and array.max() > values["num_users"]:
                raise _outside_alphabet(
                    schema, spec, f"[0, num_users = {values['num_users']}]"
                )
            shape = shapes[position]
            values[spec.name] = array if shape is None else array.reshape(shape)
    return values


def _corrupted(
    schema: ReportSchema, detail: str, reason: str = "length"
) -> WireFormatError:
    return WireFormatError(
        f"{schema.kind} report payload is corrupted: {detail}", reason=reason
    )


def _unpack_words(dtype: np.dtype, buffer, offset: int, count: int) -> np.ndarray:
    """Copy ``count`` little-endian 64-bit words into a fresh array."""
    return np.frombuffer(
        buffer, dtype=dtype.newbyteorder("<"), count=count, offset=offset
    ).astype(dtype)


def _unpack_planes(kinds, widths, dtypes, buffer, offset: int, count: int) -> list:
    """Widen consecutive bit-plane fields of ``count`` words each.

    The planes of all the fields are unpacked at once and each field's
    words assembled by one product with a 0/2^j weight matrix (exact in
    float64: no plane width reaches 2^53).  The users go in chunks of at
    most ``_CHUNK_BITS`` plane bits into preallocated outputs, so the
    temporaries stay constant-size and decode memory is the widened output
    plus O(1).
    """
    depth = sum(widths)
    planes = np.ndarray(
        (depth, (count + 7) // 8), dtype=np.uint8, buffer=buffer, offset=offset
    )
    weights = _plane_weights(kinds, widths)
    step = max(8, _CHUNK_BITS // depth // 8 * 8)
    outputs = [np.empty(count, dtype=dtype) for dtype in dtypes]
    for first in range(0, count, step):
        last = min(count, first + step)
        bits = np.unpackbits(
            planes[:, first // 8 : (last + 7) // 8],
            axis=1,
            count=last - first,
            bitorder="little",
        )
        for kind, output, words in zip(kinds, outputs, np.dot(weights, bits)):
            if kind == "sign":
                np.subtract(words, 1.0, out=output[first:last])
            else:
                output[first:last] = words
    return outputs


# Bounded: the widths come off the wire, so a client cycling through width
# combinations must not grow the cache without limit.
@functools.lru_cache(maxsize=256)
def _plane_weights(kinds: Tuple[str, ...], widths: Tuple[int, ...]) -> np.ndarray:
    """Row ``i`` maps the stacked planes to field ``i``'s words; a sign's
    bit is weighted 2, so ``2b - 1`` is one subtraction away."""
    weights = np.zeros((len(widths), sum(widths)))
    first = 0
    for row, (kind, width) in enumerate(zip(kinds, widths)):
        weights[row, first : first + width] = 2.0 ** np.arange(width)
        if kind == "sign":
            weights[row, first] = 2.0
        first += width
    return weights
