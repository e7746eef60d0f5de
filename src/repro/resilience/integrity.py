"""Checkpoint integrity: content digests and corrupt-file quarantine.

Every checkpoint the system writes (session ``checkpoint()`` files, the
durable-ACK ``state.npz``, topology ``STATE`` payloads — they all share
one archive layout) embeds a SHA-256 digest of its own content in the
JSON header.  ``np.savez`` stores members uncompressed (``ZIP_STORED``),
so a torn write or flipped bit either changes the array bytes — caught by
the digest — or breaks the zip structure itself — caught by the CRC and
converted to :class:`~repro.core.exceptions.WireFormatError` upstream.
Either way :func:`restore_or_quarantine` — the one restore path of every
collector, supervisor, fan-in and shard merge — moves the file aside
with :func:`quarantine_checkpoint` instead of folding silent garbage
into an aggregation.

The digest covers the canonical JSON of the header (minus the integrity
section itself) plus every state array's name, dtype, shape, and raw
bytes, in sorted name order — i.e. exactly the facts ``restore`` will
act on, independent of zip member ordering or archive timestamps.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.exceptions import CheckpointIntegrityError, WireFormatError
from ..observability import get_registry
from .coverage import STATUS_LOST, STATUS_QUARANTINED, STATUS_RECOVERED

__all__ = [
    "DIGEST_ALGORITHM",
    "checkpoint_digest",
    "embed_integrity",
    "verify_integrity",
    "quarantine_checkpoint",
    "RestoredCheckpoint",
    "restore_or_quarantine",
]

_logger = logging.getLogger(__name__)

DIGEST_ALGORITHM = "sha256"


def checkpoint_digest(
    header: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> str:
    """Hex SHA-256 over a checkpoint's semantic content.

    ``header`` is the JSON header dict (any existing ``integrity`` section
    is excluded so verification can recompute the digest from a restored
    header as-is); ``arrays`` maps state-array names (without the storage
    prefix) to their values.
    """
    core = {key: value for key, value in header.items() if key != "integrity"}
    hasher = hashlib.sha256()
    hasher.update(json.dumps(core, sort_keys=True).encode("utf-8"))
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        hasher.update(name.encode("utf-8"))
        hasher.update(array.dtype.str.encode("ascii"))
        hasher.update(repr(tuple(array.shape)).encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def embed_integrity(
    header: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> Dict[str, Any]:
    """Return ``header`` with its ``integrity`` section filled in."""
    stamped = dict(header)
    stamped["integrity"] = {
        "algorithm": DIGEST_ALGORITHM,
        "digest": checkpoint_digest(header, arrays),
    }
    return stamped


def verify_integrity(
    header: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    *,
    source: str = "<checkpoint>",
    require: bool = False,
) -> bool:
    """Check a restored checkpoint's digest against its content.

    Returns ``True`` when a digest was present and matched, ``False`` when
    the header carries no integrity section (a legacy version-1 file) and
    ``require`` is off.  Raises
    :class:`~repro.core.exceptions.CheckpointIntegrityError` on any
    mismatch, unknown algorithm, or (with ``require=True``) a missing
    section.
    """
    section = header.get("integrity")
    if section is None:
        if require:
            raise CheckpointIntegrityError(
                f"checkpoint {source} carries no integrity digest but its "
                f"format version requires one"
            )
        return False
    if not isinstance(section, dict):
        raise CheckpointIntegrityError(
            f"checkpoint {source} has a malformed integrity section "
            f"(expected an object, got {type(section).__name__})"
        )
    algorithm = section.get("algorithm")
    if algorithm != DIGEST_ALGORITHM:
        raise CheckpointIntegrityError(
            f"checkpoint {source} uses unsupported digest algorithm "
            f"{algorithm!r} (this library speaks {DIGEST_ALGORITHM!r})"
        )
    recorded = section.get("digest")
    actual = checkpoint_digest(header, arrays)
    if recorded != actual:
        raise CheckpointIntegrityError(
            f"checkpoint {source} failed integrity verification: header "
            f"records {DIGEST_ALGORITHM}:{recorded} but the content hashes "
            f"to {DIGEST_ALGORITHM}:{actual} — the file was altered after "
            f"it was written"
        )
    return True


def quarantine_checkpoint(
    path: Union[str, Path], reason: str
) -> Tuple[Optional[Path], Path]:
    """Move a corrupt checkpoint aside and leave a readable report.

    The file at ``path`` is renamed to ``<path>.corrupt`` (a numeric
    suffix keeps repeated quarantines from clobbering each other) and a
    sibling ``<quarantined>.report.txt`` explains what happened, so an
    operator finds the evidence next to the gap instead of a crash dump.
    Returns ``(quarantined_path, report_path)``; the first is ``None``
    when ``path`` no longer exists (the report is still written).
    """
    get_registry().counter(
        "repro_checkpoints_quarantined_total",
        "Corrupt checkpoints moved aside instead of restored.",
    ).inc()
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    counter = 1
    while target.exists():
        target = path.with_name(f"{path.name}.corrupt.{counter}")
        counter += 1
    quarantined: Optional[Path] = None
    if path.exists():
        os.replace(path, target)
        quarantined = target
    report_base = quarantined if quarantined is not None else target
    report_path = report_base.with_name(report_base.name + ".report.txt")
    lines = [
        "corrupt checkpoint quarantined",
        f"  original:    {path}",
        f"  quarantined: {quarantined if quarantined else '(file had vanished)'}",
        f"  when:        {time.strftime('%Y-%m-%d %H:%M:%S %z')}",
        f"  reason:      {reason}",
        "",
        "The aggregation continued without this file; its reports are",
        "accounted as lost in the finalize CoverageReport.  Inspect the",
        "quarantined bytes to recover state manually if possible.",
        "",
    ]
    report_path.write_text("\n".join(lines), encoding="utf-8")
    return quarantined, report_path


@dataclass(frozen=True)
class RestoredCheckpoint:
    """What :func:`restore_or_quarantine` made of one checkpoint path.

    ``status`` is ``recovered`` (``session`` holds the restored state and
    ``acked_tokens`` its idempotency-token map), ``lost`` (no file) or
    ``quarantined`` (the file failed restore and was moved aside); the
    last two leave ``session`` as ``None``.  ``detail`` is the readable
    reason a coverage ledger shows.
    """

    status: str
    detail: str
    session: Any = None
    acked_tokens: Dict[str, Dict[str, int]] = field(default_factory=dict)


def restore_or_quarantine(
    path: Union[str, Path], context: str
) -> RestoredCheckpoint:
    """Restore the checkpoint at ``path``, or quarantine it if corrupt.

    Any :class:`~repro.core.exceptions.WireFormatError` on restore — a
    zero-byte or torn file, a digest mismatch, non-finite state — moves
    the file to ``*.corrupt`` with a report naming ``context`` (who was
    restoring it, and why) and logs where it went.  A missing file is
    ``lost``: there is nothing to quarantine.
    """
    # Imported here: this package sits below repro.service in the layering.
    from ..service.session import AggregationSession

    path = Path(path)
    if not path.exists():
        return RestoredCheckpoint(
            STATUS_LOST, f"left no durable checkpoint at {path}"
        )
    try:
        session = AggregationSession.restore(path)
    except WireFormatError as error:
        moved, report = quarantine_checkpoint(path, f"{context}: {error}")
        _logger.error(
            "%s: %s is corrupt (%s); quarantined to %s (report: %s)",
            context,
            path,
            error,
            moved,
            report,
        )
        return RestoredCheckpoint(
            STATUS_QUARANTINED, f"checkpoint quarantined: {error}"
        )
    tokens = session.checkpoint_extra.get("acked_tokens", {})
    return RestoredCheckpoint(
        STATUS_RECOVERED,
        f"recovered {session.num_reports} report(s) from {path}",
        session,
        (
            {str(key): dict(value) for key, value in tokens.items()}
            if isinstance(tokens, dict)
            else {}
        ),
    )
