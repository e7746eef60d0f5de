"""Shared pieces of the benchmark: settings, spans, statistics, collectors.

Everything here measures the system from outside: it calls the public
functions of each layer, launches the collector as its own process, and
talks to it over the collection protocol (``HELLO``/``FIN``/``PULL``/
``STATS``).  Nothing under ``src/`` is patched or wrapped.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

#: The shape every workload shares: d=8 binary attributes, 2-way
#: marginals, epsilon = ln 3 (the paper's default budget).
DIMENSION = 8
WIDTH = 2
EPSILON = math.log(3.0)

#: Records are drawn from the repo's Zipf-like generator so the released
#: marginals are far from uniform and accuracy is a real check.
SKEW = 1.1

#: Failure probability of the accuracy gate per run.
GATE_DELTA = 1e-6

#: Time metrics are the favourable quartile of a run's samples (upper for
#: rates, lower for durations: saturation rounds, releases), not their
#: median.  This host's
#: single-core speed swings by up to 1.8x between ten-second windows (a
#: fixed CPU loop measured 15.5-28.4 ms per window) and it steals whole
#: stretches of time under load; a median would mostly report how much of
#: the run fell in slow windows.
RATE_QUANTILE = 0.75
DURATION_QUANTILE = 0.25

#: Latency assigned to a failed or refused group: it misses every limit.
FAILED_LATENCY_S = 60.0

#: Per-exchange socket timeout; a stalled collector fails the run, it
#: never hangs it.
IO_TIMEOUT_S = 30.0


class Tracer:
    """In-memory spans recorded around calls into each layer.

    Each span is ``[id, name, start, end, parent, group]`` on the
    ``perf_counter`` clock.  Parents are passed explicitly, so spans of
    interleaved coroutines nest correctly.  Disabled, :meth:`span` reads
    no clock and stores nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: List[list] = []

    def start(self, name: str, parent: Optional[int] = None, group=None):
        if not self.enabled:
            return None
        span = [len(self.spans), name, time.perf_counter(), None, parent, group]
        self.spans.append(span)
        return span[0]

    def end(self, span_id: Optional[int]) -> None:
        if span_id is not None:
            self.spans[span_id][3] = time.perf_counter()

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, group=None):
        span_id = self.start(name, parent, group)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[3]]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        A span's self time is its duration minus the union of the
        intervals its child spans cover.
        """
        children: Dict[int, List[list]] = {}
        for span in self.spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append(span)
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span[3] is None:
                continue
            covered = 0.0
            cursor = span[2]
            for child in sorted(children.get(span[0], ()), key=lambda c: c[2]):
                if child[3] is None:
                    continue
                low, high = max(child[2], cursor), min(child[3], span[3])
                if high > low:
                    covered += high - low
                    cursor = high
            entry = table.setdefault(span[1], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span[3] - span[2]
            entry["self_s"] += span[3] - span[2] - covered
        return table

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "group")
        with open(path, "w") as handle:
            json.dump(
                {
                    **(extra or {}),
                    "self_times": self.self_times(),
                    "spans": [dict(zip(fields, span)) for span in self.spans],
                },
                handle,
            )


def quantile(values: Sequence[float], q: float) -> float:
    if not len(values):
        raise ValueError("no samples")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def rss_peak_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def make_spec(protocol: str):
    from repro.service.spec import ProtocolSpec

    return ProtocolSpec(protocol=protocol, epsilon=EPSILON, max_width=WIDTH)


def make_records(seed: int, users: int) -> np.ndarray:
    """The workload's user records: ``(users, d)`` int8, fixed by the seed."""
    from repro.datasets.synthetic import skewed_dataset

    rng = np.random.default_rng([seed, 0])
    return skewed_dataset(users, DIMENSION, skew=SKEW, rng=rng).records


# --------------------------------------------------------------------- #
# accuracy


def marginal_tv(records: np.ndarray, tables: Dict[int, Any]) -> List[float]:
    """TV distance of each released table to the exact marginal."""
    from repro.datasets.base import BinaryDataset

    dataset = BinaryDataset.from_records(records)
    return [
        0.5 * float(np.abs(dataset.marginal(mask).values - table.values).sum())
        for mask, table in tables.items()
    ]


def release_covariance(
    protocol: str, distribution: np.ndarray, population: int, masks
) -> np.ndarray:
    """Covariance of the errors of the released 2-way marginal cells.

    Rows and columns are the cells of ``masks`` in order, ``2^k`` per
    mask.  The estimators are linear in the reports, so this is exact to
    leading order in ``1/N`` and errs on the large side:

    * InpPS: each report is a value of ``{0,1}^d`` kept with probability
      ``p = e^eps / (e^eps + 2^d - 1)`` and otherwise uniform over the other
      values (probability ``q`` each).  The report histogram is multinomial
      with cell chances ``f (p - q) + q`` (users with different values only
      shrink its covariance), and the release divides by ``p - q``.
    * InpHT: each user samples one of the ``|T|`` coefficients of weight at
      most ``k``; the estimate of each has variance at most
      ``|T| / (a^2 N)`` with ``a = (e^eps - 1)/(e^eps + 1)``, the estimates
      are uncorrelated to leading order, and a cell is ``2^-k`` times the
      character-weighted sum of the coefficients under its mask.
    """
    from repro.core import bitops

    size = 1 << DIMENSION
    growth = math.exp(EPSILON)
    membership = cell_membership(masks)
    if protocol == "InpPS":
        keep = growth / (growth + size - 1)
        lie = (1.0 - keep) / (size - 1)
        hits = distribution * (keep - lie) + lie
        noise = (np.diag(hits) - np.outer(hits, hits)) / (population * (keep - lie) ** 2)
        return membership @ noise @ membership.T
    if protocol == "InpHT":
        attenuation = (growth - 1.0) / (growth + 1.0)
        values = np.arange(size, dtype=np.int64)
        alphas = values[(values > 0) & (bitops.popcount(values) <= WIDTH)]
        characters = 1.0 - 2.0 * (bitops.popcount(np.bitwise_and.outer(alphas, values)) & 1)
        # A character averages to 0 over a cell unless its coefficient lies
        # under the cell's mask, where it is constant on the cell.
        design = membership @ characters.T / size
        variance = len(alphas) / (attenuation**2 * population)
        return variance * design @ design.T
    raise ValueError(f"no release covariance for {protocol}")


def cell_membership(masks) -> np.ndarray:
    """0/1 matrix: row ``(i, c)`` marks the values of ``{0,1}^d`` in cell
    ``c`` of the marginal over ``masks[i]``."""
    from repro.core import bitops

    size = 1 << DIMENSION
    values = np.arange(size, dtype=np.int64)
    membership = np.zeros((len(masks) << WIDTH, size))
    for row, mask in enumerate(masks):
        cells = bitops.compress_indices(values & mask, mask)
        membership[(row << WIDTH) + cells, values] = 1.0
    return membership


def check_accuracy(protocol: str, records, tables, population: int) -> List[str]:
    """Problems with one release: empty when it is as close as theory allows.

    The errors of all released cells, jointly, are held against their
    covariance (:func:`release_covariance`): their Mahalanobis distance
    must stay below the chi-square quantile at :data:`GATE_DELTA` over the
    covariance's rank (the release's degrees of freedom).  Errors outside
    that span are none of the estimator's noise (the released tables are
    not the marginals of one distribution), so they must vanish.
    """
    from scipy.stats import chi2

    from repro.datasets.base import record_indices

    problems = []
    if len(tables) != math.comb(DIMENSION, WIDTH):
        problems.append(f"{protocol}: released {len(tables)} tables")
    masks = sorted(tables)
    distribution = np.bincount(record_indices(records), minlength=1 << DIMENSION) / len(records)
    errors = np.concatenate([np.asarray(tables[m].values, dtype=np.float64) for m in masks])
    errors -= cell_membership(masks) @ distribution
    covariance = release_covariance(protocol, distribution, population, masks)
    scale = float(np.abs(covariance).max())
    inverse = np.linalg.pinv(covariance / scale, rcond=1e-9, hermitian=True) / scale
    rank = int(np.linalg.matrix_rank(covariance / scale, tol=1e-9, hermitian=True))
    distance = float(errors @ inverse @ errors)
    limit = float(chi2.isf(GATE_DELTA, rank))
    stray = float(np.abs(errors - covariance @ (inverse @ errors)).max())
    if not distance <= limit:
        problems.append(
            f"{protocol}: marginal errors at Mahalanobis distance^2 {distance:.1f}, "
            f"above the chi-square({rank}) limit {limit:.1f} (N={population})"
        )
    if not stray <= 1e-9:
        problems.append(
            f"{protocol}: released tables are not the marginals of one "
            f"distribution (off by {stray:.3g})"
        )
    return problems


def tables_equal(first: Dict[int, Any], second: Dict[int, Any]) -> bool:
    if sorted(first) != sorted(second):
        return False
    return all(
        np.array_equal(np.asarray(first[m].values), np.asarray(second[m].values))
        for m in first
    )


# --------------------------------------------------------------------- #
# the collector process


class Collector:
    """One freshly launched collector process and its address."""

    def __init__(self, protocol: str, *, durable_dir: Optional[Path], metrics: bool):
        self.protocol = protocol
        env = dict(os.environ)
        env["REPRO_METRICS"] = "on" if metrics else "off"
        env["PYTHONPATH"] = str(ROOT / "src")
        args = [sys.executable, str(ROOT / "perfbench" / "collector.py"), "--protocol", protocol]
        if durable_dir is not None:
            args += ["--durable-dir", str(durable_dir)]
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(args, stdout=subprocess.PIPE, env=env, cwd=str(ROOT))
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"collector for {protocol} exited before listening")
        listening = json.loads(line)
        self.port = int(listening["port"])
        self.backend = str(listening["backend"])

    @property
    def pid(self) -> int:
        return self.process.pid

    async def first_ok(self, spec, attributes) -> float:
        """Time from launch until the collector's first ``OK`` to a HELLO."""
        from repro.server.framing import FIN, HELLO, OK, encode_control
        from repro.server.handshake import hello_payload

        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(encode_control(HELLO, hello_payload(spec, attributes)))
            await writer.drain()
            answer = await read_control(reader)
            setup_s = time.perf_counter() - self.launched
            if answer.kind != OK:
                raise RuntimeError(f"collector refused the HELLO: {answer.payload}")
            writer.write(encode_control(FIN))
            await writer.drain()
            await read_control(reader)  # the empty group's ACK
        finally:
            await close(writer)
        return setup_s

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


async def read_control(reader, decoder=None):
    """Read until one control frame arrives; return it."""
    from repro.server.framing import ControlMessage, FrameDecoder

    decoder = decoder or FrameDecoder()
    while True:
        for item in decoder.frames():
            if isinstance(item, ControlMessage):
                return item
        chunk = await asyncio.wait_for(reader.read(1 << 16), IO_TIMEOUT_S)
        if not chunk:
            raise ConnectionError("collector closed the connection")
        decoder.absorb(chunk)


async def control_exchange(port: int, kind: str, payload: Optional[dict] = None):
    """One control-plane round trip (``PULL`` or ``STATS``) to a collector."""
    from repro.server.framing import MAX_STATE_BYTES, FrameDecoder, encode_control

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_control(kind, payload or {}))
        await writer.drain()
        return await read_control(reader, FrameDecoder(max_state_bytes=MAX_STATE_BYTES))
    finally:
        await close(writer)


async def close(writer) -> None:
    """Close a connection and wait until the collector can see it closed."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def collector_stats(port: int) -> Dict[str, Any]:
    """The collector's ``STATS`` answer: ``{"stats": ..., "metrics": ...}``."""
    from repro.server.framing import STATS

    answer = await control_exchange(port, STATS)
    return answer.payload


def span_histogram(stats: Dict[str, Any], name: str) -> Dict[str, float]:
    """``count`` and ``sum`` of one ``repro_span_seconds`` series."""
    from repro.observability import MetricsSnapshot

    snapshot = MetricsSnapshot.from_state_dict(stats["metrics"])
    value = snapshot.value("repro_span_seconds", {"span": name}) or {}
    return {"count": int(value.get("count", 0)), "sum": float(value.get("sum", 0.0))}


def environment(collector_backend: str) -> Dict[str, Any]:
    """The facts a reader needs to compare two runs of this benchmark."""
    import platform

    import numpy

    def importable(name: str) -> bool:
        try:
            __import__(name)
        except ImportError:
            return False
        return True

    fs_type = "unknown"
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        best = ""
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if str(WORK_DIR.resolve()).startswith(parts[1]) and len(parts[1]) >= len(best):
                    best, fs_type = parts[1], parts[2]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": collector_backend,
        "numba": importable("numba"),
        "uvloop": importable("uvloop"),
        "durable_fs": fs_type,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def mean_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0
