"""The socket workloads: ``wire-ingest`` and ``durable-ingest``.

One run launches fresh collector processes (``perfbench/collector.py``)
and drives them from this single process with at most two concurrent
connections, in :data:`CYCLES` cycles of three parts:

1. **Saturation** (closed loop) on one collector that lives for the whole
   run: rounds of :class:`repro.server.LoadGenerator` with two clients
   push the pre-encoded frame pool as fast as the collector acknowledges
   it.  ``reports_per_s`` is the upper quartile of the round rates.
2. **Open loop** on a freshly started collector: groups (HELLO, frames,
   FIN) fall due at the workload's fixed offered rate, each on its own
   connection, at most two in flight.  A group's latency runs from when
   it was due to its ACK.
3. **Release**: the analyst PULLs that collector's state, restores it,
   finalizes and queries every 2-way marginal.

Afterwards every collector's estimates are checked bit for bit against an
in-process fold of exactly the frames it acknowledged, the merged release of
the open-loop collectors is checked against the exact marginals of their
records, and the run fails if any group failed.
"""

from __future__ import annotations

import asyncio
import gc
import math
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import harness
from harness import Collector, Tracer, metric

#: Open-loop phases must give p99 at least ten samples beyond it.
MIN_OPEN_GROUPS = 1000

#: The open-loop generator is behind schedule when a group starts this
#: late (p99); its ACK latencies are then not reported at all.
LATE_LIMIT_S = 0.5

#: Releases per cycle; ``release_s`` is the lower quartile over the run.
RELEASE_REPEATS = 3

#: Each run alternates saturation, open loop and release this many times.
CYCLES = 4

#: Collectors launched per cycle only to time their set-up, so that
#: ``setup_s`` is the median of at least 9 launches per run (import time
#: follows the host's speed from launch to launch).
SETUP_PROBES = 1

#: Users whose InpOLH fold measures the support-counting kernel.
KERNEL_USERS = 20_000

#: ``marginal_tv_err`` averages the releases of this many disjoint slices
#: of the acknowledged groups, so it is steady from seed to seed.
ACCURACY_SLICES = 32


@dataclass(frozen=True)
class SocketWorkload:
    protocol: str
    durable: bool
    frames_per_group: int
    min_frame_users: int
    max_frame_users: int
    #: The fixed open-loop offered rate in groups per second, never
    #: re-derived per run: about a quarter of the saturated group rate
    #: measured on the seed for this group shape (one connection per
    #: group), so that it stays near half of it in the host's slow windows.
    open_rate: float
    #: Share of ``--seconds`` spent in the saturation phase.
    saturation_share: float
    #: Frames per saturation round (one LoadGenerator run).
    round_frames: int


WORKLOADS = {
    "wire-ingest": SocketWorkload(
        protocol="InpHT",
        durable=False,
        frames_per_group=1,
        min_frame_users=16,
        max_frame_users=2048,
        open_rate=165.0,
        saturation_share=2.0 / 3.0,
        round_frames=1100,
    ),
    "durable-ingest": SocketWorkload(
        protocol="InpPS",
        durable=True,
        frames_per_group=3,
        min_frame_users=500,
        max_frame_users=500,
        open_rate=40.0,
        saturation_share=0.2,
        round_frames=180,
    ),
}


class Pool:
    """The pre-encoded frames of one run, fixed by the seed."""

    def __init__(self, workload: SocketWorkload, seed: int, groups: int, tracer: Tracer):
        from repro.core.domain import Domain

        self.spec = harness.make_spec(workload.protocol)
        self.domain = Domain.binary(harness.DIMENSION)
        self.protocol = self.spec.build()
        count = groups * workload.frames_per_group
        low, high = workload.min_frame_users, workload.max_frame_users
        if low == high:
            sizes = np.full(count, low, dtype=np.int64)
        else:
            draw = np.random.default_rng([seed, 1]).uniform(math.log(low), math.log(high), count)
            sizes = np.rint(np.exp(draw)).astype(np.int64)
        self.sizes = sizes
        self.records = harness.make_records(seed, int(sizes.sum()))
        rng = np.random.default_rng([seed, 2])
        self.frames: List[bytes] = []
        offset = 0
        for index, size in enumerate(sizes):
            root = tracer.start("pool.frame", group=index)
            with tracer.span("protocols.encode", root, index):
                batch = self.protocol.encode_batch(self.records[offset : offset + size], rng=rng)
            with tracer.span("wire.encode", root, index):
                self.frames.append(batch.to_bytes())
            tracer.end(root)
            offset += int(size)
        self.users = int(sizes.sum())
        self.bytes = sum(len(frame) for frame in self.frames)
        self._decoded: Optional[list] = None

    def decoded(self) -> list:
        if self._decoded is None:
            self._decoded = [self.protocol.decode_reports(frame) for frame in self.frames]
        return self._decoded

    def slice_tv_errors(self, groups: int, per_group: int) -> List[float]:
        """Mean TV error of the releases of :data:`ACCURACY_SLICES` slices.

        The open-loop groups are cut into contiguous slices; each slice's
        frames are folded and released on their own (a collector's release
        of the same frames is equal bit for bit, which the gate checks for
        every collector) and compared with the exact marginals of that
        slice's records.
        """
        offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        errors = []
        for part in np.array_split(np.arange(groups), ACCURACY_SLICES):
            first, last = int(part[0]) * per_group, (int(part[-1]) + 1) * per_group
            _, tables = self.reference(list(range(first, last)))
            records = self.records[offsets[first] : offsets[last]]
            errors.append(float(np.mean(harness.marginal_tv(records, tables))))
        return errors

    def reference(self, indices) -> Tuple[int, Dict[int, Any]]:
        """Users and tables of an in-process fold of these pool frames.

        Frames sent once per whole pass over the pool are folded once and
        merged in per pass (the accumulators' exact merge algebra); the
        rest are folded one by one.
        """
        from repro.service.session import AggregationSession

        decoded = self.decoded()
        counts = np.bincount(np.asarray(indices, dtype=np.int64), minlength=len(self.frames))
        passes = int(counts.min()) if len(indices) else 0
        session = AggregationSession(self.spec, self.domain)
        rest = np.repeat(np.arange(len(self.frames)), counts - passes)
        for start in range(0, len(rest), 256):
            session.submit_decoded([decoded[j] for j in rest[start : start + 256]])
        if passes:
            whole = AggregationSession(self.spec, self.domain)
            for start in range(0, len(decoded), 256):
                whole.submit_decoded(decoded[start : start + 256])
            for _ in range(passes):
                session.merge(whole)
        if session.num_reports == 0:
            return 0, {}
        return session.num_reports, session.snapshot().query_all(harness.WIDTH)


@dataclass
class Ledger:
    """What one collector was sent and acknowledged, and what failed."""

    attempted: int = 0
    failed: int = 0
    retried: int = 0
    #: Every attempted group was acknowledged, so the collector's state is
    #: checkable bit for bit against the acknowledged frames.
    exact: bool = True
    acked: List[int] = field(default_factory=list)
    cursor: int = 0
    rounds: List[Tuple[float, float]] = field(default_factory=list)

    def fail(self, groups: int = 1) -> None:
        self.failed += groups
        self.exact = False


class _Refused(Exception):
    """The collector answered ERR (or anything but the expected OK/ACK)."""


# --------------------------------------------------------------------- #
# phases


async def saturate(
    workload: SocketWorkload,
    pool: Pool,
    collector: Collector,
    ledger: Ledger,
    tag: str,
    seconds: float = math.inf,
    max_rounds: Optional[int] = None,
) -> None:
    """Closed-loop LoadGenerator rounds until ``seconds`` or ``max_rounds``."""
    from repro.core.exceptions import CollectionServiceError
    from repro.server import LoadGenerator

    started = time.perf_counter()
    done = 0
    while time.perf_counter() - started < seconds and (max_rounds is None or done < max_rounds):
        size = workload.round_frames
        indices = [(ledger.cursor + j) % len(pool.frames) for j in range(size)]
        # Tokens and spool directories are named by the cursor, which
        # advances even when a round fails, so no two rounds share them.
        label = f"{tag}{ledger.cursor}"
        ledger.cursor += size
        options: Dict[str, Any] = {}
        per_connection = None
        if workload.durable:
            per_connection = workload.frames_per_group
            options = {
                "frames_per_connection": per_connection,
                "token_prefix": label,
                "spool_dir": harness.WORK_DIR / "spool" / label,
            }
        fleet = LoadGenerator(
            pool.spec,
            pool.domain,
            "127.0.0.1",
            collector.port,
            frames=[pool.frames[j] for j in indices],
            num_clients=2,
            max_retries=0,
            io_timeout=harness.IO_TIMEOUT_S,
            **options,
        )
        groups = sum(
            math.ceil(len(frames) / (per_connection or len(frames)))
            for frames in fleet.client_frames()
        )
        ledger.attempted += groups
        try:
            report = await fleet.run()
        except CollectionServiceError:
            ledger.fail(groups)
            return
        ledger.retried += report.retries
        if report.acked_frames != len(indices):
            ledger.fail(groups)
            return
        ledger.acked.extend(indices)
        ledger.rounds.append((report.reports_per_second, report.duration_seconds))
        done += 1


async def open_loop(
    workload: SocketWorkload,
    pool: Pool,
    collector: Collector,
    indices: List[int],
    spools: list,
    tracer: Tracer,
    ledger: Ledger,
) -> Dict[str, List[float]]:
    """Groups ``indices`` at the fixed rate, one connection each, two in flight.

    Group ``indices[i]`` falls due ``i / open_rate`` seconds after the
    segment starts; its latency runs from then to its ACK.
    """
    from repro.core.exceptions import ReproError
    from repro.server.framing import ACK, FIN, HELLO, OK, FrameDecoder, encode_control
    from repro.server.handshake import hello_payload

    per_group = workload.frames_per_group
    latency = [harness.FAILED_LATENCY_S] * len(indices)
    lateness = [0.0] * len(indices)
    queue = iter(enumerate(indices))
    start_at = time.perf_counter() + 0.05

    async def deliver(position: int, index: int, spool, due: float) -> None:
        frames = pool.frames[index * per_group : (index + 1) * per_group]
        token = f"open/{index}" if workload.durable else None
        root = tracer.start("group", group=index)
        writer = None
        try:
            if spool is not None:
                with tracer.span("spool.append", root, index):
                    spool.append_group(token, frames)
            with tracer.span("server.handshake", root, index):
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection("127.0.0.1", collector.port), harness.IO_TIMEOUT_S
                )
                decoder = FrameDecoder()
                hello = hello_payload(pool.spec, pool.domain.attributes, token=token)
                writer.write(encode_control(HELLO, hello))
                answer = await harness.read_control(reader, decoder)
            if answer.kind != OK:
                raise _Refused(str(answer.payload))
            with tracer.span("group.deliver", root, index):
                writer.write(b"".join(frames) + encode_control(FIN))
                await writer.drain()
                answer = await harness.read_control(reader, decoder)
            if answer.kind != ACK or int(answer.payload.get("frames", -1)) != len(frames):
                raise _Refused(str(answer.payload))
            latency[position] = time.perf_counter() - due
            if spool is not None:
                spool.commit_group(token, dict(answer.payload))
            ledger.acked.extend(range(index * per_group, (index + 1) * per_group))
        except (_Refused, OSError, asyncio.TimeoutError, ReproError):
            ledger.fail()
        finally:
            if writer is not None:
                await harness.close(writer)
            tracer.end(root)

    async def slot(spool) -> None:
        for position, index in queue:
            due = start_at + position / workload.open_rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness[position] = time.perf_counter() - due
            await deliver(position, index, spool, due)

    ledger.attempted += len(indices)
    await asyncio.gather(*(slot(spool) for spool in spools))
    return {"latency": latency, "lateness": lateness}


async def pull_state(collector: Collector, tracer: Tracer, group=None):
    """PULL a collector's state and restore it: ``(session, blob bytes)``."""
    import base64

    from repro.server.framing import PULL
    from repro.service.session import AggregationSession

    with tracer.span("release.pull", group=group):
        answer = await harness.control_exchange(collector.port, PULL, {"what": "state"})
        blob = base64.b64decode(answer.payload["state_b64"])
    with tracer.span("release.restore", group=group):
        session = AggregationSession.restore_bytes(blob)
    return session, len(blob)


async def release(collector: Collector, tracer: Tracer):
    """The analyst's path: PULL, restore, finalize, query every 2-way marginal.

    Repeated :data:`RELEASE_REPEATS` times (the PULL is non-destructive);
    returns the times, the tables, the restored session and the size of
    the state blob.
    """
    times = []
    for repeat in range(RELEASE_REPEATS):
        started = time.perf_counter()
        session, blob_bytes = await pull_state(collector, tracer, repeat)
        with tracer.span("protocols.finalize", group=repeat):
            estimator = session.finalize()
        with tracer.span("protocols.query_all", group=repeat):
            tables = estimator.query_all(harness.WIDTH)
        times.append(time.perf_counter() - started)
    return times, tables, session, blob_bytes


def replay_layers(pool: Pool, tracer: Tracer) -> None:
    """Traced runs only: the collector's ingest path, in process, per layer.

    The pool's byte stream goes through ``FrameDecoder`` in the server's
    64 KiB read chunks, each report frame through ``decode_reports`` and
    then ``AggregationSession.submit_decoded`` — the public calls the
    collector makes, each under its own span, so their self times compare.
    """
    from repro.server.framing import FrameDecoder
    from repro.service.session import AggregationSession

    stream = b"".join(pool.frames)
    decoder = FrameDecoder()
    session = AggregationSession(pool.spec, pool.domain)
    chunk = 1 << 16
    for number, start in enumerate(range(0, len(stream), chunk)):
        root = tracer.start("replay.chunk", group=number)
        with tracer.span("framing", root, number):
            decoder.absorb(stream[start : start + chunk])
            frames = list(decoder.frames())
        for frame in frames:
            with tracer.span("wire.decode", root, number):
                decoded = pool.protocol.decode_reports(frame)
            with tracer.span("session.fold", root, number):
                session.submit_decoded([decoded])
        del frames
        tracer.end(root)


def replay_kernels(pool: Pool) -> Dict[str, float]:
    """Traced runs only: the OLH support-counting kernel, in process.

    Neither socket protocol counts OLH support, so the kernel layer is
    measured on the side: the pool's first :data:`KERNEL_USERS` records
    are encoded with InpOLH and folded in 500-user batches, and the
    ``kernel.support_counts`` span histogram of this process gives the
    kernel's time and call count.
    """
    from repro.observability import get_registry

    protocol = harness.make_spec("InpOLH").build()
    accumulator = protocol.accumulator(pool.domain)
    rng = np.random.default_rng(0)
    before = _span_histogram(get_registry(), "kernel.support_counts")
    for start in range(0, KERNEL_USERS, 500):
        accumulator.update(protocol.encode_batch(pool.records[start : start + 500], rng=rng))
    after = _span_histogram(get_registry(), "kernel.support_counts")
    return {key: after[key] - before[key] for key in after}


# --------------------------------------------------------------------- #
# one run


def run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Tracer]:
    from repro.observability import set_enabled

    workload = WORKLOADS[name]
    tracer = Tracer(trace)
    set_enabled(trace)
    shutil.rmtree(harness.WORK_DIR / "spool", ignore_errors=True)
    shutil.rmtree(harness.WORK_DIR / "durable", ignore_errors=True)
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    saturation_seconds = seconds * workload.saturation_share
    groups = max(MIN_OPEN_GROUPS, round(workload.open_rate * (seconds - saturation_seconds)))
    pool = Pool(workload, seed, groups, tracer)
    # Freeze the load generator's own heap (imports, the frame pool) out of
    # the garbage collector, so its pauses do not land in the latencies it
    # measures.  The collector processes are left as they are.
    gc.collect()
    gc.freeze()
    result, layers_input = asyncio.run(_measure(workload, pool, saturation_seconds, groups, tracer))
    result.update(_verify(workload, pool, layers_input))
    if tracer.enabled:
        replay_layers(pool, tracer)
        layers_input["kernel"] = replay_kernels(pool)
        result["layers"] = _layers(workload, pool, tracer, layers_input)
    return result, tracer


async def _measure(workload, pool, saturation_seconds, groups, tracer):
    from repro.observability import get_registry, set_enabled
    from repro.resilience.spool import ReportSpool

    collectors: List[Collector] = []
    setup: List[float] = []

    async def launch(metrics: bool) -> Collector:
        durable_dir = None
        if workload.durable:
            durable_dir = harness.WORK_DIR / "durable" / f"c{len(collectors)}"
        collector = Collector(workload.protocol, durable_dir=durable_dir, metrics=metrics)
        collectors.append(collector)
        setup.append(await collector.first_ok(pool.spec, pool.domain.attributes))
        return collector

    ledgers = {"saturated": Ledger(), "traced": Ledger()}
    data: Dict[str, Any] = {
        "ledgers": ledgers,
        "states": {},
        "sessions": {},
        "stats": {},
        "rss": [],
        "latency": [],
        "lateness": [],
        "release": [],
        "spool_syncs": 0,
    }
    spools = [None, None]
    if workload.durable:
        spools = [ReportSpool(harness.WORK_DIR / "spool" / f"open-{n}.spool") for n in range(2)]

    async def retire(label: str, collector: Collector) -> None:
        """Read a collector's final STATS and peak memory, then stop it."""
        data["stats"][label] = await harness.collector_stats(collector.port)
        data["rss"].append(harness.rss_peak_mb(collector.pid))
        collector.stop()

    try:
        saturated = await launch(metrics=False)
        traced = await launch(metrics=True) if tracer.enabled else None
        # The phases are cut into cycles so that each metric samples the
        # whole run, not one stretch of it: the host's speed drifts over
        # seconds, and a metric measured in one window would carry that.
        # Each cycle's open loop runs on a freshly started collector.
        for cycle, part in enumerate(np.array_split(np.arange(groups), CYCLES)):
            window = saturation_seconds / CYCLES
            if traced is None:
                await saturate(workload, pool, saturated, ledgers["saturated"], "s", window)
            else:
                # Paired rounds on an untraced and a traced collector: the
                # tracing overhead without drift between the two arms.
                started = time.perf_counter()
                while time.perf_counter() - started < window:
                    set_enabled(False)
                    await saturate(workload, pool, saturated, ledgers["saturated"], "s", max_rounds=1)
                    set_enabled(True)
                    await saturate(workload, pool, traced, ledgers["traced"], "t", max_rounds=1)
            for _ in range(SETUP_PROBES):
                (await launch(metrics=False)).stop()
            label = f"serving{cycle}"
            ledgers[label] = Ledger()
            serving = await launch(metrics=tracer.enabled)
            before = _span_count(get_registry(), "spool.sync")
            phase = await open_loop(
                workload, pool, serving, [int(i) for i in part], spools, tracer, ledgers[label]
            )
            data["spool_syncs"] += _span_count(get_registry(), "spool.sync") - before
            data["latency"] += phase["latency"]
            data["lateness"] += phase["lateness"]
            times, tables, session, blob_bytes = await release(serving, tracer)
            data["release"] += times
            data["states"][label] = (session.num_reports, tables)
            data["sessions"][label] = session
            data["checkpoint_bytes"] = blob_bytes
            await retire(label, serving)
        for label, collector in (("saturated", saturated), ("traced", traced)):
            if collector is not None:
                session, _ = await pull_state(collector, Tracer(False))
                reports = session.num_reports
                tables = session.snapshot().query_all(harness.WIDTH) if reports else {}
                data["states"][label] = (reports, tables)
                await retire(label, collector)
    finally:
        for spool in spools:
            if spool is not None:
                spool.close()
        for collector in collectors:
            collector.stop()

    backend = collectors[0].backend
    lateness_p99 = harness.quantile(data["lateness"], 0.99)
    notices = []
    if lateness_p99 > LATE_LIMIT_S:
        data["latency"] = []
        notices.append(
            f"open-loop generator fell behind its schedule (p99 lateness "
            f"{lateness_p99:.3f}s > {LATE_LIMIT_S}s at {workload.open_rate} groups/s): "
            "ACK latencies are not reported for this run"
        )
    release_times = data["release"]
    rates = [rate for rate, _ in ledgers["saturated"].rounds]
    data["failures"] = failures = _failures(ledgers, data["stats"])
    tv_errors = pool.slice_tv_errors(groups, workload.frames_per_group)
    result = {
        "notices": notices,
        "backend": backend,
        "attempted": failures["attempted"],
        "failed": failures["failed"],
        "samples": {
            "setup_s": len(setup),
            "reports_per_s": len(rates),
            "release_s": len(release_times),
            "wire_bytes_per_user": len(pool.frames),
            "marginal_tv_err": len(tv_errors),
        },
        "metrics": {
            "setup_s": metric(harness.median(setup), "s"),
            "reports_per_s": metric(
                harness.quantile(rates, harness.RATE_QUANTILE) if rates else 0.0, "reports/s"
            ),
            "release_s": metric(harness.quantile(release_times, harness.DURATION_QUANTILE), "s"),
            "wire_bytes_per_user": metric(pool.bytes / pool.users, "B"),
            "peak_rss_mb": metric(max(data["rss"]), "MiB"),
            "marginal_tv_err": metric(float(np.mean(tv_errors)), "ratio"),
        },
    }
    return result, data


def _span_histogram(registry, name: str) -> Dict[str, float]:
    return harness.span_histogram({"metrics": registry.snapshot().state_dict()}, name)


def _span_count(registry, name: str) -> int:
    return _span_histogram(registry, name)["count"]


def _failures(ledgers: Dict[str, Ledger], stats: Dict[str, Any]) -> Dict[str, int]:
    """Groups attempted and failed, by reason, client side and collector side.

    A refused group is seen by both sides, so the failed count takes the
    larger of the two tallies; retries count as failures too.
    """
    refused = dropped = 0
    for answer in stats.values():
        connections = answer["stats"]["connections"]
        refused += int(connections["rejected"])
        dropped += int(connections["dropped"])
    retried = sum(ledger.retried for ledger in ledgers.values())
    client = sum(ledger.failed for ledger in ledgers.values())
    return {
        "attempted": sum(ledger.attempted for ledger in ledgers.values()),
        "failed": max(client, refused + dropped) + retried,
        "refused": refused,
        "dropped": dropped,
        "retried": retried,
    }


def _verify(workload: SocketWorkload, pool: Pool, data: Dict[str, Any]) -> Dict[str, Any]:
    """The correctness gate: no failed group, bit-for-bit folds, accuracy."""
    problems: List[str] = []
    failures = data["failures"]
    if failures["failed"]:
        problems.append(
            f"{failures['failed']} of {failures['attempted']} groups failed "
            f"(refused {failures['refused']}, dropped {failures['dropped']}, "
            f"retried {failures['retried']})"
        )
    for label, (got_users, got) in data["states"].items():
        ledger = data["ledgers"][label]
        users, expected = pool.reference(ledger.acked)
        if ledger.exact:
            if got_users != users or not harness.tables_equal(got, expected):
                problems.append(
                    f"{label} collector: estimates over {got_users} reports differ "
                    f"from the in-process fold of the {users} acknowledged reports"
                )
        elif got_users < users:
            problems.append(f"{label} collector holds fewer reports than it acknowledged")
    if problems:
        return {"correct": False, "problems": problems}
    # The analyst's release over every open-loop collector: their merged
    # states against the exact marginals of the records they acknowledged.
    merged = None
    for session in data["sessions"].values():
        merged = session if merged is None else merged.merge(session)
    offsets = np.concatenate([[0], np.cumsum(pool.sizes)])
    frames = sorted(j for label in data["sessions"] for j in data["ledgers"][label].acked)
    records = np.concatenate([pool.records[offsets[j] : offsets[j + 1]] for j in frames])
    tables = merged.snapshot().query_all(harness.WIDTH)
    problems += harness.check_accuracy(workload.protocol, records, tables, merged.num_reports)
    return {"correct": not problems, "problems": problems}


def _layers(workload: SocketWorkload, pool: Pool, tracer: Tracer, data: Dict[str, Any]):
    """Per-layer metrics of a traced run: ``{name: (value, samples)}``."""
    from repro.theory import bounds

    table = tracer.self_times()

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> int:
        return int(table.get(name, {}).get("count", 0))

    ledgers = data["ledgers"]
    kusers = pool.users / 1e3
    frames = len(pool.frames)
    layers: Dict[str, Tuple[float, int]] = {
        "protocols.encode_us_per_kuser": (1e6 * total("protocols.encode") / kusers, count("protocols.encode")),
        "protocols.fold_us_per_kuser": (1e6 * total("session.fold") / kusers, count("session.fold")),
        "protocols.release_ms": (
            1e3 * (total("protocols.finalize") + total("protocols.query_all")) / count("protocols.finalize"),
            count("protocols.finalize"),
        ),
        "wire.encode_us_per_frame": (1e6 * total("wire.encode") / frames, count("wire.encode")),
        "wire.decode_us_per_frame": (1e6 * total("wire.decode") / frames, count("wire.decode")),
        "wire.decode_us_per_kuser": (1e6 * total("wire.decode") / kusers, count("wire.decode")),
        "wire.table2_ratio": (
            8.0 * pool.bytes / pool.users
            / bounds.communication_bits(workload.protocol, harness.DIMENSION, harness.WIDTH),
            frames,
        ),
        "framing.us_per_frame": (1e6 * total("framing") / frames, count("framing")),
        "selftime.framing_s": (own("framing"), count("framing")),
        "selftime.wire_decode_s": (own("wire.decode"), count("wire.decode")),
        "selftime.session_fold_s": (own("session.fold"), count("session.fold")),
        "selftime.group_wait_s": (own("group"), count("group")),
        "server.handshake_ms": (
            1e3 * harness.median(tracer.durations("server.handshake")),
            count("server.handshake"),
        ),
        "loadgen.late_p99_ms": (
            1e3 * harness.quantile(data["lateness"], 0.99),
            len(data["lateness"]),
        ),

    }
    if data["latency"]:
        layers["loadgen.ack_p50_ms"] = (1e3 * harness.median(data["latency"]), len(data["latency"]))
        layers["loadgen.ack_p99_ms"] = (
            1e3 * harness.quantile(data["latency"], 0.99),
            len(data["latency"]),
        )
    traced_stats = data["stats"]["traced"]
    serving_stats = [answer for label, answer in data["stats"].items() if label.startswith("serving")]
    flush = harness.span_histogram(traced_stats, "ingest.flush")
    traced_wall = sum(seconds for _, seconds in ledgers["traced"].rounds)
    layers["server.flush_busy_frac"] = (flush["sum"] / traced_wall if traced_wall else 0.0, flush["count"])
    layers["server.frames_per_flush"] = (
        traced_stats["stats"]["frames"] / flush["count"] if flush["count"] else 0.0,
        flush["count"],
    )
    kernel = data["kernel"]
    layers["kernel.support_counts_s"] = (kernel["sum"], kernel["count"])
    if workload.durable:
        checkpoints = [
            harness.span_histogram(answer, "server.checkpoint.durable") for answer in serving_stats
        ]
        seconds = sum(c["sum"] for c in checkpoints)
        written = sum(int(answer["stats"]["checkpoints_written"]) for answer in serving_stats)
        # ACKs: the open-loop groups plus each collector's set-up probe
        # (an empty group, acknowledged durably like any other).
        acks = sum(
            len(ledger.acked) // workload.frames_per_group + 1
            for label, ledger in ledgers.items()
            if label.startswith("serving")
        )
        appends = tracer.durations("spool.append")
        layers.update(
            {
                "session.checkpoint_ms": (1e3 * seconds / written if written else 0.0, written),
                "session.checkpoint_bytes": (float(data["checkpoint_bytes"]), 1),
                "durable.acks_per_checkpoint": (acks / written if written else 0.0, written),
                "spool.append_ms_per_group": (1e3 * harness.mean_or_zero(appends), len(appends)),
                "spool.fsyncs_per_group": (
                    data["spool_syncs"] / len(appends) if appends else 0.0,
                    data["spool_syncs"],
                ),
            }
        )
    rates = [rate for rate, _ in ledgers["saturated"].rounds]
    traced_rates = [rate for rate, _ in ledgers["traced"].rounds]
    layers["obs.trace_overhead_frac"] = (
        1.0 - harness.median(traced_rates) / harness.median(rates) if rates and traced_rates else 0.0,
        min(len(rates), len(traced_rates)),
    )
    failures = data["failures"]
    attempted = failures["attempted"]
    layers.update(
        {
            "failures.failed_frac": (failures["failed"] / attempted if attempted else 0.0, attempted),
            "failures.refused_groups": (float(failures["refused"]), attempted),
            "failures.dropped_groups": (float(failures["dropped"]), attempted),
            "failures.retried_groups": (float(failures["retried"]), attempted),
        }
    )
    return layers
