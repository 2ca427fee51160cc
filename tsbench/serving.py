"""The serving workloads: ``tools/serve_daemon.py`` driven over sockets.

Every pass boots a fresh daemon (a drained daemon refuses new ops, and
the daemon's only workload input is ``--seed``), sends the seeded
serving timeline over two connections from this one process, checks
every answered request against the offline replay, drains, and stops
the daemon.  An *open-loop* pass sends op ``i`` at ``t0 + i / rate``
whatever the replies do and times each op from that due time; a
*closed-loop* pass keeps a fixed window in flight per connection and
measures completed ops/s.

The generator speaks the NDJSON wire protocol directly: frames are
encoded before the clock starts, replies are only timestamped while it
runs and decoded after it, so the client's own cost stays small next
to the daemon's.
"""

from __future__ import annotations

import asyncio
import gc
import os
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from repro.obs.export import parse_prometheus, quantile_from_buckets
from repro.serve import (
    MAX_FRAME_BYTES,
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Hello,
    LocationUpdate,
    MetricsReply,
    MetricsRequest,
    ServiceRequest,
    Welcome,
    WorkloadConfig,
    build_engine,
    build_workload,
    client_ssl_context,
    decision_key,
    decode_reply,
    encode_frame,
)

import ledger
import procfs
from checks import count_mismatches

_clock = time.perf_counter

#: Connections the generator spreads users over (one per core here).
CONNECTIONS = 2
#: Closed-loop ops in flight per connection; below the daemon's
#: default ``max_inflight`` (64) so nothing is shed.
WINDOW = 16
#: Offline engine replays timed after every pass, for ``items_per_s``.
REPLAYS_PER_PASS = 3
#: Seconds a pass may wait for its last reply.
REPLY_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on ([\w.:-]+):(\d+)")


@dataclass(frozen=True)
class Shape:
    """One serving workload: how the daemon runs and how it is loaded."""

    rate: float
    fleet: bool
    #: Seconds of ``--seconds`` that buy one open-loop pass.
    open_s: float
    closed_passes: int

    def open_passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.open_s))


SHAPES = {
    "serve_tcp": Shape(rate=2000.0, fleet=False, open_s=6.5, closed_passes=2),
    "fleet_tls": Shape(rate=600.0, fleet=True, open_s=20.0, closed_passes=1),
}


@dataclass
class PassResult:
    """What one pass against one daemon measured."""

    setup_s: float
    ops: int = 0
    failed: int = 0
    mismatches: int = 0
    clean_drain: bool = False
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: Request latencies from the due time, ms (answered requests).
    latencies_ms: list = field(default_factory=list)
    inflight_max: int = 0
    #: Per-op (due, sent, done) perf_counter stamps; done is 0 when
    #: the op was never answered.  Open loop only.
    stamps: list = field(default_factory=list)
    scrape: dict = field(default_factory=dict)


class Wire:
    """One raw NDJSON connection: pre-encoded writes, stamped reads."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: ``(perf_counter, line)`` of every reply read while running.
        self.received: list = []
        self.expected = 0
        self.done = asyncio.Event()
        self.on_replies = None
        self._task = None

    @classmethod
    async def open(cls, address, ssl, token, name: str) -> "Wire":
        reader, writer = await asyncio.open_connection(
            *address, ssl=ssl, limit=MAX_FRAME_BYTES
        )
        wire = cls(reader, writer)
        welcome = await wire.roundtrip(Hello(client=name, token=token))
        if not isinstance(welcome, Welcome):
            raise RuntimeError(f"handshake refused: {welcome!r}")
        return wire

    async def roundtrip(self, frame):
        """Send one control frame and decode its reply (not running)."""
        self.writer.write(encode_frame(frame))
        await self.writer.drain()
        return decode_reply(await self.reader.readline())

    def start(self, expected: int) -> None:
        self.expected = expected
        self._task = asyncio.create_task(self._read())

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    async def _read(self) -> None:
        tail = b""
        while len(self.received) < self.expected:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                break
            now = _clock()
            lines = (tail + chunk).split(b"\n")
            tail = lines.pop()
            for line in lines:
                self.received.append((now, line))
            if self.on_replies is not None:
                self.on_replies(len(lines))
        self.done.set()

    def replies(self) -> dict:
        """Frame id -> (receive time, decoded reply)."""
        out = {}
        for stamp, line in self.received:
            reply = decode_reply(line + b"\n")
            out[reply.id] = (stamp, reply)
        return out

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Daemon:
    """One ``serve_daemon`` process tree, from spawn to stop."""

    def __init__(self, bench, shape: Shape, seed: int, spans_dir=None):
        self.bench = bench
        self.shape = shape
        self.argv = [
            sys.executable,
            str(bench.root / "tools" / "serve_daemon.py"),
            "--seed",
            str(seed),
            "--port",
            "0",
        ]
        if shape.fleet:
            self.argv += [
                "--workers", "2", "--shards", "4",
                "--data-dir", str(bench.fresh_dir("wal")),
                "--tls-cert", str(bench.cert), "--tls-key", str(bench.key),
                "--token", bench.token,
            ]
        self.env = dict(bench.env)
        if spans_dir is not None:
            self.env["PYTHONPATH"] = os.pathsep.join(
                [str(bench.trace_dir), self.env["PYTHONPATH"]]
            )
            self.env["TSBENCH_SPANS_DIR"] = str(spans_dir)
        self.process = None
        self.address = None

    @property
    def pid(self) -> int:
        return self.process.pid

    async def start(self) -> float:
        """Spawn and wait until it listens; returns the set-up time."""
        with open(self.bench.fresh_dir("log") / "daemon.log", "wb") as log:
            started = _clock()
            self.process = await asyncio.create_subprocess_exec(
                *self.argv,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                env=self.env,
                cwd=str(self.bench.root),
            )
        while True:
            line = await asyncio.wait_for(
                self.process.stdout.readline(), 120.0
            )
            if not line:
                raise RuntimeError(
                    f"daemon exited before listening: {self.argv}"
                )
            match = _LISTENING.search(line.decode())
            if match:
                self.address = (match[1], int(match[2]))
                return _clock() - started

    async def connect(self) -> "list[Wire]":
        fleet = self.shape.fleet
        ssl = client_ssl_context(str(self.bench.cert)) if fleet else None
        token = self.bench.token if fleet else None
        return [
            await Wire.open(self.address, ssl, token, f"tsbench-{i}")
            for i in range(CONNECTIONS)
        ]

    async def stop(self) -> None:
        """SIGTERM and wait; kill the whole tree if it will not go."""
        process = self.process
        if process is None or process.returncode is not None:
            return
        pids = procfs.tree_pids(process.pid)
        process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(process.communicate(), 60.0)
        except asyncio.TimeoutError:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            await process.wait()


def _encode(index: int, item) -> bytes:
    """The wire bytes of one timeline item; op ``i`` has id ``i + 1``."""
    loc = item.location
    if item.is_request:
        frame = ServiceRequest(
            id=index + 1, user_id=item.user_id, x=loc.x, y=loc.y, t=loc.t,
            service=item.service,
        )
    else:
        frame = LocationUpdate(
            id=index + 1, user_id=item.user_id, x=loc.x, y=loc.y, t=loc.t,
        )
    return encode_frame(frame)


class Timeline:
    """The seeded serving timeline and its offline ground truth."""

    def __init__(self, seed: int) -> None:
        self.config = WorkloadConfig(seed=seed)
        self.workload = build_workload(self.config)
        timeline = self.workload.timeline
        self.lines = [_encode(i, item) for i, item in enumerate(timeline)]
        self.is_request = [item.is_request for item in timeline]
        self.users = [item.user_id for item in timeline]
        rank = {user: i for i, user in enumerate(self.workload.user_ids)}
        #: Round-robin user partition over the connections, so each
        #: user's ops stay in order on one connection.
        self.owner = [rank[user] % CONNECTIONS for user in self.users]
        self.expected: dict = {}
        self.replay_mismatches = 0
        self.replay_items_per_s: list = []
        self.replay()

    def replay(self) -> None:
        """Time the offline ``Engine.process_batch`` replays."""
        for _ in range(REPLAYS_PER_PASS):
            engine = build_engine(self.workload, self.config)
            started = _clock()
            events = engine.process_batch(self.workload.timeline)
            elapsed = _clock() - started
            self.replay_items_per_s.append(len(self.lines) / elapsed)
            expected: dict = {}
            for event in events:
                expected.setdefault(event.request.user_id, []).append(
                    decision_key(event)
                )
            if self.expected:
                self.replay_mismatches += count_mismatches(
                    self.expected, expected
                )
            else:
                self.expected = expected

    def served_keys(self, replies: list) -> dict:
        """Per-user decision keys of the answered requests, in order."""
        served: dict = {}
        for reply, user, is_request in zip(
            replies, self.users, self.is_request
        ):
            if is_request:
                served.setdefault(user, []).append(
                    decision_key(reply)
                    if isinstance(reply, DecisionReply)
                    else None
                )
        return served


async def _open_loop(wires, timeline: Timeline, rate: float, result):
    """Send op ``i`` at its due time; returns per-op send stamps."""
    lines, owner = timeline.lines, timeline.owner
    n = len(lines)
    sent = [0.0] * n
    start = _clock() + 0.05
    index = 0
    while index < n:
        now = _clock()
        next_due = start + index / rate
        if next_due > now:
            await asyncio.sleep(next_due - now)
            continue
        while index < n and start + index / rate <= now:
            wires[owner[index]].writer.write(lines[index])
            sent[index] = _clock()
            index += 1
        inflight = index - sum(len(w.received) for w in wires)
        result.inflight_max = max(result.inflight_max, inflight)
    return start, sent


async def _closed_loop(wires, timeline: Timeline):
    """Keep ``WINDOW`` ops in flight per connection until all are sent."""

    async def drive(connection: int) -> None:
        wire = wires[connection]
        window = asyncio.Semaphore(WINDOW)

        def release(count: int) -> None:
            for _ in range(count):
                window.release()

        wire.on_replies = release
        for index, owner in enumerate(timeline.owner):
            if owner == connection:
                await window.acquire()
                wire.writer.write(timeline.lines[index])

    await asyncio.gather(*(drive(c) for c in range(CONNECTIONS)))


async def run_pass(
    bench, shape: Shape, timeline: Timeline, seed: int, open_loop: bool,
    spans_dir=None,
) -> PassResult:
    """Boot a daemon, run one pass, verify, drain and stop it."""
    daemon = Daemon(bench, shape, seed, spans_dir)
    try:
        result = PassResult(setup_s=await daemon.start())
        wires = await daemon.connect()
        try:
            for connection, wire in enumerate(wires):
                wire.start(timeline.owner.count(connection))
            # The generator allocates little while it runs; a collector
            # pause here would stall sends and read as daemon latency.
            gc.collect()
            gc.disable()
            try:
                cpu_before = procfs.tree_cpu_s(daemon.pid)
                started = _clock()
                if open_loop:
                    start, sent = await _open_loop(
                        wires, timeline, shape.rate, result
                    )
                else:
                    await _closed_loop(wires, timeline)
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*(w.done.wait() for w in wires)),
                        REPLY_TIMEOUT_S,
                    )
                except asyncio.TimeoutError:
                    pass  # the unanswered ops count as failed below
                result.cpu_s = procfs.tree_cpu_s(daemon.pid) - cpu_before
            finally:
                gc.enable()
            result.rss_mb = procfs.tree_rss_mb(daemon.pid)
            answered = {}
            for wire in wires:
                await wire.stop()
                answered.update(wire.replies())
            done = [
                answered.get(i + 1, (0.0, None))[0]
                for i in range(len(timeline.lines))
            ]
            result.elapsed_s = max(done) - started
            replies = [
                answered.get(i + 1, (0.0, None))[1]
                for i in range(len(timeline.lines))
            ]
            result.ops = len(replies)
            result.failed = sum(
                1
                for reply in replies
                if reply is None or isinstance(reply, ErrorReply)
            )
            result.mismatches = count_mismatches(
                timeline.expected, timeline.served_keys(replies)
            )
            if open_loop:
                _stamp(result, timeline, start, shape.rate, sent, done)
            if spans_dir is not None:
                result.scrape = await _scrape(wires[0])
            drained = await wires[0].roundtrip(DrainRequest(id=0))
            result.clean_drain = (
                isinstance(drained, DrainReply) and drained.pending == 0
            )
        finally:
            for wire in wires:
                await wire.close()
    finally:
        await daemon.stop()
    timeline.replay()
    return result


def _stamp(result, timeline, start, rate, sent, done) -> None:
    for i, (sent_at, done_at) in enumerate(zip(sent, done)):
        due = start + i / rate
        result.stamps.append((due, sent_at, done_at))
        if timeline.is_request[i] and done_at > 0.0:
            result.latencies_ms.append((done_at - due) * 1000.0)


async def _scrape(wire: Wire) -> dict:
    """p50 of the daemon's own serve.* latency histograms (all labels)."""
    reply = await wire.roundtrip(MetricsRequest(id=0))
    if not isinstance(reply, MetricsReply):
        raise RuntimeError(f"metrics scrape refused: {reply!r}")
    samples = parse_prometheus(reply.body)
    scraped = {}
    for metric in ("serve_request_ms", "serve_queue_wait_ms"):
        buckets: dict = {}
        count = 0.0
        for (name, labels), value in samples.items():
            if name == f"{metric}_bucket":
                bound = float(dict(labels)["le"])
                buckets[bound] = buckets.get(bound, 0.0) + value
            elif name == f"{metric}_count":
                count += value
        scraped[metric] = (
            quantile_from_buckets(buckets, count, 0.5) if count else 0.0
        )
    return scraped


async def run_serving(bench, workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run of a serving workload; returns a result dict."""
    shape = SHAPES[workload]
    timeline = Timeline(seed)
    opens: list = []
    closeds: list = []
    traced = None
    if trace:
        opens.append(await run_pass(bench, shape, timeline, seed, True))
        spans_dir = bench.fresh_dir("spans")
        traced = await run_pass(
            bench, shape, timeline, seed, True, spans_dir=spans_dir
        )
    else:
        n_open = shape.open_passes(seconds)
        while len(opens) < n_open or len(closeds) < shape.closed_passes:
            if len(opens) < n_open:
                opens.append(
                    await run_pass(bench, shape, timeline, seed, True)
                )
            if len(closeds) < shape.closed_passes:
                closeds.append(
                    await run_pass(bench, shape, timeline, seed, False)
                )
    passes = opens + closeds + ([traced] if traced else [])
    ops = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    mismatches = timeline.replay_mismatches + sum(
        p.mismatches for p in passes
    )
    clean = all(p.clean_drain for p in passes)
    cpu_us_per_op = statistics.median(1e6 * p.cpu_s / p.ops for p in opens)
    # Medians over passes: a pass the host stalled for longer than usual
    # moves them less than it would move a pooled percentile.
    latency = {
        q: statistics.median(ledger.quantile(p.latencies_ms, q) for p in opens)
        for q in (0.50, 0.90, 0.99)
    }
    lines = [
        f"passes: {len(opens)} open-loop at {shape.rate:g} ops/s, "
        f"{len(closeds)} closed-loop (window {WINDOW} x {CONNECTIONS}), "
        f"{len(timeline.lines)} ops each",
        "p50/p90/p99 per open-loop pass over n="
        + ",".join(str(len(p.latencies_ms)) for p in opens)
        + f" requests; failed_frac={failed / ops:.6f} ({failed}/{ops}); "
        f"mismatches={mismatches}; clean_drain={clean}",
        f"p99_ms {latency[0.99]:.4f} ms (median over passes; too unsteady "
        "on this host to bound, see NOTES.md): "
        + ", ".join(
            f"{ledger.quantile(p.latencies_ms, 0.99):.3f}" for p in opens
        ),
    ]
    if trace:
        metrics = ledger.serving_layers(traced, timeline.is_request, spans_dir)
        metrics["client.p99_ms"] = latency[0.99]
        metrics["trace.overhead_ratio"] = (
            1e6 * traced.cpu_s / traced.ops
        ) / cpu_us_per_op
        metrics["daemon.request_ms_p50"] = traced.scrape["serve_request_ms"]
        metrics["daemon.queue_wait_ms_p50"] = traced.scrape[
            "serve_queue_wait_ms"
        ]
        mean_ms = statistics.fmean(traced.latencies_ms)
        budget = {
            name.split(".")[1]: share * mean_ms
            for name, share in metrics.items()
            if name.startswith("ledger.")
        }
        budget["unattributed"] = metrics["unattributed_share"] * mean_ms
        lines.append(
            "ledger, ms per request: "
            + " + ".join(f"{k} {v:.3f}" for k, v in budget.items() if v)
            + f" = {sum(budget.values()):.3f} (client-observed mean "
            f"{mean_ms:.3f})"
        )
        lines.append(
            "telemetry cross-check, p50 ms: daemon serve.request_ms "
            f"{metrics['daemon.request_ms_p50']:.3f} vs server.submit "
            f"{metrics['server.submit_ms_p50']:.3f} / shard.submit "
            f"{metrics['shard.submit_ms_p50']:.3f}; daemon "
            f"serve.queue_wait_ms {metrics['daemon.queue_wait_ms_p50']:.3f} "
            f"vs server.wait {metrics['server.wait_ms_p50']:.3f}"
        )
    else:
        metrics = {
            "p50_ms": latency[0.50],
            "p90_ms": latency[0.90],
            "cpu_us_per_op": cpu_us_per_op,
            "capacity_ops_s": statistics.median(
                p.ops / p.elapsed_s for p in closeds
            ),
            "rss_mb": statistics.median(p.rss_mb for p in opens),
            "setup_s": statistics.median(
                p.setup_s for p in opens + closeds
            ),
            "items_per_s": statistics.median(timeline.replay_items_per_s),
        }
    return {
        "metrics": metrics,
        "attempted": ops,
        "failed": failed,
        "correct": mismatches == 0 and clean,
        "lines": lines,
    }
