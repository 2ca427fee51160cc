"""Per-layer metrics from the spans of a traced run.

A span is ``(name, start, end, parent, op, key, note)`` (see
``trace/tsbench_shims.py``); its layer is the part of ``name`` before
the first dot.  Self time is a span's duration minus the time its child
spans cover.  Children are the spans opened inside it in the same task
and, for the asynchronous ``*.submit`` spans, the top-level spans of the
same op that run inside its interval in another task or process (the
dispatcher's engine call, the worker's whole handling of a forwarded
op).  Per request op, the self times of all its spans plus the
generator's lateness leave ``unattributed_share`` of the client-observed
latency: sockets, TLS, event-loop scheduling and the client library.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "client", "protocol", "gate", "server", "supervisor", "shard", "wal",
    "engine", "mod",
)
STAGES = (
    "quiet_gate", "monitor_match", "generalize", "unlink", "risk_policy",
    "audit",
)
DECISIONS = (
    "forwarded", "generalized", "unlinked", "at_risk_forwarded",
    "suppressed", "quiet",
)
_CODEC = (
    "protocol.decode", "protocol.encode", "protocol.decode_fwd",
    "protocol.encode_fwd",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "key", "note",
                 "self_s")

    def __init__(self, name, start, end, parent, op, key, note):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.key = key
        self.note = note
        self.self_s = end - start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load_process(raw: dict) -> "list[Span]":
    """One process's spans with in-task self time (None entries dropped)."""
    spans = [Span(*row) if row is not None else None for row in raw["spans"]]
    for span in spans:
        if span is not None and span.parent >= 0:
            parent = spans[span.parent]
            if parent is not None:
                parent.self_s -= span.duration
    return [span for span in spans if span is not None]


def _role(argv: "list[str]") -> str:
    if "--worker-index" in argv:
        return "worker"
    return "parent" if "--workers" in argv else "single"


def load_dir(spans_dir: Path) -> "tuple[list[Span], int]":
    """All spans of a serving pass, ops mapped to client op ids.

    Workers see the supervisor's own frame ids; the supervisor's
    forwarding encodes (which run inside its ``submit`` span, so carry
    the client op) give the mapping back.
    """
    processes = []
    points = 0
    for path in sorted(Path(spans_dir).glob("spans-*.json")):
        raw = json.loads(path.read_text())
        points += raw["points"]
        processes.append((_role(raw["argv"]), load_process(raw)))
    forwarded = {}
    for role, spans in processes:
        if role == "parent":
            for span in spans:
                if span.name == "protocol.encode_fwd" and span.parent >= 0:
                    forwarded[span.key] = span.op
    merged = []
    for role, spans in processes:
        for span in spans:
            if role == "worker" or (
                span.name.endswith("_fwd") and span.parent < 0
            ):
                span.op = forwarded.get(span.op)
            merged.append(span)
    return merged, points


def attribute_async_children(spans: "list[Span]") -> None:
    """Subtract, per op, top-level spans nested in another's interval."""
    by_op = defaultdict(list)
    for span in spans:
        if span.op is not None and span.parent < 0:
            by_op[span.op].append(span)
    for group in by_op.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack: "list[Span]" = []
        for span in group:
            while stack and stack[-1].end < span.end:
                stack.pop()
            if stack:
                stack[-1].self_s -= span.duration
            stack.append(span)


def _mean_us(spans) -> float:
    spans = list(spans)
    if not spans:
        return 0.0
    return 1e6 * sum(s.duration for s in spans) / len(spans)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` of ``values`` (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(spans: "list[Span]", ops: int, points: int) -> dict:
    """The per-call, per-layer metrics every workload reports."""
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def keyed(names):
        return [s for n in names for s in named[n] if s.key is not None]

    submits = named["server.submit"] + named["shard.submit"] + named[
        "supervisor.submit"
    ]
    worker_submit = {s.op: s.duration for s in named["shard.submit"]}
    generalize = named["engine.stage.generalize"]
    forwards = keyed(["protocol.encode_fwd"])
    metrics = {
        "protocol.decode_us": _mean_us(
            keyed(["protocol.decode", "protocol.decode_fwd"])
        ),
        "protocol.encode_us": _mean_us(
            keyed(["protocol.encode", "protocol.encode_fwd"])
        ),
        "protocol.frames_per_op": len(keyed(_CODEC)) / ops if ops else 0.0,
        "gate.admit_op_us": _mean_us(named["gate.admit_op"]),
        "gate.rejected": sum(
            1 for s in named["gate.admit_op"] if s.note == "rejected"
        ),
        "server.submit_ms_p50": 1e3 * quantile(
            [s.duration for s in named["server.submit"]], 0.5
        ),
        "server.submit_ms_p99": 1e3 * quantile(
            [s.duration for s in named["server.submit"]], 0.99
        ),
        "server.wait_ms_p50": 1e3 * quantile(
            [s.self_s for s in named["server.submit"]], 0.5
        ),
        "server.shed": sum(1 for s in submits if s.note == "overloaded"),
        "shard.submit_ms_p50": 1e3 * quantile(
            [s.duration for s in named["shard.submit"]], 0.5
        ),
        "shard.wait_ms_p50": 1e3 * quantile(
            [s.self_s for s in named["shard.submit"]], 0.5
        ),
        "supervisor.submit_ms_p50": 1e3 * quantile(
            [s.duration for s in named["supervisor.submit"]], 0.5
        ),
        "supervisor.hop_ms_p50": 1e3 * quantile(
            [
                s.duration - worker_submit[s.op]
                for s in named["supervisor.submit"]
                if s.op in worker_submit
            ],
            0.5,
        ),
        "supervisor.resent": len(forwards) - len({s.key for s in forwards}),
        "wal.append_us": _mean_us(named["wal.append"]),
        "wal.sync_ms": _mean_us(named["wal.sync"]) / 1e3,
        "wal.syncs_per_op": len(named["wal.sync"]) / ops if ops else 0.0,
        "engine.process_us": _mean_us(named["engine.process"]),
        "engine.report_location_us": _mean_us(
            named["engine.report_location"]
        ),
        "engine.generalize_success_ratio": (
            sum(1 for s in generalize if s.note == "generalized")
            / len(generalize)
            if generalize
            else 0.0
        ),
        "mod.nearest_users_us": _mean_us(named["mod.nearest_users"]),
        "mod.nearest_users_calls": len(named["mod.nearest_users"]),
        "mod.add_points_us": _mean_us(
            named["mod.add_point"] + named["mod.add_points"]
        ),
        "mod.lt_consistent_users_us": _mean_us(
            named["mod.lt_consistent_users"]
        ),
        "mod.points": points,
    }
    for stage in STAGES:
        calls = named[f"engine.stage.{stage}"]
        metrics[f"engine.stage.{stage}.self_us"] = (
            1e6 * sum(s.self_s for s in calls) / len(calls) if calls else 0.0
        )
    decisions = defaultdict(int)
    for span in named["engine.process"]:
        decisions[span.note] += 1
    for decision in DECISIONS:
        metrics[f"engine.decisions.{decision}"] = decisions[decision]
    return metrics


def layer_shares(spans, total_s: float, extra=None) -> dict:
    """Each layer's share of ``total_s``, plus what no layer covers."""
    covered = defaultdict(float)
    for span in spans:
        covered[span.layer] += span.self_s
    for layer, seconds in (extra or {}).items():
        covered[layer] += seconds
    shares = {
        f"ledger.{layer}.share": covered[layer] / total_s for layer in LAYERS
    }
    shares["unattributed_share"] = 1.0 - sum(shares.values())
    return shares


def serving_layers(traced, is_request, spans_dir) -> dict:
    """Per-layer metrics of one traced open-loop serving pass."""
    spans, points = load_dir(spans_dir)
    attribute_async_children(spans)
    # Spans without an op ran outside the pass (start-up, scrapes).
    metrics = layer_metrics(
        [s for s in spans if s.op is not None or s.name == "wal.sync"],
        traced.ops,
        points,
    )
    requests = {i + 1 for i, flag in enumerate(is_request) if flag}
    latency_s = lag_s = 0.0
    for op in requests:
        due, sent, done = traced.stamps[op - 1]
        if done > 0.0:
            latency_s += done - due
            lag_s += sent - due
    answered = {
        op for op in requests if traced.stamps[op - 1][2] > 0.0
    }
    metrics.update(
        layer_shares(
            [s for s in spans if s.op in answered],
            latency_s,
            {"client": lag_s},
        )
    )
    metrics["client.gen_lag_ms_p99"] = 1e3 * quantile(
        [sent - due for due, sent, _done in traced.stamps], 0.99
    )
    metrics["client.inflight_max"] = traced.inflight_max
    metrics["client.latency_samples"] = len(traced.latencies_ms)
    return metrics
