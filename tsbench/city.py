"""The ``city_replay`` workload: the causal engine path, no sockets.

A benchmark city (``CityConfig(seed=seed)``: 100 commuters, 40
wanderers, 14 days) is replayed in time order through
``Engine.process_batch`` into an empty ``TrajectoryStore``, with k=5 and
``AlwaysUnlink(theta=0.1)``.  Which samples become service requests is
drawn here, before timing, with the default ``RequestProfile``.  Each
round builds a fresh city and engine (that is the set-up time) and
times one replay.  A batch replay has no request arrivals, so its
latency is taken per simulated hour: the timeline is handed to
``process_batch`` through a generator that stamps the pull of the first
item of each hour, and the gap to the next such stamp is the engine's
time for that hour of city traffic.  (Per-request times would put p90
on the knee between plain forwards and the ~9% of requests that run a
fresh nearest-users search, where a seed's request mix moves it by
half.)
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time

import numpy as np

from repro.core.historical_k import historical_anonymity_set
from repro.core.unlinking import AlwaysUnlink
from repro.engine.pipeline import BatchItem
from repro.experiments.workloads import DEFAULT_TOLERANCE, make_policy
from repro.metrics.theorem import verify_theorem1
from repro.mobility.population import CityConfig, SyntheticCity
from repro.mod.store import TrajectoryStore
from repro.serve import decision_key
from repro.ts.simulation import LBSSimulation, RequestProfile

import ledger
import procfs
from checks import context_violations

_clock = time.perf_counter

K = 5
#: Seconds of ``--seconds`` that buy one replay round.
ROUND_S = 5.0


def _cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def build(seed: int):
    """City, engine and request draw of one round (the set-up)."""
    city = SyntheticCity.generate(CityConfig(seed=seed))
    simulation = LBSSimulation(
        city, policy=make_policy(K), unlinker=AlwaysUnlink(theta=0.1)
    )
    lbqids = {c.user_id: c.lbqid() for c in city.commuters}
    profile = RequestProfile()
    rng = np.random.default_rng(seed)
    samples = [
        (user_id, sample)
        for user_id in city.store.user_ids()
        for sample in city.store.history(user_id)
    ]
    samples.sort(key=lambda pair: pair[1].t)
    items = []
    for user_id, sample in samples:
        lbqid = lbqids.get(user_id)
        if lbqid is not None and lbqid.element_matching(sample) is not None:
            chance = profile.anchor_request_probability
        else:
            chance = profile.background_probability
        items.append(
            BatchItem(
                user_id=user_id,
                location=sample,
                service=profile.service if rng.random() < chance else None,
            )
        )
    return simulation.engine, items, lbqids


def _hourly(items, hours: list):
    """Yield ``items``; append the processing time of each hour to ``hours``."""
    clock = _clock
    current = start = None
    for item in items:
        hour = int(item.location.t // 3600.0)
        if hour != current:
            now = clock()
            if current is not None:
                hours.append(now - start)
            current, start = hour, now
        yield item
    if current is not None:
        hours.append(clock() - start)


class Round:
    """One timed replay; ``recorder`` (if any) records only the replay."""

    def __init__(self, seed: int, recorder=None) -> None:
        gc.collect()
        started = _clock()
        self.engine, self.items, self.lbqids = build(seed)
        self.setup_s = _clock() - started
        self.hours: list = []
        if recorder is not None:
            recorder.enabled = True
        cpu_before = _cpu_s()
        started = _clock()
        self.events = self.engine.process_batch(
            _hourly(self.items, self.hours)
        )
        self.elapsed_s = _clock() - started
        self.cpu_s = _cpu_s() - cpu_before
        if recorder is not None:
            recorder.enabled = False
        self.rss_mb = procfs.rss_mb(os.getpid())
        self.n_items = len(self.items)
        self.n_events = len(self.events)

    def release(self) -> None:
        """Drop the city, engine and events; keep the measurements."""
        self.engine = self.items = self.events = None

    def percentile_ms(self, q: float) -> float:
        return 1e3 * ledger.quantile(self.hours, q)

    def digest(self) -> list:
        return [decision_key(event) for event in self.events]

    def verify(self) -> dict:
        """Theorem 1, Definition 8 per generalized group, and contexts.

        No pseudonym group completes an LBQID on this workload (every
        failed generalization rotates the pseudonym), so Theorem 1
        holds vacuously; the Definition 8 audit of every group of
        generalized requests is the check with teeth.
        """
        histories = self.engine.store.histories
        report = verify_theorem1(
            self.events,
            histories,
            {user: [lbqid] for user, lbqid in self.lbqids.items()},
            K,
        )
        groups: dict = {}
        samples = []
        for event in self.events:
            if event.decision.value != "generalized":
                continue
            request = event.request
            groups.setdefault(
                (request.user_id, request.pseudonym, event.lbqid_name), []
            ).append(request.context)
            location = event.request.location
            context = event.request.context
            samples.append(
                (
                    location.x, location.y, location.t,
                    (
                        context.rect.x_min, context.rect.y_min,
                        context.rect.x_max, context.rect.y_max,
                        context.interval.start, context.interval.end,
                    ),
                )
            )
        store = TrajectoryStore.from_histories(histories)
        below_k = sum(
            1
            for (user, _pseudonym, _lbqid), contexts in groups.items()
            if 1 + len(
                historical_anonymity_set(
                    contexts, histories, exclude_user=user, store=store
                )
            )
            < K
        )
        return {
            "theorem1_violations": len(report.violations),
            "lbqid_groups_matched": report.groups_matching_lbqid,
            "generalized_groups": len(groups),
            "groups_below_k": below_k,
            "bad_contexts": context_violations(samples, DEFAULT_TOLERANCE),
        }


def run_city(bench, seed: int, seconds: float, trace: bool) -> dict:
    first = Round(seed)
    verdict = first.verify()
    expected = first.digest()
    rounds = [first]
    deterministic = True
    if trace:
        metrics = _traced(bench, seed, first)
    else:
        first.release()
        for _ in range(max(1, round(seconds / ROUND_S)) - 1):
            replay = Round(seed)
            deterministic = deterministic and replay.digest() == expected
            replay.release()
            rounds.append(replay)
        rates = [r.n_items / r.elapsed_s for r in rounds]
        metrics = {
            "p50_ms": statistics.median(r.percentile_ms(0.5) for r in rounds),
            "p90_ms": statistics.median(r.percentile_ms(0.9) for r in rounds),
            "cpu_us_per_op": statistics.median(
                1e6 * r.cpu_s / r.n_items for r in rounds
            ),
            "capacity_ops_s": statistics.median(rates),
            "rss_mb": statistics.median(r.rss_mb for r in rounds),
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "items_per_s": statistics.median(rates),
        }
    return {
        "metrics": metrics,
        "attempted": sum(r.n_events for r in rounds),
        "failed": 0,
        "correct": deterministic
        and verdict["theorem1_violations"] == 0
        and verdict["groups_below_k"] == 0
        and verdict["bad_contexts"] == 0,
        "lines": [
            f"rounds: {len(rounds)} replays of {first.n_items} items "
            f"({first.n_events} requests, {len(first.hours)} simulated "
            "hours) each; failed_frac=0.0",
            " ".join(f"{k}={v}" for k, v in verdict.items())
            + f" deterministic={deterministic}",
            "p99_ms {:.4f} ms per simulated hour (median over replays; "
            "not bounded, see NOTES.md)".format(
                statistics.median(r.percentile_ms(0.99) for r in rounds)
            ),
        ],
    }


def _traced(bench, seed: int, untraced: Round) -> dict:
    """Per-layer metrics of one replay run with the span recorder on."""
    sys.path.insert(0, str(bench.trace_dir))
    from tsbench_shims import Recorder

    recorder = Recorder()
    recorder.enabled = False
    recorder.install()
    traced = Round(seed, recorder)
    replay = ledger.load_process({"spans": recorder.spans})
    points = recorder.store_points()
    # The Definition 8 audit is where the LT-consistency kernel runs.
    recorder.spans.clear()
    recorder.enabled = True
    traced.verify()
    recorder.enabled = False
    checks = ledger.load_process({"spans": recorder.spans})
    metrics = ledger.layer_metrics(replay + checks, traced.n_items, points)
    metrics.update(ledger.layer_shares(replay, traced.elapsed_s))
    metrics["trace.overhead_ratio"] = (traced.cpu_s / traced.n_items) / (
        untraced.cpu_s / untraced.n_items
    )
    metrics["client.latency_samples"] = len(traced.hours)
    metrics["client.p99_ms"] = untraced.percentile_ms(0.99)
    return metrics
