"""Output checks of the benchmark, and the self-test that proves them."""

from __future__ import annotations

from repro.core.generalization import ToleranceConstraint
from repro.serve import DecisionReply, decision_key, decode_reply, encode_frame


def count_mismatches(expected: dict, served: dict) -> int:
    """Decision keys that differ, per user, between two streams.

    Both map user id to that user's request decision keys in order; a
    missing or extra decision counts as one mismatch each.
    """
    mismatches = 0
    for user in expected.keys() | served.keys():
        want = expected.get(user, [])
        got = served.get(user, [])
        mismatches += abs(len(want) - len(got))
        mismatches += sum(1 for a, b in zip(want, got) if a != b)
    return mismatches


def context_violations(samples, tolerance: ToleranceConstraint) -> int:
    """Generalized contexts that miss the requester or the tolerance.

    ``samples`` holds ``(x, y, t, (x_min, y_min, x_max, y_max, start,
    end))`` per generalized request: the requester's true location and
    the context the provider received.
    """
    bad = 0
    for x, y, t, (x0, y0, x1, y1, t0, t1) in samples:
        inside = x0 <= x <= x1 and y0 <= y <= y1 and t0 <= t <= t1
        fits = (
            x1 - x0 <= tolerance.max_width
            and y1 - y0 <= tolerance.max_height
            and t1 - t0 <= tolerance.max_duration
        )
        bad += not (inside and fits)
    return bad


def self_test() -> bool:
    """Feed one corrupted reply and one oversized box; both must fail."""
    reply = DecisionReply(
        id=7, msgid=3, pseudonym="p0.1", decision="generalized",
        forwarded=True, context=(10.0, 20.0, 410.0, 620.0, 100.0, 700.0),
        lbqid="home-work", step=1, required_k=5, rotated=False,
    )
    line = encode_frame(reply)
    corrupted = decode_reply(line.replace(b"410.0", b"411.0", 1))
    clean = {1: [decision_key(decode_reply(line))]}
    caught_reply = (
        count_mismatches(clean, {1: [decision_key(reply)]}) == 0
        and count_mismatches(clean, {1: [decision_key(corrupted)]}) == 1
    )
    tolerance = ToleranceConstraint.square(1500.0, 1800.0)
    good = (500.0, 500.0, 1000.0, (0.0, 0.0, 1000.0, 1000.0, 0.0, 1800.0))
    wide = (500.0, 500.0, 1000.0, (0.0, 0.0, 1600.0, 1000.0, 0.0, 1800.0))
    caught_box = (
        context_violations([good], tolerance) == 0
        and context_violations([good, wide], tolerance) == 1
    )
    return caught_reply and caught_box
