"""Span recorder for the traced benchmark run.

Wraps public functions of the program at the names their calling
modules bind (``repro.serve.transports.decode_request``,
``repro.serve.server.execute_op``, each stage class's ``handle``,
``TrajectoryStore.nearest_users`` ...) and records one span per call:
``(name, start, end, parent, op, key, note)``.

* ``parent`` is the index of the enclosing span in the same task
  (a ``ContextVar``), or -1;
* ``key`` is the frame id the call carries (servable frames and their
  replies only), ``op`` the key of the outermost span of the chain, so
  engine and store spans inherit the op of the frame that caused them;
* ``note`` is a small per-call outcome (decision, shed, rejection).

Spans stay in memory; :meth:`Recorder.dump` writes them out, which the
``sitecustomize`` next to this file arranges at interpreter exit.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import time

_clock = time.perf_counter


def _frame_key(frame):
    """The id of a servable frame or of a data-plane reply, else None."""
    if type(frame).__name__ in _KEYED:
        return frame.id
    return None


def _arg_key(index):
    return lambda args: _frame_key(args[index])


def _no_key(args):
    return None


_KEYED = frozenset(
    {
        "LocationUpdate",
        "ServiceRequest",
        "DecisionReply",
        "UpdateAck",
        "ErrorReply",
    }
)


class Recorder:
    """In-memory span list of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._current = contextvars.ContextVar("tsbench_span", default=None)
        #: Engines built while installed, kept alive for ``mod.points``.
        self.engines: list = []
        self.enabled = True

    # -- wrapping ------------------------------------------------------

    def _open(self, key):
        parent = self._current.get()
        op = parent[1] if parent is not None else key
        index = len(self.spans)
        self.spans.append(None)
        token = self._current.set((index, op))
        return index, op, -1 if parent is None else parent[0], token

    def wrap(self, name, fn, key_of=None, note_of=None):
        """A synchronous wrapper recording one span per call."""
        spans = self.spans
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            key = key_of(args) if key_of is not None else None
            index, op, parent, token = self._open(key)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                current.reset(token)
                if key is None and key_of is not None:
                    key = _frame_key(result)
                    if op is None:
                        op = key
                note = (
                    note_of(args, result)
                    if note_of is not None and result is not None
                    else None
                )
                spans[index] = (name, start, end, parent, op, key, note)

        return wrapper

    def wrap_async(self, name, fn, key_of, note_of=None):
        """The coroutine form of :meth:`wrap`."""
        spans = self.spans
        current = self._current

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            key = key_of(args)
            index, op, parent, token = self._open(key)
            start = _clock()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                current.reset(token)
                note = (
                    note_of(args, result)
                    if note_of is not None and result is not None
                    else None
                )
                spans[index] = (name, start, end, parent, op, key, note)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Patch every timed entry point of the program (idempotent)."""
        import repro.serve.client as client_mod
        import repro.serve.server as server_mod
        import repro.serve.shard as shard_mod
        import repro.serve.supervisor as supervisor_mod
        import repro.serve.transports as transports_mod
        from repro.engine import stages as stages_mod
        from repro.engine.pipeline import Engine
        from repro.mod.store import TrajectoryStore
        from repro.serve.gate import ConnectionGate
        from repro.serve.wal import ShardWal

        if getattr(Engine, "_tsbench_installed", False):
            return
        Engine._tsbench_installed = True

        arg = _arg_key
        result_key = _no_key  # the key comes from the returned frame

        transports_mod.decode_request = self.wrap(
            "protocol.decode", transports_mod.decode_request, result_key
        )
        transports_mod.encode_frame = self.wrap(
            "protocol.encode", transports_mod.encode_frame, arg(0)
        )
        # The supervisor's hop to its workers rides ServeClient.
        client_mod.encode_frame = self.wrap(
            "protocol.encode_fwd", client_mod.encode_frame, arg(0)
        )
        client_mod.decode_reply = self.wrap(
            "protocol.decode_fwd", client_mod.decode_reply, result_key
        )
        server_mod.execute_op = self.wrap(
            "engine.execute_op", server_mod.execute_op, arg(1)
        )
        shard_mod.execute_op = self.wrap(
            "engine.execute_op", shard_mod.execute_op, arg(1)
        )

        def shed_note(args, result):
            return getattr(result, "code", None)

        server_mod.TrustedServer.submit = self.wrap_async(
            "server.submit",
            server_mod.TrustedServer.submit,
            arg(2),
            shed_note,
        )
        shard_mod.ShardRouter.submit = self.wrap_async(
            "shard.submit", shard_mod.ShardRouter.submit, arg(2), shed_note
        )
        supervisor_mod.WorkerSupervisor.submit = self.wrap_async(
            "supervisor.submit",
            supervisor_mod.WorkerSupervisor.submit,
            arg(2),
            shed_note,
        )
        shard_mod.ShardRuntime.execute = self.wrap(
            "shard.execute", shard_mod.ShardRuntime.execute, arg(1)
        )
        ConnectionGate.admit_op = self.wrap(
            "gate.admit_op",
            ConnectionGate.admit_op,
            lambda args: args[2],
            lambda args, result: "rejected",
        )
        ShardWal.append = self.wrap("wal.append", ShardWal.append)
        ShardWal.sync = self.wrap("wal.sync", ShardWal.sync)

        engine_init = Engine.__init__

        @functools.wraps(engine_init)
        def init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            self.engines.append(engine)

        Engine.__init__ = init
        Engine.process = self.wrap(
            "engine.process",
            Engine.process,
            note_of=lambda args, event: event.decision.value,
        )
        Engine.report_location = self.wrap(
            "engine.report_location", Engine.report_location
        )
        for stage_cls in (
            stages_mod.QuietGate,
            stages_mod.MonitorMatch,
            stages_mod.Generalize,
            stages_mod.Unlink,
            stages_mod.RiskPolicy,
            stages_mod.Audit,
        ):
            stage_cls.handle = self.wrap(
                f"engine.stage.{stage_cls.name}",
                stage_cls.handle,
                note_of=lambda args, decision: decision.value,
            )
        for method in (
            "nearest_users",
            "closest_points",
            "add_point",
            "add_points",
            "lt_consistent_users",
        ):
            setattr(
                TrajectoryStore,
                method,
                self.wrap(f"mod.{method}", getattr(TrajectoryStore, method)),
            )

    # -- output --------------------------------------------------------

    def store_points(self) -> int:
        """Points held by the stores of every engine still alive."""
        return sum(engine.store.total_points for engine in self.engines)

    def snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "argv": sys.argv,
            "points": self.store_points(),
            # Unfinished spans stay as null so parent indices hold.
            "spans": self.spans,
        }

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, separators=(",", ":"))
