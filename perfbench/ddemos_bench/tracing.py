"""Traced-run instrumentation: wrap layer entry points, record spans and counts.

Nothing here changes the program.  :meth:`Tracer.install` replaces public functions
and methods of each layer, named by dotted path in :data:`TARGETS`, with
timing wrappers; :meth:`Tracer.uninstall` puts the originals back.  A target
that no longer exists (a module or method removed by a refactor) is recorded
in ``Tracer.missing`` and its layer reports as absent; it never crashes the
run.

Every wrapped call updates per-key aggregates: outermost call count,
inclusive time and self time (duration minus the time of wrapped calls made
inside it).  Coarse calls (``span=True``) additionally record a span: name,
layer, start, end, parent span, workload, election and process id, plus the
change of the hash and mod-exp counters across the span.  Spans stay in
memory and are written out as JSON lines when the benchmark ends.

Scale-path pool workers are forked from the traced parent, so they inherit
the wrappers.  Each worker records into its own (reset) tracer and ships what
it recorded back inside the shard's wire dict, where the parent's wrapper of
``ShardSliceResult.from_wire_dict`` takes it out and merges it.  The parent
stamps each shard task with its submission time (a wrapped
``ProcessPoolExecutor.submit``) so the worker can report its queue wait.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf = time.perf_counter

#: key under which a worker's recorded trace travels in a shard wire dict
TRACE_KEY = "bench_trace"
#: key under which the parent stamps a shard task's submission time
SUBMIT_KEY = "bench_submitted_at"

#: counters whose change each span records (counts taken at span boundaries)
SPAN_COUNTERS = ("crypto.hash", "crypto.modexp")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: where it lives and what it is called."""

    path: str
    key: str
    layer: str
    span: bool = False
    #: also wrap overrides of the method in every subclass
    subclasses: bool = False
    #: ``fn(tracer, args, result)`` run after an outermost call returns
    on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None
    #: ``fn(tracer, args)`` run before the call (span targets only)
    before: Optional[Callable[["Tracer", tuple], None]] = None


def _count_bytes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["codec.bytes_encoded"] += len(result)


def _count_events(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["net.events"] += int(result)


def _count_equations(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["crypto.batch_equations"] += int(getattr(result, "equations", 0))


def _count_inflight(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["pool.peak_inflight"] += int(getattr(args[0], "peak_inflight", 0))


def _merge_worker_trace(tracer: "Tracer", args: tuple) -> None:
    """Take a worker's shipped trace out of a shard wire dict (``args[1]``)."""
    data = args[1] if len(args) > 1 else None
    if isinstance(data, dict) and TRACE_KEY in data:
        tracer.merge(data.pop(TRACE_KEY))


TARGETS: Tuple[Target, ...] = (
    # crypto: mod-exp in every backend, batch verification, hashing
    Target("repro.crypto.group.GroupElement.__pow__", "crypto.modexp", "crypto",
           subclasses=True),
    Target("repro.crypto.group.FixedBasePrecomputation.power", "crypto.modexp", "crypto",
           subclasses=True),
    Target("repro.crypto.group.Group.multi_power", "crypto.modexp", "crypto",
           subclasses=True),
    Target("repro.crypto.batch_verify.BatchVerifier.verify_signatures",
           "crypto.batch_verify", "crypto", on_result=_count_equations),
    Target("repro.crypto.batch_verify.BatchVerifier.verify_proofs",
           "crypto.batch_verify", "crypto", on_result=_count_equations),
    Target("repro.crypto.batch_verify.BatchVerifier.verify_openings",
           "crypto.batch_verify", "crypto", on_result=_count_equations),
    Target("repro.crypto.utils.sha256", "crypto.hash", "crypto.utils"),
    # engine layers
    Target("repro.core.ea.ElectionAuthority.setup", "ea.setup", "core.ea", span=True),
    Target("repro.net.codec.MessageCodec.signing_bytes", "codec.signing_bytes", "net.codec"),
    Target("repro.net.codec.MessageCodec.encode", "codec.encode", "net.codec",
           on_result=_count_bytes),
    Target("repro.net.codec.MessageCodec.decode", "codec.decode", "net.codec"),
    Target("repro.net.simulator.Network.run", "net.run", "net.simulator", span=True,
           on_result=_count_events),
    Target("repro.net.simulator.Network.run_until_idle", "net.run", "net.simulator",
           on_result=_count_events),
    Target("repro.core.vote_collector.VoteCollectorNode.on_message", "vc.on_message",
           "core.vote_collector"),
    Target("repro.core.bulletin_board.BulletinBoardNode.on_message", "bb.on_message",
           "core.bulletin_board"),
    Target("repro.core.voter.VoterClient.on_message", "voter.on_message", "core.voter"),
    Target("repro.core.admission.EndorsementBatcher.flush", "admission.flush",
           "core.admission"),
    Target("repro.core.trustee.Trustee.produce_submission", "trustee.submission",
           "core.trustee", span=True),
    Target("repro.core.bulletin_board.MajorityReader.tally", "bb.majority_tally",
           "core.bulletin_board", span=True),
    Target("repro.core.auditor.Auditor.verify_all", "audit.verify_all", "core.auditor",
           span=True),
    Target("repro.consensus.bracha.BinaryConsensusInstance.propose", "consensus.handle",
           "consensus"),
    Target("repro.consensus.bracha.BinaryConsensusInstance.handle", "consensus.handle",
           "consensus"),
    Target("repro.consensus.batching.SuperblockConsensus.start", "consensus.handle",
           "consensus"),
    Target("repro.consensus.batching.SuperblockConsensus.handle", "consensus.handle",
           "consensus"),
    # scale-path layers
    Target("repro.consensus.cluster.ConsensusCluster.run", "consensus.cluster", "consensus",
           span=True),
    Target("repro.shard.shard_runner.ShardRunner.run", "shard.slice", "shard.shard_runner",
           span=True),
    Target("repro.shard.shard_runner.ShardRunner.ea_commitment_table", "shard.ea_table",
           "shard.shard_runner", span=True),
    Target("repro.shard.streaming.StreamingTally.add_vote", "shard.tally", "shard.streaming"),
    Target("repro.shard.streaming.StreamingTally.commit", "shard.tally", "shard.streaming"),
    Target("repro.shard.streaming.StreamingTally.opening", "shard.tally", "shard.streaming"),
    Target("repro.shard.merge.CrossShardCommit.prepare", "shard.merge_prepare", "shard.merge",
           span=True),
    Target("repro.shard.driver.commit_and_verify", "shard.commit_verify", "shard.merge",
           span=True),
    Target("repro.shard.driver.ShardedElectionDriver.run", "shard.driver_run", "shard.driver",
           span=True),
    Target("repro.shard.parallel_driver.ParallelShardedElectionDriver.run",
           "shard.driver_run", "shard.driver", span=True, on_result=_count_inflight),
    Target("repro.shard.shard_runner.ShardSliceResult.from_wire_dict", "shard.frame_decode",
           "shard.merge", span=True, before=_merge_worker_trace),
)

#: layer of every aggregate key (benchmark-owned spans included)
KEY_LAYERS: Dict[str, str] = {target.key: target.layer for target in TARGETS}
KEY_LAYERS.update({
    "election": "api.engine",
    "phase": "api.engine",
    "run_sharded": "api.service",
    "pool.slice": "perf.parallel",
})
LAYERS: Tuple[str, ...] = tuple(sorted(set(KEY_LAYERS.values())))

#: the worker-side slice entry point (wrapped by a module-level function, so
#: a spawn-started pool could still pickle it by reference) and the pool
#: submission that stamps each shard task
_WORKER_SLICE = "repro.shard.parallel_driver._run_shard_slice"
_SUBMIT = "concurrent.futures.ProcessPoolExecutor.submit"


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, value)`` for a dotted path; raises LookupError."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                raise LookupError(path)
        if parts[-1] not in vars(owner):
            raise LookupError(path)
        return owner, parts[-1], vars(owner)[parts[-1]]
    raise LookupError(path)


def _import_all(package: str = "repro") -> None:
    """Import every module of the package before patching.

    A module first imported while tracing would copy a wrapper into its own
    namespace and keep it after :meth:`Tracer.uninstall`.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if info.name.endswith(".__main__"):  # entry points run on import
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:  # optional backends (gmpy2) may be absent
            continue


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Tracer:
    """In-memory span and aggregate recorder for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.election: Optional[str] = None
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (in place: wrappers hold the containers)."""
        self.stack.clear()
        for table in (self.calls, self.inclusive, self.self_time, self.samples):
            table.clear()
        self.counters.clear()
        for name in ("codec.bytes_encoded", "net.events", "crypto.batch_equations",
                     "pool.peak_inflight"):
            self.counters[name] = 0
        self.spans.clear()

    # -- recording -------------------------------------------------------------

    def _parent(self) -> Optional[str]:
        return next((f[2] for f in reversed(self.stack) if f[2] is not None), None)

    def _open(self, key: str) -> list:
        # frame: [key, child seconds, span id, counter snapshot, parent span id]
        self._next_id += 1
        frame = [key, 0.0, f"{os.getpid()}:{self._next_id}",
                 tuple(self.calls.get(name, 0) for name in SPAN_COUNTERS), self._parent()]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, duration: float, outer: bool,
               name: Optional[str] = None) -> None:
        self.stack.pop()
        key = frame[0]
        if self.stack:
            self.stack[-1][1] += duration
        self.self_time[key] = self.self_time.get(key, 0.0) + duration - frame[1]
        if outer:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.inclusive[key] = self.inclusive.get(key, 0.0) + duration
        if len(frame) > 3:
            counts = {
                counter: self.calls.get(counter, 0) - before
                for counter, before in zip(SPAN_COUNTERS, frame[3], strict=True)
            }
            self.spans.append({
                "id": frame[2],
                "parent": frame[4],
                "name": name or key,
                "layer": KEY_LAYERS.get(key, key),
                "start": start,
                "end": start + duration,
                "workload": self.workload,
                "election": self.election,
                "pid": os.getpid(),
                "counts": {k: v for k, v in counts.items() if v},
            })

    @contextlib.contextmanager
    def span(self, key: str, name: Optional[str] = None) -> Iterator[None]:
        """Record a benchmark-owned span around the ``with`` block."""
        outer = not self.stack or self.stack[-1][0] != key
        frame = self._open(key)
        start = perf()
        try:
            yield
        finally:
            self._close(frame, start, perf() - start, outer, name)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        key, on_result, before = target.key, target.on_result, target.before
        stack, calls, inclusive, self_time = self.stack, self.calls, self.inclusive, self.self_time
        tracer = self

        if target.span:
            def traced(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                outer = not stack or stack[-1][0] != key
                frame = tracer._open(key)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame, start, perf() - start, outer)
                if on_result is not None and outer:
                    on_result(tracer, args, result)
                return result
        else:
            # Hot path (hashes, mod-exps, codec calls): no span, inlined bookkeeping.
            def traced(*args, **kwargs):
                outer = not stack or stack[-1][0] != key
                frame = [key, 0.0, None]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    self_time[key] = self_time.get(key, 0.0) + duration - frame[1]
                    if outer:
                        calls[key] = calls.get(key, 0) + 1
                        inclusive[key] = inclusive.get(key, 0.0) + duration
                if on_result is not None and outer:
                    on_result(tracer, args, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        return traced

    # -- worker shipping -------------------------------------------------------

    def export(self) -> dict:
        """What this (worker) process recorded since the last export; then reset."""
        shipped = {
            "spans": list(self.spans),
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }
        self.reset()
        return shipped

    def merge(self, shipped: dict) -> None:
        parent = self._parent()
        for span in shipped["spans"]:
            span = dict(span, election=self.election)
            if span["parent"] is None:
                span["parent"] = parent
            self.spans.append(span)
        for table_name in ("calls", "inclusive", "self_time", "counters"):
            table = getattr(self, table_name)
            for key, value in shipped[table_name].items():
                table[key] = table.get(key, 0) + value
        for name, values in shipped["samples"].items():
            self.samples.setdefault(name, []).extend(values)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _install_target(self, target: Target) -> None:
        owner, name, value = resolve(target.path)
        if isinstance(owner, type):
            classes = _subclasses(owner) if target.subclasses else [owner]
            for cls in classes:
                raw = vars(cls).get(name)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patch(cls, name, type(raw)(self.wrap(raw.__func__, target)))
                else:
                    self._patch(cls, name, self.wrap(raw, target))
        else:
            self._patch_everywhere(value, self.wrap(value, target))

    def _patch_everywhere(self, value: Any, replacement: Any) -> None:
        """Replace a module-level function wherever a module looked it up."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, candidate in list(vars(module).items()):
                if candidate is value:
                    self._patch(module, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every target that exists; record the ones that do not."""
        global _ACTIVE
        _import_all()
        for target in TARGETS:
            try:
                self._install_target(target)
            except LookupError:
                self.missing.append(target.path)
        for path, replacement in ((_WORKER_SLICE, traced_shard_slice),
                                  (_SUBMIT, _stamping_submit)):
            try:
                owner, name, value = resolve(path)
            except LookupError:
                self.missing.append(path)
                continue
            _ORIGINALS[path] = value
            if isinstance(owner, type):
                self._patch(owner, name, replacement)
            else:
                self._patch_everywhere(value, replacement)
        _ACTIVE = self
        _register_fork_hook()
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        _ORIGINALS.clear()
        if _ACTIVE is self:
            _ACTIVE = None


# -- process-wide state for forked pool workers --------------------------------

_ACTIVE: Optional[Tracer] = None
_ORIGINALS: Dict[str, Any] = {}
_FORK_HOOK = False


def _reset_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.reset()


def _register_fork_hook() -> None:
    global _FORK_HOOK
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_reset_in_child)
        _FORK_HOOK = True


def _original(path: str) -> Callable:
    if path in _ORIGINALS:
        return _ORIGINALS[path]
    return resolve(path)[2]


def traced_shard_slice(task: dict) -> dict:
    """Worker slice wrapper: records the slice and ships the worker's trace."""
    original = _original(_WORKER_SLICE)
    tracer = _ACTIVE
    if tracer is None:
        return original(task)
    submitted = task.get(SUBMIT_KEY)
    if submitted is not None:
        tracer.sample("pool.queue_wait", perf() - submitted)
    with tracer.span("pool.slice", name=f"pool.slice[{task.get('shard_id')}]"):
        wire = original(task)
    wire[TRACE_KEY] = tracer.export()
    return wire


def _stamping_submit(self, fn, /, *args, **kwargs):
    """Stamp a shard task's submission time so the worker can measure queue wait."""
    if args and isinstance(args[0], dict) and "shard_id" in args[0]:
        args[0][SUBMIT_KEY] = perf()
    return _ORIGINALS[_SUBMIT](self, fn, *args, **kwargs)
