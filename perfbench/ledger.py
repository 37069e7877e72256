"""The traced pass: per-layer self time and counts, measured from outside.

Two instruments, both installed by the benchmark and removed again
before it reports:

* a ``cProfile`` hook whose per-function self time is credited to the
  ``repro.<layer>`` package the function lives in (:func:`attribute`);
* counting and timing wrappers patched over layer public functions
  (:class:`Ledger`).  They are installed on classes and module
  attributes *before* any scenario is built, so bound methods captured
  at construction (the channel's listener fan-out, pre-bound
  ``call_in``) are the wrappers too, and a forked sweep worker inherits
  them.

Nothing here changes what the program computes: wrappers call straight
through, and every traced workload still checks its output digests.
"""

from __future__ import annotations

import collections
import cProfile
import importlib
import pathlib
import sys
import threading
import time
import typing

SRC_REPRO = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "repro")
HARNESS_DIR = str(pathlib.Path(__file__).resolve().parent)

#: the ``repro`` packages the ledger reports one bucket for
LAYERS = (
    "sim", "phy", "mac", "core", "baseline", "traffic", "network",
    "metrics", "obs", "accel", "exec", "serve",
)
#: every bucket self time lands in: the layers, ``other`` (stdlib,
#: builtins, numpy and unlisted ``repro`` modules) and ``harness`` (this
#: benchmark's own wrappers, so their cost is visible, not hidden)
BUCKETS = LAYERS + ("other", "harness")

#: frame types a ``DcfTransmitter.on_frame`` call acts on
USEFUL_FRAMES = ("BEACON", "CF_END")

#: listener callbacks the channel fans out per transmission
LISTENER_CALLBACKS = ("on_frame", "on_medium_busy", "on_medium_idle")

#: marks a patched method the class inherited rather than defined
_INHERITED = object()


def layer_of(filename: str) -> str:
    """The bucket a profiled function's source file belongs to."""
    if filename.startswith(HARNESS_DIR):
        return "harness"
    prefix = SRC_REPRO + "/"
    if filename.startswith(prefix):
        package = filename[len(prefix):].split("/", 1)[0]
        if package in LAYERS:
            return package
    return "other"


def attribute(profile: cProfile.Profile) -> dict[str, float]:
    """Self seconds per bucket of one finished profile."""
    profile.create_stats()
    out = dict.fromkeys(BUCKETS, 0.0)
    for (filename, _line, _name), stat in profile.stats.items():
        out[layer_of(filename)] += stat[2]  # tt: time excluding subcalls
    return out


def add_layers(total: dict[str, float], more: typing.Mapping[str, float]) -> None:
    for bucket, seconds in more.items():
        total[bucket] = total.get(bucket, 0.0) + seconds


class Ledger:
    """Counting/timing wrappers over layer functions, removable as a set."""

    def __init__(self) -> None:
        self.counts: collections.Counter[str] = collections.Counter()
        self.seconds: collections.Counter[str] = collections.Counter()
        #: answer_query wall per call, in call order (serve.http_ms)
        self.answer_walls: list[float] = []
        #: task id -> dispatch clock, for exec.ipc_ms
        self._sent: dict[int, float] = {}
        self._patches: list[tuple[typing.Any, str, typing.Any]] = []
        #: instrument targets not found in this version of the program
        self.missing: list[str] = []
        #: server-thread profiles collected by the serve instruments
        self.thread_profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()
        self.answer_walls.clear()
        self._sent.clear()

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _patch(self, owner: typing.Any, name: str, make: typing.Callable) -> None:
        """Replace ``owner.name`` by ``make(original)``; remember the original.

        The raw ``__dict__`` value is saved and restored, so class
        methods come back as the descriptors they were; a method a
        class inherits is shadowed, then deleted again on uninstall.
        """
        raw = original = vars(owner).get(name, _INHERITED)
        if raw is _INHERITED:
            raw = getattr(owner, name, None)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
                return
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _target(self, module: str, attr: str | None = None) -> typing.Any:
        try:
            obj = importlib.import_module(module)
        except ImportError:
            self.missing.append(module)
            return None
        if attr is None:
            return obj
        found = getattr(obj, attr, None)
        if found is None:
            self.missing.append(f"{module}.{attr}")
        return found

    # -- wrapper factories -------------------------------------------------
    def _count(self, key: str) -> typing.Callable:
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _time(self, key: str) -> typing.Callable:
        counts, seconds = self.counts, self.seconds

        def make(fn):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[key] += time.perf_counter() - start
                    counts[key] += 1

            return timed

        return make

    # -- instrument sets ---------------------------------------------------
    def install_simulation(self) -> None:
        """Counters over the simulation layers' public functions."""
        counts = self.counts
        engine = self._target("repro.sim.engine")
        if engine is not None:
            for owner, name, key in (
                (getattr(engine, "Simulator", None), "call_at", "sim.timers_scheduled"),
                (getattr(engine, "Simulator", None), "call_in", "sim.timers_scheduled"),
                (getattr(engine, "TimerHandle", None), "cancel", "sim.cancels"),
            ):
                if owner is not None:
                    self._patch(owner, name, self._count(key))
        channel = self._target("repro.phy.channel")
        if channel is not None:
            self._patch(channel.Channel, "transmit", self._count("phy.transmissions"))
            # every listener class the scenario stack defines must be
            # imported before the subclass walk below
            for module in ("repro.mac.dcf", "repro.mac.pcf", "repro.core.qos_ap",
                           "repro.baseline.conventional"):
                self._target(module)
            for cls in _subclasses(channel.ChannelListener):
                for name in LISTENER_CALLBACKS:
                    if name in vars(cls):
                        self._patch(cls, name, self._count("phy.listener_calls"))
        dcf = self._target("repro.mac.dcf", "DcfTransmitter")
        if dcf is not None:

            def make_on_frame(fn):
                def on_frame(self_, frame, *args, **kwargs):
                    counts["mac.on_frame_calls"] += 1
                    ftype = getattr(frame, "ftype", None)
                    if getattr(ftype, "name", None) in USEFUL_FRAMES:
                        counts["mac.on_frame_useful"] += 1
                    return fn(self_, frame, *args, **kwargs)

                return on_frame

            self._patch(dcf, "on_frame", make_on_frame)
        policy = self._target("repro.core.token_policy", "TokenPolicy")
        if policy is not None:
            self._patch(policy, "next_action", self._count("core.poll_decisions"))
        admission = self._target("repro.core.admission", "AdmissionController")
        if admission is not None:
            for name in ("try_admit_voice", "try_admit_video"):
                self._patch(admission, name, self._count("core.admission_checks"))

    def install_exec(self) -> None:
        """Timing wrappers around the coordinator's per-point work."""
        executor = self._target("repro.exec.executor")
        if executor is not None:
            self._patch(executor, "config_key", self._time("exec.hash"))
            self._patch(executor, "normalize_row", self._time("exec.normalize"))
        cache = self._target("repro.exec.cache", "ResultCache")
        if cache is not None:
            self._patch(cache, "get", self._time("exec.cache_get"))
            self._patch(cache, "put", self._time("exec.cache_put"))
        journal = self._target("repro.exec.journal", "SweepJournal")
        if journal is not None:
            self._patch(journal, "append", self._time("exec.journal_append"))
        pool = self._target("repro.exec.pool", "WorkerPool")
        if pool is None:
            return
        sent, counts, seconds = self._sent, self.counts, self.seconds

        def make_dispatch(fn):
            def dispatch(self_, worker, task_id, *args, **kwargs):
                result = fn(self_, worker, task_id, *args, **kwargs)
                sent[task_id] = time.perf_counter()
                return result

            return dispatch

        def make_poll(fn):
            def poll(self_, *args, **kwargs):
                messages, dead = fn(self_, *args, **kwargs)
                now = time.perf_counter()
                for message in messages:
                    kind, _worker, task_id, _payload, wall = message
                    if kind == "done" and task_id in sent:
                        seconds["exec.ipc"] += now - sent.pop(task_id) - wall
                        counts["exec.ipc"] += 1
                return messages, dead

            return poll

        self._patch(pool, "dispatch", make_dispatch)
        self._patch(pool, "poll", make_poll)

    def install_serve(self) -> None:
        """Index build, per-kind answer time, lookups, server-thread profile."""
        surface = self._target("repro.serve.surface")
        if surface is not None:
            self._patch(surface.SurfaceIndex, "from_cache", self._time("serve.index_build"))
            self._patch(surface.SweepSurface, "lookup", self._time("serve.lookup"))
        app = self._target("repro.serve.app")
        if app is None:
            return
        counts, seconds, walls = self.counts, self.seconds, self.answer_walls

        def make_answer(fn):
            def answer_query(index, kind, params):
                start = time.perf_counter()
                try:
                    return fn(index, kind, params)
                finally:
                    wall = time.perf_counter() - start
                    seconds[f"serve.answer.{kind}"] += wall
                    counts[f"serve.answer.{kind}"] += 1
                    walls.append(wall)

            return answer_query

        profiles, lock = self.thread_profiles, self._lock

        def make_finish(fn):
            # one handler thread serves the whole keep-alive connection;
            # cProfile only sees the thread that enabled it
            def finish_request(self_, *args, **kwargs):
                profile = cProfile.Profile()
                profile.enable()
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    profile.disable()
                    with lock:
                        profiles.append(profile)

            return finish_request

        self._patch(app, "answer_query", make_answer)
        self._patch(app.QueryServer, "finish_request", make_finish)


def _subclasses(cls: type) -> list[type]:
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def clean() -> bool:
    """True when no profiler hook is active in this thread or for new ones."""
    return sys.getprofile() is None and threading.getprofile() is None


class Profiled:
    """``with Profiled() as p: ...`` then ``p.layers`` — self time per bucket."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.layers: dict[str, float] = {}

    def __enter__(self) -> "Profiled":
        self.profile.enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.profile.disable()
        self.layers = attribute(self.profile)
