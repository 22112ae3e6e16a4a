"""The benchmark's three workloads, driven through the UDR's public API.

Each workload takes the benchmark seed, generates its inputs from it (the
program sees only those inputs), sets up, runs whole rounds of the same
operations until the wall-clock budget is spent, and checks its outputs.

Two clocks are measured.  Wall time (``time.perf_counter``) is how fast the
Python simulator executes the model.  Sim time is what the model reports;
it is deterministic for a seed, so the sim-clock latencies and the work
counts are taken over a fixed *window* of rounds that every run completes,
whatever the machine's speed: repeat runs of one seed print identical
values.  Round-based rates are medians over every round of the run.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
import tracemalloc
from typing import Dict, List, Optional

from repro.api.operations import Provision, Read, Search, Write
from repro.api.qos import QoSProfile
from repro.core.config import (
    ClientType,
    DispatchMode,
    Priority,
    RetryPolicy,
    UDRConfig,
)
from repro.core.udr import UDRNetworkFunction
from repro.ldap.operations import ResultCode
from repro.subscriber.generator import SubscriberGenerator

import checks
from hostclock import HostClock, Stopwatch

#: Subscribers loaded before traffic starts (signalling_steady and
#: provisioning_burst), and per bulk_load round.
BASE_SUBSCRIBERS = 3000
BULK_SUBSCRIBERS = 4000
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Profiles per ``load_subscriber_base`` call, so a long load is timed in
#: short segments (see hostclock.py).
LOAD_CHUNK = 250

#: signalling_steady: Poisson arrivals on the sim clock, well below the
#: rate at which a backlog forms, cut into rounds of ``SIGNALLING_ROUND``
#: arrivals; the first ``SIGNALLING_WINDOW`` rounds are the fixed window.
SIGNALLING_RATE = 500.0
SIGNALLING_ROUND = 1000
SIGNALLING_WINDOW = 8
#: Operation mix (shares of arrivals).
SIGNALLING_MIX = (("read", 0.50), ("search", 0.15), ("fe_write", 0.20),
                  ("ps_change", 0.14), ("create", 0.01))
FE_ATTRIBUTES = ("servingMsc", "servingSgsn")
#: New subscriptions available to ``Provision.create`` in one run: a
#: 20 s run creates about 500.
CREATION_POOL = 5000
PS_ATTRIBUTES = ("svcCfu", "svcCfb")

#: provisioning_burst: every round the provisioning client enqueues a
#: backlog of bulk-class writes at once; front-end reads arrive meanwhile.
BURST_BACKLOG = 3000
BURST_READ_RATE = 50.0
BURST_WINDOW = 2
#: Subscribers the backlog writes to (several writes per attribute, so the
#: last-submitted-wins check has something to decide).
BURST_TARGETS = 600

#: Sim seconds of idle running after traffic, so asynchronous replication
#: ships everything before replicas are compared with masters.
QUIESCE_S = 2.0
#: A request lost on the client-to-PoA hop never reached the UDR; the
#: client resends it (``resent``), at most this many times.
MAX_RESENDS = 3

RETRY = RetryPolicy()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction *
                                                  (len(ordered) - 1)))))
    return ordered[rank]


def base_profiles(seed: int, count: int):
    return SubscriberGenerator(UDRConfig().regions, seed=seed).generate(count)


def fresh_profiles(seed: int, count: int, taken):
    """Profiles for subscriptions created during the run, disjoint from the
    loaded base."""
    profiles = SubscriberGenerator(UDRConfig().regions,
                                   seed=seed + 7919).generate(count)
    imsis = {profile.identities.imsi for profile in taken}
    if any(profile.identities.imsi in imsis for profile in profiles):
        raise RuntimeError(f"seed {seed}: created identities collide with "
                           f"the loaded base")
    return profiles


def lost_before_admission(response) -> bool:
    """The request message was lost on the client-to-PoA hop: the UDR never
    saw it, so resending it is safe."""
    return response.result_code is ResultCode.UNAVAILABLE and \
        "client to PoA" in response.diagnostic_message


def deployment_counts(udr) -> Dict[str, float]:
    """Work counters of a deployment, read without tracing."""
    wal_records = 0
    versions = 0
    records = 0
    for replica_set in udr.replica_sets.values():
        for _element, copy in replica_set.members():
            wal_records += len(copy.wal)
            store = copy.store
            for key in store.keys():
                versions += len(store.versions(key))
                records += 1
    stats = udr.network.stats
    mux = udr.replication_mux
    return {
        "wal_records": wal_records,
        "versions": versions,
        "records": records,
        "messages": stats.total_messages(),
        "bytes": sum(stats.bytes.values()),
        "shipments": mux.shipments,
        "records_shipped": mux.records_shipped,
        "waves": udr.metrics.counter("dispatcher.waves"),
        "dispatched": udr.metrics.counter("dispatcher.dispatched"),
        "retries": udr.metrics.counter("batch.retries"),
    }


class RunResult:
    """Everything one workload run measured."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.resent = 0
        self.problems: List[str] = []
        self.setup_s: List[float] = []
        #: Scaled seconds of every load chunk, one list per load.
        self.loads: List[List[float]] = []
        self.base = 0
        #: Scaled seconds (hostclock.py) and operations of every round.
        self.rounds: List[tuple] = []
        self.timed_ops = 0
        self.timed_s = 0.0
        self.timed_steps = 0
        self.peak_rss_mb = 0.0
        self.sim: Dict[str, float] = {}
        self.window: Dict[str, float] = {}
        self.final: Dict[str, float] = {}
        self.memory: Dict[str, float] = {}

    def rate(self) -> float:
        return statistics.median(ops / seconds for seconds, ops in self.rounds)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "load_rate": self.load_rate(),
            "ops_per_s": self.rate(),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def load_rate(self) -> float:
        """Subscribers per second of one load, taking for each chunk the
        median over the run's loads, so a chunk the host slowed down in
        one load does not count."""
        chunks = zip(*self.loads)
        return self.base / sum(statistics.median(times) for times in chunks)


# -- set-up ---------------------------------------------------------------------


def load(udr, profiles, watch: Stopwatch, loads: List[List[float]]) -> None:
    """``load_subscriber_base`` in chunks of ``LOAD_CHUNK``, each its own
    timed segment; appends the list of chunk times (scaled seconds) to
    ``loads``."""
    times = []
    for start in range(0, len(profiles), LOAD_CHUNK):
        udr.load_subscriber_base(profiles[start:start + LOAD_CHUNK])
        times.append(watch.split(force=True))
    loads.append(times)


def _program_bytes() -> int:
    """Bytes allocated by the program's own code since tracemalloc started
    and still alive."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/*")])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def set_up(config: UDRConfig, seed: int, result: RunResult, clock: HostClock,
           repeats: int, memory: bool = False):
    """Generate the inputs, build and start the deployment and load the base,
    ``repeats`` times; the last deployment is kept.  Returns
    ``(udr, profiles)``.  With ``memory``, the last load runs under
    tracemalloc (a traced run, which reports no set-up metric)."""
    udr = profiles = None
    for repeat in range(repeats):
        udr = profiles = None
        gc.collect()
        traced = memory and repeat == repeats - 1
        watch = Stopwatch(clock)
        profiles = base_profiles(seed, BASE_SUBSCRIBERS)
        udr = UDRNetworkFunction(config)
        udr.start()
        watch.split(force=True)
        if traced:
            tracemalloc.start()
        load(udr, profiles, watch, result.loads)
        total = watch.stop()
        if traced:
            gc.collect()
            result.memory["retained_bytes_per_subscriber"] = \
                _program_bytes() / len(profiles)
            tracemalloc.stop()
        result.setup_s.append(total)
    result.base = len(profiles)
    return udr, profiles


def _step_until(sim, condition, watch: Optional[Stopwatch] = None) -> int:
    """Step the simulation until ``condition()``; returns the steps taken.
    With a stopwatch, the stepping is timed in short segments."""
    steps = 0
    while not condition():
        sim.step()
        steps += 1
        if watch is not None and not steps & 255:
            watch.split()
    return steps


# -- bulk_load --------------------------------------------------------------------


def bulk_load(seed: int, seconds: float, repeats: int = SETUP_REPEATS,
              tracer=None, memory: bool = False) -> RunResult:
    """Build the default deployment and load the base, round after round.

    A round builds a fresh deployment and loads ``BULK_SUBSCRIBERS``
    profiles through ``load_subscriber_base``: placement, commit on every
    copy, identity registration and DIT cataloguing.  No simulation event
    runs.  Set-up is generating the profiles and one empty deployment.
    """
    result = RunResult("bulk_load")
    clock = HostClock()
    config = UDRConfig(seed=seed, name="perfbench-bulk")
    profiles = None
    for _repeat in range(repeats):
        profiles = None
        gc.collect()
        watch = Stopwatch(clock)
        profiles = base_profiles(seed, BULK_SUBSCRIBERS)
        UDRNetworkFunction(config).start()
        result.setup_s.append(watch.stop())
    result.base = len(profiles)
    counts = None
    udr = None
    window_start = time.perf_counter()
    while True:
        udr = None
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        watch = Stopwatch(clock)
        udr = UDRNetworkFunction(config)
        udr.start()
        load(udr, profiles, watch, result.loads)
        scaled = watch.stop()
        if tracer is not None:
            tracer.enabled = False
        result.rounds.append((scaled, len(profiles)))
        result.timed_s += watch.wall
        if counts is None:
            result.peak_rss_mb = _rss_mb()
            counts = deployment_counts(udr)
        result.problems.extend(checks.bulk_load_problems(udr, profiles))
        if time.perf_counter() - window_start >= seconds:
            break
    result.timed_ops = sum(ops for _seconds, ops in result.rounds)
    result.attempted = result.timed_ops
    result.window = dict(counts, ops=len(profiles), steps=0)
    result.final = deployment_counts(udr)
    result.sim = {"read_p50_ms": 0.0, "read_p99_ms": 0.0,
                  "write_p99_ms": 0.0, "provision_p99_ms": 0.0,
                  "drain_s": 0.0}
    if memory:
        udr = None
        gc.collect()
        tracemalloc.start()
        udr = UDRNetworkFunction(config)
        udr.start()
        udr.load_subscriber_base(profiles)
        gc.collect()
        result.memory["retained_bytes_per_subscriber"] = \
            _program_bytes() / len(profiles)
        result.memory["retained_bytes_per_write"] = 0.0
        tracemalloc.stop()
    return result


# -- traffic workloads ---------------------------------------------------------------


class Traffic:
    """Shared machinery of the two traffic workloads: sessions, client
    processes with resend, the shadow model and per-kind latencies."""

    def __init__(self, udr, profiles, result: RunResult):
        self.udr = udr
        self.sim = udr.sim
        self.result = result
        self.shadow = checks.ShadowModel(
            {profile.identities.imsi: profile.to_record()
             for profile in profiles})
        qos = QoSProfile(retry_policy=RETRY)
        #: One front-end session per region, at that region's site.
        self.fe = {site.region.name: udr.attach(
            f"fe@{site.name}", site, ClientType.APPLICATION_FE,
            qos).session() for site in udr.topology.sites}
        self.ps_site = udr.topology.sites[0]
        #: (kind, latency seconds, round) of every completed operation.
        self.latencies: List[tuple] = []
        self.outstanding = 0
        self.stopped = False
        self.round = 0
        self.writes_in_round: Dict[int, int] = {}
        self.memory_round: Optional[int] = None

    def submit(self, session, operation, kind: str, arrival: float,
               read_of=None):
        """Issue one operation and start its waiter (a client waiting for
        the answer).  ``read_of`` is ``(identity type, value)`` for reads."""
        self.outstanding += 1
        self.result.attempted += 1
        if operation.is_write:
            self.writes_in_round[self.round] = \
                self.writes_in_round.get(self.round, 0) + 1
        future = session.submit(operation)
        self.sim.process(self._await(session, operation, future, kind,
                                     arrival, self.round, read_of))

    def answer(self, session, operation, future, submitted: float):
        """Wait for the answer to ``operation``, resending it (at most
        ``MAX_RESENDS`` times) while it is lost before admission.  Returns
        ``(response, submit time of the answered attempt)``."""
        resends = 0
        while True:
            response = yield from future.wait()
            if not lost_before_admission(response) or \
                    resends == MAX_RESENDS:
                return response, submitted
            resends += 1
            self.result.resent += 1
            if isinstance(operation, Write):
                # A resend joins the back of the queue: it is now the last
                # write submitted to its attributes.
                self.shadow.write_submitted(operation.imsi, operation.changes)
            submitted = self.sim.now
            future = session.submit(operation)

    def _await(self, session, operation, future, kind, arrival, round_index,
               read_of):
        response, submitted = yield from self.answer(session, operation,
                                                     future, arrival)
        now = self.sim.now
        self.latencies.append((kind, now - arrival, round_index))
        if not response.ok:
            self.result.failed += 1
        elif read_of is not None:
            self.shadow.check_entry(read_of[1], response.entry,
                                    by=read_of[0])
        elif isinstance(operation, Write):
            self.shadow.write_acked(operation.imsi, operation.changes,
                                    submitted, now)
        self.outstanding -= 1

    def quiesce_and_check(self, fifo: bool = False) -> None:
        sim = self.sim
        sim.run(until=sim.now + QUIESCE_S)
        record_of = self.udr.subscriber_record
        self.result.problems.extend(self.shadow.final_problems(record_of))
        if fifo:
            self.result.problems.extend(
                self.shadow.last_submitted_problems(record_of))
        self.result.problems.extend(checks.replica_problems(self.udr))

    def window_latencies(self, window_rounds: int) -> Dict[str, List[float]]:
        kinds: Dict[str, List[float]] = {}
        for kind, latency, round_index in self.latencies:
            if round_index < window_rounds:
                kinds.setdefault(kind, []).append(latency * 1000.0)
        return kinds


def _start_memory(traffic: Traffic, round_index: int) -> None:
    gc.collect()
    tracemalloc.start()
    traffic.memory_round = round_index


def _finish_memory(traffic: Traffic, result: RunResult) -> None:
    gc.collect()
    writes = traffic.writes_in_round.get(traffic.memory_round, 0)
    result.memory["retained_bytes_per_write"] = \
        _program_bytes() / max(1, writes)
    tracemalloc.stop()


def signalling_steady(seed: int, seconds: float,
                      repeats: int = SETUP_REPEATS, tracer=None,
                      memory: bool = False) -> RunResult:
    """Open-loop Poisson signalling and provisioning traffic, DIRECT mode.

    Reads by IMSI, searches by MSISDN, front-end location updates, PS
    service changes and a few new subscriptions, each issued through an
    attached session whose QoS carries a retry policy, over a loaded base.
    """
    result = RunResult("signalling_steady")
    config = UDRConfig(seed=seed, name="perfbench-signalling",
                       dispatch_mode=DispatchMode.DIRECT)
    udr, profiles = set_up(config, seed, result, HostClock(), repeats,
                           memory=memory)
    rng = random.Random(f"perfbench:signalling_steady:{seed}")
    creations = fresh_profiles(seed, CREATION_POOL, profiles)
    traffic = Traffic(udr, profiles, result)
    ps = udr.attach(f"ps@{traffic.ps_site.name}", traffic.ps_site,
                    ClientType.PROVISIONING,
                    QoSProfile(retry_policy=RETRY)).session()
    kinds = [kind for kind, _share in SIGNALLING_MIX]
    weights = [share for _kind, share in SIGNALLING_MIX]
    boundary = {"issued": 0, "created": 0}

    def arrivals():
        index = 0
        sim = udr.sim
        while True:
            yield sim.timeout(rng.expovariate(SIGNALLING_RATE))
            if traffic.stopped:
                return
            kind = rng.choices(kinds, weights)[0]
            profile = profiles[rng.randrange(len(profiles))]
            identities = profile.identities
            fe = traffic.fe[profile.home_region]
            now = sim.now
            if kind == "read":
                traffic.submit(fe, Read(identities.imsi), "read", now,
                               read_of=("imsi", identities.imsi))
            elif kind == "search":
                traffic.submit(fe, Search("msisdn", identities.msisdn),
                               "read", now,
                               read_of=("msisdn", identities.msisdn))
            elif kind == "fe_write":
                attribute = FE_ATTRIBUTES[index % 2]
                changes = {attribute: f"{attribute}-{seed}-{index}"}
                traffic.shadow.write_submitted(identities.imsi, changes)
                traffic.submit(fe, Write(identities.imsi, changes), "write",
                               now)
            elif kind == "ps_change":
                attribute = PS_ATTRIBUTES[index % 2]
                changes = {attribute: f"+99{seed:05d}{index:09d}"}
                traffic.shadow.write_submitted(identities.imsi, changes)
                traffic.submit(ps, Write(identities.imsi, changes),
                               "provision", now)
            else:
                if boundary["created"] == len(creations):
                    raise RuntimeError(f"the {CREATION_POOL} new "
                                       f"subscriptions of the run are used up")
                record = creations[boundary["created"]].to_record()
                boundary["created"] += 1
                traffic.shadow.add_record(record)
                traffic.submit(ps, Provision.create(record), "provision",
                               now)
            index += 1
            boundary["issued"] = index
            if index % SIGNALLING_ROUND == 0:
                traffic.round += 1

    sim = udr.sim
    sim.process(arrivals())
    _run_rounds(traffic, result, seconds, SIGNALLING_WINDOW, tracer, memory,
                lambda k: boundary["issued"] >= k * SIGNALLING_ROUND,
                lambda: SIGNALLING_ROUND)
    kinds_ms = traffic.window_latencies(SIGNALLING_WINDOW)
    reads = kinds_ms.get("read", [])
    result.sim = {
        "read_p50_ms": percentile(reads, 0.50),
        "read_p99_ms": percentile(reads, 0.99),
        "write_p99_ms": percentile(kinds_ms.get("write", []), 0.99),
        "provision_p99_ms": percentile(kinds_ms.get("provision", []), 0.99),
        "drain_s": 0.0,
    }
    traffic.quiesce_and_check()
    return result


def _run_rounds(traffic: Traffic, result: RunResult, seconds: float,
                window_rounds: int, tracer, memory: bool, round_done,
                round_ops, start_round=None) -> None:
    """Step the simulation round by round until ``seconds`` of wall time
    are spent and at least one round past the window has run.

    ``round_done(k)`` says whether round ``k`` (1-based) has ended;
    ``start_round`` (if any) is called to begin each round.  Counters are
    read at the end of the window; a memory round (tracemalloc) runs after
    the timed rounds when asked for.
    """
    sim = traffic.sim
    clock = HostClock()
    if tracer is not None:
        tracer.enabled = True
    window_start = time.perf_counter()
    completed = 0
    steps = 0
    memory_round = False
    while True:
        if start_round is not None:
            start_round(completed)
        watch = Stopwatch(clock)
        steps += _step_until(sim, lambda: round_done(completed + 1), watch)
        scaled = watch.stop()
        completed += 1
        if memory_round:
            _finish_memory(traffic, result)
            break
        result.rounds.append((scaled, round_ops()))
        result.timed_s += watch.wall
        if completed == window_rounds:
            result.peak_rss_mb = _rss_mb()
            result.window = dict(deployment_counts(traffic.udr), steps=steps,
                                 ops=result.attempted)
        # The untraced run completes one round past the window, so the
        # window's last operations finish under identical conditions in
        # every run; the traced run only needs one round.
        if (tracer is None and completed <= window_rounds) or \
                time.perf_counter() - window_start < seconds:
            continue
        if not memory:
            break
        # One more round under tracemalloc, left out of the rates.
        memory_round = True
        _start_memory(traffic, completed)
    traffic.stopped = True
    if not result.window:
        result.window = dict(deployment_counts(traffic.udr), steps=steps,
                             ops=result.attempted)
    watch = Stopwatch(clock)
    steps += _step_until(sim, lambda: traffic.outstanding == 0)
    watch.stop()
    result.timed_s += watch.wall
    if tracer is not None:
        tracer.enabled = False
    result.timed_steps = steps
    result.timed_ops = result.attempted
    result.final = deployment_counts(traffic.udr)


def provisioning_burst(seed: int, seconds: float,
                       repeats: int = SETUP_REPEATS, tracer=None,
                       memory: bool = False) -> RunResult:
    """A standing backlog of bulk provisioning writes beside FE reads.

    DISPATCHER mode with write coalescing.  At the start of every round one
    provisioning client enqueues ``BURST_BACKLOG`` bulk-class writes (the
    paper's mass-provisioning batch); front-end reads arrive open-loop at
    ``BURST_READ_RATE`` meanwhile.  A round ends when the last backlog
    write is acknowledged; ``drain_s`` is enqueue to that acknowledgement.
    """
    result = RunResult("provisioning_burst")
    config = UDRConfig(seed=seed, name="perfbench-burst",
                       dispatch_mode=DispatchMode.DISPATCHER,
                       coalesce_writes=True)
    udr, profiles = set_up(config, seed, result, HostClock(), repeats,
                           memory=memory)
    rng = random.Random(f"perfbench:provisioning_burst:{seed}")
    traffic = Traffic(udr, profiles, result)
    ps = udr.attach(f"ps@{traffic.ps_site.name}", traffic.ps_site,
                    ClientType.PROVISIONING,
                    QoSProfile(priority=Priority.BULK,
                               retry_policy=RETRY)).session()
    targets = [profiles[index] for index in
               rng.sample(range(len(profiles)), BURST_TARGETS)]
    drains: List[float] = []
    ops_in_round: List[int] = []
    state = {"done": 0, "serial": 0}

    def backlog(round_index: int):
        """The provisioning client: enqueue the batch, await every ack in
        submission order (resending writes lost before admission)."""
        start = udr.sim.now
        submitted = []
        for _ in range(BURST_BACKLOG):
            profile = targets[rng.randrange(len(targets))]
            attribute = PS_ATTRIBUTES[state["serial"] % 2]
            changes = {attribute: f"+98{seed:05d}{state['serial']:09d}"}
            state["serial"] += 1
            imsi = profile.identities.imsi
            traffic.shadow.write_submitted(imsi, changes)
            operation = Write(imsi, changes)
            submitted.append((operation, ps.submit(operation)))
        result.attempted += BURST_BACKLOG
        traffic.writes_in_round[round_index] = BURST_BACKLOG
        for operation, future in submitted:
            response, submitted_at = yield from traffic.answer(
                ps, operation, future, start)
            traffic.latencies.append(("bulk", udr.sim.now - start,
                                      round_index))
            if response.ok:
                traffic.shadow.write_acked(operation.imsi, operation.changes,
                                           submitted_at, udr.sim.now)
            else:
                result.failed += 1
        drains.append(udr.sim.now - start)
        state["done"] += 1

    def start_round(round_index: int) -> None:
        traffic.round = round_index
        ops_in_round.append(result.attempted)
        udr.sim.process(backlog(round_index))

    def arrivals():
        sim = udr.sim
        while True:
            yield sim.timeout(rng.expovariate(BURST_READ_RATE))
            if traffic.stopped:
                return
            profile = profiles[rng.randrange(len(profiles))]
            imsi = profile.identities.imsi
            traffic.submit(traffic.fe[profile.home_region], Read(imsi),
                           "read", sim.now, read_of=("imsi", imsi))

    udr.sim.process(arrivals())

    def round_ops() -> int:
        return result.attempted - ops_in_round[-1]

    _run_rounds(traffic, result, seconds, BURST_WINDOW, tracer, memory,
                lambda k: state["done"] >= k, round_ops,
                start_round=start_round)
    kinds_ms = traffic.window_latencies(BURST_WINDOW)
    reads = kinds_ms.get("read", [])
    result.sim = {
        "read_p50_ms": percentile(reads, 0.50),
        "read_p99_ms": percentile(reads, 0.99),
        "write_p99_ms": 0.0,
        "provision_p99_ms": percentile(kinds_ms.get("bulk", []), 0.99),
        "drain_s": statistics.median(drains[:BURST_WINDOW]),
    }
    traffic.quiesce_and_check(fifo=True)
    return result


WORKLOADS = {
    "bulk_load": bulk_load,
    "signalling_steady": signalling_steady,
    "provisioning_burst": provisioning_burst,
}
