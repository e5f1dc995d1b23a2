"""The four benchmark workloads, driven through the program's public APIs.

Each workload has the same life cycle:

* ``generate(seed, seconds)`` builds every input the timed phase will
  submit (keys, values, JSON payloads, sim-clock stamps) before any
  timing: a fixed number of ops or ticks, ``seconds`` times the
  workload's nominal rate;
* ``setup()`` builds a fresh system — clusters, preload, deployment —
  and may be called several times (set-up time is a metric);
* ``run(watch, tracer)`` is one single-client closed loop on the wall
  clock that submits every generated input once, timed by ``watch``;
* ``finish()`` drains what the timed phase left in flight, and
  ``check()`` compares the system's state with a reference the
  benchmark computed from the same inputs, returning the mismatches;
* ``attempted()`` and ``failed()`` count ops since the last ``setup()``.

The three tick-driven workloads are also open loops on the sim clock:
every input carries a stamp drawn inside its tick, and the sim clock
advances by ``TICK_S`` per tick whatever the system does.  Their sim
latency is the stamp-to-visible time the benchmark observes, over
every input seen in the timed phase.

A run does the same work however fast the program is.  The nominal
rates (``OPS_PER_SECOND``, ``TICKS_PER_SECOND``) are what each workload
ran at in a 10-second run, in ops per calibrated second, when the
benchmark was defined: ``--seconds 10`` took about ten calibrated
seconds at that commit.
A faster program finishes sooner; it never builds up more history
(``SimDisk`` bytes, commit log length) than a slower one, so memory and
history-dependent costs stay comparable, and the sim metrics are a
pure function of the seed and ``--seconds``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random

from repro.common.clock import SimClock
from repro.common.serialization import Field, RecordSchema, decode_record
from repro.databus.client import DatabusClient, DatabusConsumer
from repro.espresso import DatabaseSchema, EspressoCluster, EspressoTableSchema, Router
from repro.espresso.storage import partition_buffer_name
from repro.kafka import ConsumerGroupMember, KafkaCluster, Producer
from repro.search.index import RankedInvertedIndex
from repro.simnet import SimNetwork, lognormal_latency
from repro.simnet.disk import SimDisk
from repro.socialgraph import PartitionedSocialGraph
from repro.sqlstore.binlog import ChangeKind
from repro.streams import JobCoordinator, StreamContainer, encode_stream_message
from repro.streams.apps import WhoViewedYourProfileService, who_viewed_your_profile_job
from repro.voldemort import RoutedStore, StoreClient, StoreDefinition, Versioned, VoldemortCluster
from repro.voldemort.client import last_writer_wins
from repro.workloads import ActivityEventGenerator, ProfileViewEventGenerator, ZipfGenerator
from repro.zookeeper import ZooKeeperServer

from perfbench.stopwatch import Samples, Stopwatch

#: sim-clock length of one tick in the tick-driven workloads
TICK_S = 0.1


def run_length(rate: float, seconds: float) -> int:
    """Ops or ticks of one run: ``seconds`` at the nominal ``rate``."""
    return max(1, round(rate * seconds))


class RunResult:
    """What one timed phase measured."""

    def __init__(self, watch: Stopwatch, inputs_per_tick: int = 1):
        #: calibrated length of the timed phase (see perfbench.stopwatch)
        self.seconds = 0.0
        self.ops = 0
        self.op_latency = Samples(watch)
        self.visible_latency = Samples(watch, per_unit=inputs_per_tick)
        #: sim seconds, one per input seen in the timed phase
        self.sim_latency_s: list[float] = []
        #: payload bytes the client submitted (the base of write
        #: amplification)
        self.user_bytes = 0


def kafka_partition(key: bytes, partitions: int) -> int:
    """The producer's key partitioning function (§V.C "a partition
    semantically determined by a partitioning key"), recomputed here
    as the oracle's reference."""
    return int.from_bytes(hashlib.md5(key).digest()[:4], "big") % partitions


def tick_stamps(rng: random.Random, count: int, per_tick: int) -> list[float]:
    """Stamps in tick units: input ``i`` falls inside tick
    ``i // per_tick`` at a sorted uniform offset."""
    stamps: list[float] = []
    for start in range(0, count, per_tick):
        tick = start // per_tick
        offsets = sorted(rng.random()
                         for _ in range(min(per_tick, count - start)))
        stamps.extend(tick + u for u in offsets)
    return stamps


# -- kv-quorum ---------------------------------------------------------------

class KvQuorum:
    """Voldemort 6 nodes x 8 partitions, N=3/R=2/W=2, lognormal hops.

    60% reads (9 in 10 ``StoreClient.get_value``, 1 in 10 an 8-key
    ``RoutedStore.get_all``) and 40% read-clock-then-write
    ``StoreClient.put``, over 20K preloaded 1 KiB values with Zipf 0.99
    key popularity.  An op is one client call; a write is visible when
    ``put`` returns, because R + W > N.
    """

    name = "kv-quorum"
    NUM_KEYS = 20_000
    VALUE_BYTES = 1024
    DISTINCT_VALUES = 4096
    BATCH_KEYS = 8
    OPS_PER_SECOND = 10_000

    def generate(self, seed: int, seconds: float) -> None:
        self.seed = seed
        rng = random.Random(seed)
        zipf = ZipfGenerator(self.NUM_KEYS, theta=0.99, seed=seed + 1)
        keys = [b"member:%012d" % rank for rank in range(self.NUM_KEYS)]
        values = [rng.randbytes(self.VALUE_BYTES)
                  for _ in range(self.DISTINCT_VALUES)]
        self.preload = [(key, values[rng.randrange(self.DISTINCT_VALUES)])
                        for key in keys]
        ops = []
        for _ in range(run_length(self.OPS_PER_SECOND, seconds)):
            if rng.random() < 0.6:
                if rng.random() < 0.1:
                    batch: list[bytes] = []
                    while len(batch) < self.BATCH_KEYS:
                        key = keys[zipf.next()]
                        if key not in batch:
                            batch.append(key)
                    ops.append((1, batch, None))
                else:
                    ops.append((0, keys[zipf.next()], None))
            else:
                ops.append((2, keys[zipf.next()],
                            values[rng.randrange(self.DISTINCT_VALUES)]))
        self.ops = ops

    def setup(self) -> None:
        network = SimNetwork(seed=self.seed,
                             latency_model=lognormal_latency(0.0009, 0.4))
        cluster = VoldemortCluster(num_nodes=6, partitions_per_node=8,
                                   network=network, seed=self.seed)
        cluster.define_store(StoreDefinition(
            "flagship", replication_factor=3, required_reads=2,
            required_writes=2))
        routed = RoutedStore(cluster, "flagship")
        for key, value in self.preload:
            routed.put(key, Versioned.initial(value, 0))
        self.routed = routed
        self.client = StoreClient(routed)
        self.expected = dict(self.preload)
        self.done = 0
        self.errors = 0
        self.read_mismatches = 0

    def _sim_total(self, histograms) -> float:
        """Sum of every quorum latency the router has returned so far."""
        return sum(h.mean * h.count for h in histograms)

    def run(self, watch: Stopwatch, tracer=None) -> RunResult:
        self.now = now = watch.now
        result = RunResult(watch)
        client, routed, expected = self.client, self.routed, self.expected
        op_lat, visible, sim = (result.op_latency, result.visible_latency,
                                result.sim_latency_s)
        repairs = routed.metrics.counter("read_repairs")
        repairs_before = repairs.value
        # the router records each quorum latency it returns; the sim
        # sample is read from there (and skipped when traced, where it
        # is not reported and would count as metrics-layer work)
        histograms = [routed.metrics.histogram(name)
                      for name in ("get", "put", "get_all")]
        sim_before = self._sim_total(histograms)
        for i, (kind, key, value) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            t0 = now()
            try:
                if kind == 0:
                    if client.get_value(key) != expected[key]:
                        self.read_mismatches += 1
                elif kind == 1:
                    found, _ = routed.get_all(key)
                    for k in key:
                        if last_writer_wins(found[k]).value != expected[k]:
                            self.read_mismatches += 1
                else:
                    client.put(key, value)
                    expected[key] = value
                    result.user_bytes += len(value)
            except Exception:
                self.errors += 1
            latency = now() - t0
            op_lat.add(latency)
            if kind == 2:
                visible.add(latency)
            if tracer is None:
                total = self._sim_total(histograms)
                sim.append(total - sim_before)
                sim_before = total
            watch.checkpoint()
        result.seconds = watch.stop()
        result.ops = len(self.ops)
        self.done += result.ops
        if tracer is not None:
            tracer.add("voldemort.read_repairs", repairs.value - repairs_before)
        return result

    def finish(self) -> None:
        pass

    def check(self) -> list[str]:
        problems = []
        if self.read_mismatches:
            problems.append(f"{self.read_mismatches} reads in the timed "
                            "phase missed the client's last write")
        stale = sum(1 for key, value in self.expected.items()
                    if self.client.get_value(key) != value)
        if stale:
            problems.append(f"{stale} keys do not read back the last write")
        return problems

    def attempted(self) -> int:
        return self.done

    def failed(self) -> int:
        return self.errors


# -- activity-log ------------------------------------------------------------

class ActivityLog:
    """Kafka, 3 brokers on SimDisk, 8 partitions, one batching producer.

    JSON activity events (``ActivityEventGenerator``, 100K members)
    keyed by member go through a ``Producer`` (batch 50); every tick, a
    two-member consumer group drains to the head and commits offsets to
    ZooKeeper.  An op is one event produced and consumed; the event is
    visible once the group has consumed it.
    """

    name = "activity-log"
    PARTITIONS = 8
    EVENTS_PER_TICK = 400
    TICKS_PER_SECOND = 160
    TOPIC = "activity"

    def generate(self, seed: int, seconds: float) -> None:
        self.seed = seed
        rng = random.Random(seed)
        generator = ActivityEventGenerator(num_members=100_000, seed=seed)
        events = []
        self.ticks = run_length(self.TICKS_PER_SECOND, seconds)
        for stamp in tick_stamps(rng, self.ticks * self.EVENTS_PER_TICK,
                                 self.EVENTS_PER_TICK):
            event = generator.next_event(timestamp=round(stamp * TICK_S, 6))
            key = str(event["member_id"]).encode()
            payload = json.dumps(event, sort_keys=True,
                                 separators=(",", ":")).encode()
            events.append((payload, key,
                           kafka_partition(key, self.PARTITIONS),
                           stamp - int(stamp)))
        self.events = events

    def setup(self) -> None:
        sim_clock = SimClock()
        disk = SimDisk(clock=sim_clock, seed=self.seed)
        cluster = KafkaCluster(3, "/kafka", zookeeper=ZooKeeperServer(),
                               clock=sim_clock,
                               partitions_per_topic=self.PARTITIONS, disk=disk)
        cluster.create_topic(self.TOPIC)
        members = [ConsumerGroupMember(cluster, "activity-readers",
                                       f"reader-{i}", [self.TOPIC])
                   for i in range(2)]
        for member in members:
            member.poll()
        owned = sorted(p for member in members
                       for _, p in member.stream.assignments)
        if owned != list(range(self.PARTITIONS)):
            raise RuntimeError(f"consumer group owns partitions {owned}")
        self.clock = sim_clock
        self.members = members
        self.producer = Producer(cluster, batch_size=50, seed=self.seed)
        # per partition: produced, not yet consumed events, produce order
        self.pending = [collections.deque() for _ in range(self.PARTITIONS)]
        self.sent = 0
        self.tick = 0
        self.order_errors = 0

    def _drain(self, result: RunResult | None, tracer=None) -> int:
        consumed = 0
        for member in self.members:
            if tracer is not None:
                tracer.peak("kafka.consumer.lag_max_bytes",
                            member.stream.lag())
            while True:
                batch = member.poll()
                if not batch:
                    break
                seen_at = self.now()
                for fetched in batch:
                    queue = self.pending[fetched.partition]
                    if not queue or queue[0][0] != fetched.payload:
                        self.order_errors += 1
                        continue
                    _, sent_at, stamp = queue.popleft()
                    consumed += 1
                    if result is not None:
                        result.visible_latency.add(seen_at - sent_at)
                        result.sim_latency_s.append(
                            (self.tick + 1 - stamp) * TICK_S)
            member.commit_offsets()
        return consumed

    def run(self, watch: Stopwatch, tracer=None) -> RunResult:
        self.now = now = watch.now
        result = RunResult(watch, self.EVENTS_PER_TICK)
        events = self.events
        producer, pending = self.producer, self.pending
        op_lat = result.op_latency
        for tick in range(self.ticks):
            watch.checkpoint()
            for _ in range(self.EVENTS_PER_TICK):
                payload, key, partition, offset = events[self.sent]
                if tracer is not None:
                    tracer.op = self.sent
                t0 = now()
                producer.send(self.TOPIC, payload, key)
                op_lat.add(now() - t0)
                pending[partition].append((payload, t0, tick + offset))
                result.user_bytes += len(payload)
                self.sent += 1
            self.clock.advance(TICK_S)
            if tracer is not None:
                tracer.op = -(tick + 1)
            result.ops += self._drain(result, tracer)
            self.tick += 1
        result.seconds = watch.stop()
        if tracer is not None:
            tracer.add("kafka.producer.requests", producer.publish_requests)
            tracer.add("kafka.producer.messages", producer.messages_sent)
        return result

    def finish(self) -> None:
        self.producer.flush()
        self.clock.advance(TICK_S)
        self._drain(None)

    def check(self) -> list[str]:
        problems = []
        if self.order_errors:
            problems.append(f"{self.order_errors} consumed messages differ "
                            "from the produced sequence of their partition")
        lost = sum(len(queue) for queue in self.pending)
        if lost:
            problems.append(f"{lost} produced events were never consumed")
        if self.producer.messages_acked != self.sent:
            problems.append(f"producer acked {self.producer.messages_acked} "
                            f"of {self.sent} events")
        return problems

    def attempted(self) -> int:
        return self.sent

    def failed(self) -> int:
        backpressure = self.producer.metrics.counter("produce.backpressure")
        return (sum(len(queue) for queue in self.pending) + self.order_errors
                + self.sent - self.producer.messages_acked
                + backpressure.value)


# -- member-pipeline ---------------------------------------------------------

MEMBERS_DB = DatabaseSchema(
    name="Members", num_partitions=8, replication_factor=2,
    tables=(EspressoTableSchema("Profile", ("member",)),
            EspressoTableSchema("Connection", ("member", "other"))))
PROFILE = RecordSchema("Profile", [Field("name", "string"),
                                   Field("headline", "string")])
CONNECTION = RecordSchema("Connection", [Field("since", "long")])
HEADLINE_WORDS = ("kafka", "espresso", "voldemort", "databus", "helix",
                  "search", "graph", "engineer", "data", "infrastructure",
                  "streams", "replication", "storage", "latency", "scale")
FIELD_BOOSTS = {"name": 3.0, "headline": 1.0}


def member_of(resource_id: str) -> int:
    return int(resource_id[len("member-"):])


def headline_op(headline: str) -> int:
    """The op id a headline was written by (-1 for preloaded ones)."""
    token = headline.rsplit(" ", 1)[1]
    return int(token[1:]) if token[0] == "h" else -1


class ViewFeeder(DatabusConsumer):
    """The derived views' Databus subscriber: Profile changes feed the
    search index, Connection changes feed the social graph.  It records
    the newest op id applied per key, which is how the benchmark sees a
    write arrive in the views."""

    def __init__(self, espresso: EspressoCluster,
                 index: RankedInvertedIndex, graph: PartitionedSocialGraph):
        self.relay = espresso.relay
        self.profile_schema = espresso.schemas.latest("Members", "Profile")
        self.connection_schema = espresso.schemas.latest("Members",
                                                         "Connection")
        self.index = index
        self.graph = graph
        self.applied: dict[tuple, int] = {}

    def on_data_event(self, event) -> None:
        row = decode_record(
            self.relay.schemas.get(event.source, event.schema_version),
            event.payload)
        if event.source == "Profile":
            document = decode_record(self.profile_schema, row["val"])
            self.index.add(member_of(event.key[0]), document)
            op = headline_op(document["headline"])
        else:
            a, b = member_of(event.key[0]), member_of(event.key[1])
            if event.kind is ChangeKind.DELETE:
                self.graph.disconnect(a, b)
                op = -1
            else:
                self.graph.connect(a, b)
                op = decode_record(self.connection_schema, row["val"])["since"]
        self.applied[(event.source, event.key)] = op


class MemberPipeline:
    """Espresso ``Members`` (8 partitions, RF=2, 3 nodes, SimDisk) behind
    a ``Router``, feeding a search index and a social graph through 8
    per-partition Databus clients.

    Each tick sends 100 requests — 40% profile GET, 36% profile PUT with
    a new headline, 24% connection PUT — then runs
    ``pump_replication()`` and drains every Databus client.  An op is
    one Router request.  A write is visible once its partition's slaves
    are at the master's SCN and the search index or graph has applied
    it.

    A GET costs a fraction of a PUT (no relay capture, no WAL fsync), so
    with half the requests GETs the median request would sit in the gap
    between the two and swing from run to run; at 40% it lies inside
    the PUT distribution.
    """

    name = "member-pipeline"
    MEMBERS = 2_000
    REQUESTS_PER_TICK = 100
    WRITES_PER_TICK = 60
    TICKS_PER_SECOND = 29

    def generate(self, seed: int, seconds: float) -> None:
        self.seed = seed
        rng = random.Random(seed)
        zipf = ZipfGenerator(self.MEMBERS, theta=0.99, seed=seed + 1)
        self.uris = [f"/Members/Profile/member-{m}"
                     for m in range(self.MEMBERS)]
        self.partitions = [MEMBERS_DB.partition_for(f"member-{m}")
                           for m in range(self.MEMBERS)]
        self.preload = [{"name": f"Member {m}",
                         "headline": " ".join(rng.sample(HEADLINE_WORDS, 2))
                         + f" p{m}"} for m in range(self.MEMBERS)]
        self.ticks = run_length(self.TICKS_PER_SECOND, seconds)
        stamps = tick_stamps(rng, self.ticks * self.REQUESTS_PER_TICK,
                             self.REQUESTS_PER_TICK)
        ops = []
        for i, stamp in enumerate(stamps):
            u = rng.random()
            member = zipf.next()
            if u < 0.4:
                ops.append((0, member, None, None, 0, stamp))
            elif u < 0.76:
                headline = " ".join(rng.sample(HEADLINE_WORDS, 2)) + f" h{i}"
                document = {"name": f"Member {member}", "headline": headline}
                ops.append((1, member, self.uris[member], document,
                            len(json.dumps(document)), stamp))
            else:
                other = zipf.next()
                while other == member:
                    other = zipf.next()
                uri = f"/Members/Connection/member-{member}/member-{other}"
                document = {"since": i}
                ops.append((2, member, uri, document,
                            len(json.dumps(document)), stamp))
        self.ops = ops

    def setup(self) -> None:
        sim_clock = SimClock()
        espresso = EspressoCluster(MEMBERS_DB, num_nodes=3, clock=sim_clock,
                                   disk=SimDisk(clock=sim_clock,
                                                seed=self.seed))
        espresso.post_document_schema("Profile", PROFILE)
        espresso.post_document_schema("Connection", CONNECTION)
        espresso.start()
        router = Router(espresso)
        for uri, document in zip(self.uris, self.preload):
            response = router.put(uri, document)
            if response.status != 200:
                raise RuntimeError(f"preload PUT {uri}: {response.status}")
        espresso.pump_replication()
        self.index = RankedInvertedIndex(FIELD_BOOSTS)
        self.graph = PartitionedSocialGraph(8)
        self.feeder = ViewFeeder(espresso, self.index, self.graph)
        self.buffers = [partition_buffer_name("Members", p)
                        for p in range(MEMBERS_DB.num_partitions)]
        self.clients = [DatabusClient(self.feeder, espresso.relay,
                                      buffer_name=buffer)
                        for buffer in self.buffers]
        self.clock = sim_clock
        self.espresso = espresso
        self.router = router
        self.documents = list(self.preload)
        self.connections: set[tuple[int, int]] = set()
        self.pending: list[tuple] = []
        self.requests = 0
        self.bad_status = 0
        self.read_mismatches = 0
        self.tick = 0
        self._pipeline()

    def _pipeline(self) -> set[int]:
        """Replicate to slaves and drain every Databus client to the
        relay head; returns the partitions whose slaves still lag."""
        self.espresso.pump_replication()
        relay = self.espresso.relay
        for client, buffer in zip(self.clients, self.buffers):
            for _ in range(100):
                client.poll()
                if client.checkpoint >= relay.newest_scn(buffer):
                    break
        nodes = self.espresso.nodes
        masters = self.espresso.masters_by_partition()
        lagging = set()
        for node in nodes.values():
            for p in node.slaved_partitions():
                head = nodes[masters[p]].partition_scn.get(p, 0)
                if node.partition_scn.get(p, 0) < head:
                    lagging.add(p)
        return lagging

    def _collect_visible(self, lagging: set[int],
                         result: RunResult | None) -> None:
        seen_at = self.now()
        applied = self.feeder.applied
        still = []
        for write in self.pending:
            table, key, op, partition, sent_at, stamp = write
            if partition in lagging or applied.get((table, key), -2) < op:
                still.append(write)
                continue
            if result is not None:
                result.visible_latency.add(seen_at - sent_at)
                result.sim_latency_s.append((self.tick + 1 - stamp) * TICK_S)
        self.pending = still

    def run(self, watch: Stopwatch, tracer=None) -> RunResult:
        self.now = now = watch.now
        result = RunResult(watch, self.WRITES_PER_TICK)
        router, ops = self.router, self.ops
        documents, partitions = self.documents, self.partitions
        op_lat = result.op_latency
        for tick in range(self.ticks):
            watch.checkpoint()
            for _ in range(self.REQUESTS_PER_TICK):
                i = self.requests
                kind, member, uri, document, size, stamp = ops[i]
                if tracer is not None:
                    tracer.op = i
                t0 = now()
                if kind == 0:
                    response = router.get(self.uris[member])
                else:
                    response = router.put(uri, document)
                op_lat.add(now() - t0)
                self.requests += 1
                if response.status != 200:
                    self.bad_status += 1
                    continue
                if kind == 0:
                    if response.body.document != documents[member]:
                        self.read_mismatches += 1
                    continue
                if kind == 1:
                    documents[member] = document
                    key = ("Profile", (f"member-{member}",))
                    op = headline_op(document["headline"])
                else:
                    _, _, _, a, b = uri.split("/")
                    key = ("Connection", (a, b))
                    self.connections.add((member, member_of(b)))
                    op = document["since"]
                result.user_bytes += size
                self.pending.append((key[0], key[1], op, partitions[member],
                                     t0, stamp))
            self.clock.advance(TICK_S)
            if tracer is not None:
                tracer.op = -(tick + 1)
            self._collect_visible(self._pipeline(), result)
            self.tick += 1
        result.seconds = watch.stop()
        result.ops = self.requests
        if tracer is not None:
            tracer.add("databus.client.windows_aborted", sum(
                c.stats.windows_aborted for c in self.clients))
            tracer.add("databus.client.consumer_retries", sum(
                c.stats.consumer_retries for c in self.clients))
        return result

    def finish(self) -> None:
        self.clock.advance(TICK_S)
        self._collect_visible(self._pipeline(), None)

    def check(self) -> list[str]:
        problems = []
        espresso = self.espresso
        if self.read_mismatches:
            problems.append(f"{self.read_mismatches} GETs did not return "
                            "the last PUT")
        if self.pending:
            problems.append(f"{len(self.pending)} writes never became "
                            "visible in every view")
        masters: dict[int, object] = {}
        stored: set[tuple[int, int]] = set()
        for p in range(MEMBERS_DB.num_partitions):
            master = masters[p] = espresso.master_node(p)
            image = master.partition_snapshot(p)
            for node in espresso.nodes.values():
                if p in node.slaved_partitions() and \
                        node.partition_snapshot(p) != image:
                    problems.append(f"slave {node.instance_name} of "
                                    f"partition {p} differs from its master")
            stored.update((member_of(row["member"]), member_of(row["other"]))
                          for row in image[1]["Connection"])
        if stored != self.connections:
            problems.append(f"the masters hold {len(stored)} connections, "
                            f"the reference {len(self.connections)}")
        reference = RankedInvertedIndex(FIELD_BOOSTS)
        adjacency: dict[int, set[int]] = collections.defaultdict(set)
        for a, b in self.connections:
            adjacency[a].add(b)
            adjacency[b].add(a)
        for m in range(self.MEMBERS):
            resource = f"member-{m}"
            master = masters[self.partitions[m]]
            document = master.get_document("Profile", (resource,)).document
            if document != self.documents[m]:
                problems.append(f"master holds a stale profile for {resource}")
            reference.add(m, document)
            if self.graph.connections_of(m) != adjacency.get(m, set()):
                problems.append(f"graph edges of {resource} differ")
        if self.index.doc_ids() != reference.doc_ids():
            problems.append("search index holds a different member set")
        for m, document in enumerate(self.documents):
            token = document["headline"].rsplit(" ", 1)[1]
            live = [(h.doc_id, h.score) for h in self.index.search(token)]
            if live != [(h.doc_id, h.score) for h in reference.search(token)]:
                problems.append(f"search for {token!r} differs from the "
                                "master's documents")
        return problems[:20]

    def attempted(self) -> int:
        return self.requests

    def failed(self) -> int:
        stats = [client.stats for client in self.clients]
        return (self.bad_status + len(self.pending)
                + sum(s.windows_aborted + s.consumer_retries for s in stats))


# -- profile-views -----------------------------------------------------------

class ProfileViews:
    """The Who Viewed Your Profile job: 4 partitions, 2 containers on
    SimDisk, 10K members.

    Each tick produces 200 viewer-keyed view events through a
    ``Producer`` (batch 20, so about one send in twenty publishes and
    the 99th percentile of ``send`` lies inside the publishing sends
    rather than on their edge), then runs ``run_cycle()`` on every container (poll,
    repartition hop, changelog, snapshot barrier, checkpoint).  An op
    is one view counted; it is visible once
    ``WhoViewedYourProfileService.total_views`` of its viewee includes
    it.
    """

    name = "profile-views"
    PARTITIONS = 4
    EVENTS_PER_TICK = 200
    TICKS_PER_SECOND = 24
    TOPIC = "profile-views"

    def generate(self, seed: int, seconds: float) -> None:
        self.seed = seed
        rng = random.Random(seed)
        generator = ProfileViewEventGenerator(num_members=10_000, seed=seed)
        events = []
        self.ticks = run_length(self.TICKS_PER_SECOND, seconds)
        for stamp in tick_stamps(rng, self.ticks * self.EVENTS_PER_TICK,
                                 self.EVENTS_PER_TICK):
            event = generator.next_event(timestamp=round(stamp * TICK_S, 6))
            payload = encode_stream_message(
                event["viewer"], {"viewee": event["viewee"],
                                  "ts": event["ts"]}, event["ts"])
            events.append((payload, event["viewer"].encode(),
                           event["viewee"], stamp - int(stamp)))
        self.events = events

    def setup(self) -> None:
        sim_clock = SimClock()
        disk = SimDisk(clock=sim_clock, seed=self.seed)
        zookeeper = ZooKeeperServer()
        cluster = KafkaCluster(3, "/kafka", zookeeper=zookeeper,
                               clock=sim_clock,
                               partitions_per_topic=self.PARTITIONS, disk=disk)
        cluster.create_topic(self.TOPIC)
        spec = who_viewed_your_profile_job(self.PARTITIONS,
                                           input_topic=self.TOPIC)
        coordinator = JobCoordinator(spec, cluster, zookeeper)
        self.containers = [
            StreamContainer(f"c{i}", spec, cluster, zookeeper, sim_clock,
                            disk.scope(f"c{i}"), "/state")
            for i in range(2)]
        coordinator.deploy(self.containers)
        self.service = WhoViewedYourProfileService(coordinator,
                                                   self.containers)
        self.producer = Producer(cluster, batch_size=20, seed=self.seed)
        self.clock = sim_clock
        self.reference: collections.Counter = collections.Counter()
        # viewee -> views not yet counted: (count including it, sent, stamp)
        self.pending: dict[str, collections.deque] = {}
        self.sent = 0
        self.counted = 0
        self.tick = 0

    def _collect_visible(self, result: RunResult | None) -> int:
        seen_at = self.now()
        total_views = self.service.total_views
        counted = 0
        for viewee in list(self.pending):
            queue = self.pending[viewee]
            total = total_views(viewee)
            while queue and queue[0][0] <= total:
                _, sent_at, stamp = queue.popleft()
                counted += 1
                if result is not None:
                    result.visible_latency.add(seen_at - sent_at)
                    result.sim_latency_s.append(
                        (self.tick + 1 - stamp) * TICK_S)
            if not queue:
                del self.pending[viewee]
        self.counted += counted
        return counted

    def run(self, watch: Stopwatch, tracer=None) -> RunResult:
        self.now = now = watch.now
        result = RunResult(watch, self.EVENTS_PER_TICK)
        events = self.events
        producer, reference, pending = (self.producer, self.reference,
                                        self.pending)
        op_lat = result.op_latency
        for tick in range(self.ticks):
            watch.checkpoint()
            for _ in range(self.EVENTS_PER_TICK):
                payload, key, viewee, offset = events[self.sent]
                if tracer is not None:
                    tracer.op = self.sent
                t0 = now()
                producer.send(self.TOPIC, payload, key)
                op_lat.add(now() - t0)
                reference[viewee] += 1
                pending.setdefault(viewee, collections.deque()).append(
                    (reference[viewee], t0, tick + offset))
                result.user_bytes += len(payload)
                self.sent += 1
            if tracer is not None:
                tracer.op = -(tick + 1)
            producer.flush()
            self.clock.advance(TICK_S)
            for container in self.containers:
                container.run_cycle()
            result.ops += self._collect_visible(result)
            if tracer is not None:
                tracer.peak("streams.task.lag_max",
                            sum(c.lag() for c in self.containers))
            self.tick += 1
        result.seconds = watch.stop()
        if tracer is not None:
            tracer.add("kafka.producer.requests", producer.publish_requests)
            tracer.add("kafka.producer.messages", producer.messages_sent)
        return result

    def finish(self) -> None:
        self.producer.flush()
        for _ in range(100):
            self.clock.advance(TICK_S)
            if not sum(c.run_cycle() for c in self.containers):
                break
        self._collect_visible(None)

    def check(self) -> list[str]:
        problems = []
        wrong = [viewee for viewee, count in self.reference.items()
                 if self.service.total_views(viewee) != count]
        if wrong:
            problems.append(f"{len(wrong)} members' total_views differ from "
                            f"the reference count (first: {wrong[0]})")
        if self.counted != self.sent:
            problems.append(f"{self.sent - self.counted} of {self.sent} "
                            "views were never counted")
        if self.producer.messages_acked != self.sent:
            problems.append(f"producer acked {self.producer.messages_acked} "
                            f"of {self.sent} events")
        return problems

    def attempted(self) -> int:
        return self.sent

    def failed(self) -> int:
        return (self.sent - self.counted
                + self.sent - self.producer.messages_acked)


WORKLOADS = {cls.name: cls for cls in
             (KvQuorum, ActivityLog, MemberPipeline, ProfileViews)}
