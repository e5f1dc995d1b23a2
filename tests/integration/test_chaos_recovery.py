"""Seeded chaos across all four systems: kills, tears, and recovery.

One SimClock + one SimDisk back a Kafka cluster, a Voldemort cluster,
an Espresso cluster, and a Databus bootstrap server.  A FaultPlan
kills and restarts a node of each system (with a torn write armed on
the Voldemort victim), and the DESIGN.md §9 invariants are checked:

* zero acked-write loss (AckLedger over all four systems);
* zero duplicate or skipped SCN application (ScnAuditor on Espresso);
* consumer offsets never beyond recovered high watermarks;
* the same seed produces a byte-identical fault trace.
"""

import pytest

from repro.common.clock import SimClock
from repro.databus import BootstrapServer
from repro.databus.events import DatabusEvent
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import Message, MessageSet, iter_messages
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import (
    AckLedger,
    FaultPlan,
    ScnAuditor,
    offsets_within_watermark,
)
from repro.sqlstore.binlog import ChangeKind
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)
from repro.voldemort.versioned import encode_versioned

from tests.espresso.conftest import ARTIST_SCHEMA, MUSIC
from repro.espresso import EspressoCluster

ARTISTS = ["nirvana", "abba", "devo", "kraftwerk", "queen"]


def build_world(seed):
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=seed)
    disk.start_trace()

    # data_root is a virtual path inside the SimDisk, so a constant
    # string keeps traces byte-identical across runs
    kafka = KafkaCluster(num_brokers=2, data_root="kafka",
                         clock=clock, disk=disk)
    kafka.create_topic("events", partitions=2)

    voldemort = VoldemortCluster(num_nodes=4, partitions_per_node=4,
                                 clock=clock, disk=disk, seed=seed)
    voldemort.define_store(StoreDefinition(
        "chaos", replication_factor=3, required_reads=2, required_writes=2,
        engine_type="log-structured"))

    espresso = EspressoCluster(MUSIC, num_nodes=3, clock=clock, disk=disk)
    espresso.post_document_schema("Artist", ARTIST_SCHEMA)
    espresso.start()

    bootstrap = BootstrapServer("bootstrap-1",
                                disk=disk.scope("bootstrap-1"))
    return clock, disk, kafka, voldemort, espresso, bootstrap


def run_scenario(seed):
    clock, disk, kafka, voldemort, espresso, bootstrap = build_world(seed)
    ledger = AckLedger()
    auditor = ScnAuditor()
    for name, node in espresso.nodes.items():
        node.on_apply = auditor.hook(name)
    routed = RoutedStore(voldemort, "chaos")
    consumer_offsets = {}

    def workload():
        for i, payload in enumerate([b"k0", b"k1", b"k2", b"k3"]):
            offset = kafka.brokers[i % 2].produce(
                "events", i % 2, MessageSet([Message(payload)]))
            ledger.record("kafka", ("events", i % 2, offset), payload)
        for i in range(8):
            key = b"vk-%d" % i
            routed.put(key, Versioned.initial(b"vv-%d" % i, 0))
            ledger.record("voldemort", key, b"vv-%d" % i)
        for artist in ARTISTS:
            node = espresso.node_for_resource(artist)
            node.put_document("Artist", (artist,),
                              {"name": artist, "genre": "rock", "bio": None})
            ledger.record("espresso", artist, "rock")
        for scn in range(1, 5):
            bootstrap.on_events([DatabusEvent(
                scn, "member", ChangeKind.UPDATE, (scn,), b"b-%d" % scn,
                end_of_window=True)])
            ledger.record("bootstrap", scn, b"b-%d" % scn)
        for tp in kafka.topic_layout("events"):
            consumer_offsets[(tp.topic, tp.partition)] = \
                kafka.brokers[tp.broker_id].log(tp.topic,
                                                tp.partition).high_watermark

    def stage_unsynced_tail():
        # an in-flight (never acked) record on the Voldemort victim,
        # destined to be torn mid-frame by the armed fault
        engine = voldemort.server_for(1).engine("chaos")
        engine._log.append(encode_versioned(
            b"in-flight", Versioned.initial(b"never-acked", 0)))

    plan = FaultPlan(clock, disk, seed=seed)

    def kill(node):
        if node.startswith("broker-"):
            disk.crash_node(node)
        elif node.startswith("node-"):
            voldemort.kill_node(int(node.split("-")[1]))
        elif node.startswith("storage-"):
            espresso.crash_node(node)
        elif node.startswith("bootstrap"):
            disk.crash_node(node)

    def restart(node):
        if node.startswith("broker-"):
            disk.restart_node(node)
            kafka.brokers[int(node.split("-")[1])].restart()
        elif node.startswith("node-"):
            voldemort.restart_node(int(node.split("-")[1]))
        elif node.startswith("storage-"):
            espresso.recover_node(node)
            recovered = espresso.nodes[node]
            recovered.on_apply = auditor.hook(node)
            auditor.observe_recovery(node, recovered.partition_scn)
            espresso.failover()
        elif node.startswith("bootstrap"):
            disk.restart_node(node)

    plan.on_kill(kill)
    plan.on_restart(restart)
    plan.call(1.0, "workload", workload)
    plan.call(1.5, "stage-unsynced", stage_unsynced_tail)
    plan.torn_write(1.9, "node-1", path="chaos/data.log")
    plan.kill(2.0, "broker-0")
    plan.kill(2.0, "node-1")
    plan.kill(2.0, "storage-0")
    plan.kill(2.0, "bootstrap-1")
    plan.restart(3.0, "broker-0")
    plan.restart(3.0, "node-1")
    plan.restart(3.0, "storage-0")
    plan.restart(3.0, "bootstrap-1")
    plan.run(until=4.0)

    recovered_bootstrap = BootstrapServer(
        "bootstrap-1", disk=disk.scope("bootstrap-1"))
    return {
        "disk": disk,
        "kafka": kafka,
        "voldemort": voldemort,
        "espresso": espresso,
        "bootstrap": recovered_bootstrap,
        "routed": routed,
        "ledger": ledger,
        "auditor": auditor,
        "consumer_offsets": consumer_offsets,
        "plan": plan,
    }


@pytest.fixture(scope="module")
def world():
    return run_scenario(1234)


def test_no_acked_kafka_loss(world):
    kafka = world["kafka"]

    def read_kafka(key):
        topic, partition, offset = key
        broker = kafka.broker_for(topic, partition)
        data = broker.fetch(topic, partition, offset)
        return next(iter(iter_messages(data, offset))).message.payload

    assert world["ledger"].verify("kafka", read_kafka) == []


def test_no_acked_voldemort_loss(world):
    routed = world["routed"]

    def read_voldemort(key):
        frontier, _ = routed.get(key)
        return frontier[0].value

    assert world["ledger"].verify("voldemort", read_voldemort) == []


def test_torn_voldemort_tail_truncated_not_partial(world):
    engine = world["voldemort"].server_for(1).engine("chaos")
    assert engine.torn_bytes_truncated > 0
    from repro.common.errors import KeyNotFoundError
    with pytest.raises(KeyNotFoundError):
        engine.get(b"in-flight")


def test_no_acked_espresso_loss(world):
    espresso = world["espresso"]

    def read_espresso(artist):
        node = espresso.node_for_resource(artist)
        return node.get_document("Artist", (artist,)).document["genre"]

    assert world["ledger"].verify("espresso", read_espresso) == []


def test_no_acked_bootstrap_loss(world):
    delta, _ = world["bootstrap"].consolidated_delta(since_scn=0)
    by_scn = {e.scn: e.payload for e in delta}
    assert world["ledger"].verify("bootstrap", by_scn.__getitem__) == []


def test_no_duplicate_or_skipped_scn(world):
    auditor = world["auditor"]
    assert auditor.violations == []
    assert auditor.windows_seen >= len(ARTISTS)


def test_consumer_offsets_within_watermarks(world):
    kafka = world["kafka"]

    def watermark_of(topic, partition):
        return kafka.broker_for(topic, partition).log(topic,
                                                      partition).high_watermark

    assert offsets_within_watermark(world["consumer_offsets"],
                                    watermark_of) == []


def test_fault_plan_executed_fully(world):
    kinds = [entry[1] for entry in world["plan"].executed]
    assert kinds.count("kill") == 4
    assert kinds.count("restart") == 4
    assert kinds.count("torn_write") == 1


def test_declared_constraints_hold_after_recovery(world):
    """DESIGN.md §9's ledger checks re-expressed as declared audit
    constraints: after kills, a torn write, and recovery, a correct
    world keeps the continuous auditor completely quiet — the clean-run
    control that makes every seeded-injection finding meaningful."""
    from repro.audit import Auditor, CountConservation, ValueEquality
    from repro.common.clock import SimClock

    kafka = world["kafka"]
    routed = world["routed"]
    espresso = world["espresso"]
    ledger = world["ledger"]

    def kafka_produced():
        counts = {}
        for topic, partition, _offset in ledger.acked("kafka"):
            bucket = (topic, partition)
            counts[bucket] = counts.get(bucket, 0) + 1
        return counts

    def kafka_consumed():
        counts = {}
        for tp in kafka.topic_layout("events"):
            broker = kafka.brokers[tp.broker_id]
            offset = n = 0
            while True:
                data = broker.fetch(tp.topic, tp.partition, offset)
                if not data:
                    break
                for decoded in iter_messages(data, offset):
                    n += 1
                    offset = decoded.next_offset
            counts[(tp.topic, tp.partition)] = n
        return counts

    auditor = Auditor(SimClock())
    auditor.declare(CountConservation(
        "kafka-conservation", "kafka:events", kafka_produced, kafka_consumed))
    auditor.declare(ValueEquality(
        "voldemort-acked-values", "voldemort:chaos",
        expected_items=lambda: ledger.acked("voldemort"),
        actual_of=lambda key: routed.get(key)[0][0].value))
    auditor.declare(ValueEquality(
        "espresso-acked-values", "espresso:Artist",
        expected_items=lambda: ledger.acked("espresso"),
        actual_of=lambda artist: espresso.node_for_resource(artist)
            .get_document("Artist", (artist,)).document["genre"]))
    assert auditor.tick() == []
    assert auditor.violations == []


def test_same_seed_byte_identical_trace():
    first = run_scenario(77)
    second = run_scenario(77)
    assert first["disk"].trace_bytes() == second["disk"].trace_bytes()
    assert first["plan"].executed == second["plan"].executed
    assert len(first["disk"].trace_bytes()) > 0
