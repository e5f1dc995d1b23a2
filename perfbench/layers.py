"""What the traced run wraps, and the per-layer metrics derived from it.

``ENTRY_POINTS`` lists each layer's public entry points; several entry
points may share one span name, which then stands for the whole layer
(``voldemort.server``, ``zookeeper``, ``sqlstore.table``, ...).

:func:`per_layer_metrics` computes the per-layer metrics that
``BENCHMARK.json`` names.  Every value is normalised per op of the
traced phase unless its name says otherwise; which end-to-end metric
and workload each should move is tabled in README.md.
"""

from __future__ import annotations

from perfbench.spans import EntryPoint, Tracer


def _hop_latency(tracer, args, kwargs, result):
    tracer.add("simnet.hop_sim_s", result[1])


def _versions_read(tracer, args, kwargs, result):
    tracer.add("voldemort.versions_read", len(result[0]))
    tracer.add("voldemort.keys_read", 1)


def _batch_versions_read(tracer, args, kwargs, result):
    tracer.add("voldemort.versions_read",
               sum(len(versions) for versions in result[0].values()))
    tracer.add("voldemort.keys_read", len(result[0]))


def _disk_write(tracer, args, kwargs, result):
    tracer.add("simnet.disk.bytes_written", result)


def _broker_fetch(tracer, args, kwargs, result):
    tracer.add("kafka.broker.bytes_fetched", len(result))


def _consumer_fetch(tracer, args, kwargs, result):
    if result:
        tracer.add("kafka.consumer.useful_fetches", 1)


def _databus_poll(tracer, args, kwargs, result):
    if result:
        tracer.add("databus.client.useful_polls", 1)
    tracer.add("databus.client.events", result)


def _broker_produce(tracer, args, kwargs, result):
    topic, message_set = args[1], args[3]
    if topic.startswith("__changelog-"):
        tracer.add("streams.changelog.records", len(message_set))
    elif topic.startswith("__repartition-"):
        tracer.add("streams.task.repartition_records", len(message_set))


def _snapshot(tracer, args, kwargs, result):
    disk, path = args[0], args[1]
    tracer.peak("streams.state.snapshot_bytes", disk.getsize(path))


def _methods(span: str, module: str, owner: str, names: str,
             hook=None) -> list[EntryPoint]:
    return [EntryPoint(span, module, f"{owner}.{name}", hook=hook)
            for name in names.split()]


ENTRY_POINTS: list[EntryPoint] = [
    # voldemort
    EntryPoint("voldemort.routing.get", "repro.voldemort.routing",
               "RoutedStore.get", hook=_versions_read),
    EntryPoint("voldemort.routing.put", "repro.voldemort.routing",
               "RoutedStore.put"),
    EntryPoint("voldemort.routing.get_all", "repro.voldemort.routing",
               "RoutedStore.get_all", hook=_batch_versions_read),
    *_methods("voldemort.server", "repro.voldemort.server",
              "VoldemortServer", "get put delete get_batch get_versions"),
    *_methods("voldemort.failure_detector", "repro.voldemort.failure_detector",
              "FailureDetector", "is_available record_success record_failure"),
    # simnet
    EntryPoint("simnet.network.invoke", "repro.simnet.network",
               "SimNetwork.invoke", hook=_hop_latency),
    EntryPoint("simnet.disk.write", "repro.simnet.disk", "_SimFile.write",
               hook=_disk_write),
    EntryPoint("simnet.disk.fsync", "repro.simnet.disk", "_SimFile.fsync"),
    EntryPoint("simnet.disk.read", "repro.simnet.disk", "_SimFile.read"),
    # common
    *_methods("common.ring", "repro.common.ring", "HashRing",
              "partition_for_key node_for_partition master_for_key "
              "replica_partitions replica_nodes_for_key"),
    *_methods("common.vectorclock", "repro.common.vectorclock", "VectorClock",
              "incremented merged compare dominates descends_from "
              "concurrent_with __eq__ __hash__"),
    EntryPoint("common.serialization.encode_record",
               "repro.common.serialization", "encode_record"),
    EntryPoint("common.serialization.decode_record",
               "repro.common.serialization", "decode_record"),
    EntryPoint("common.wal.append", "repro.common.wal", "WriteAheadLog.append"),
    EntryPoint("common.wal.fsync", "repro.common.wal", "WriteAheadLog.fsync"),
    *_methods("common.metrics", "repro.common.metrics", "MetricsRegistry",
              "histogram counter family"),
    *_methods("common.metrics", "repro.common.metrics", "LatencyHistogram",
              "record"),
    *_methods("common.metrics", "repro.common.metrics", "Counter",
              "increment"),
    # kafka and zookeeper
    EntryPoint("kafka.producer.send", "repro.kafka.producer", "Producer.send"),
    EntryPoint("kafka.producer.flush", "repro.kafka.producer",
               "Producer.flush"),
    EntryPoint("kafka.broker.produce", "repro.kafka.broker", "Broker.produce",
               hook=_broker_produce),
    EntryPoint("kafka.broker.fetch", "repro.kafka.broker", "Broker.fetch",
               hook=_broker_fetch),
    EntryPoint("kafka.log.flush", "repro.kafka.log", "PartitionLog.flush"),
    EntryPoint("kafka.message.decode", "repro.kafka.message",
               "iter_messages", eager=True),
    EntryPoint("kafka.consumer.fetch", "repro.kafka.consumer",
               "SimpleConsumer.fetch", hook=_consumer_fetch),
    EntryPoint("kafka.consumer.poll", "repro.kafka.consumer",
               "ConsumerGroupMember.poll"),
    *_methods("zookeeper", "repro.zookeeper.server", "ZooKeeperSession",
              "create ensure_path get set exists get_children delete"),
    # espresso, helix, sqlstore
    EntryPoint("espresso.router.get", "repro.espresso.router", "Router.get"),
    EntryPoint("espresso.router.put", "repro.espresso.router", "Router.put"),
    EntryPoint("helix.controller.external_view", "repro.helix.controller",
               "HelixController.external_view"),
    EntryPoint("espresso.storage.put_document", "repro.espresso.storage",
               "EspressoStorageNode.put_document"),
    EntryPoint("espresso.storage.catch_up", "repro.espresso.storage",
               "EspressoStorageNode.catch_up"),
    *_methods("sqlstore.table", "repro.sqlstore.table", "Table",
              "get contains insert update upsert delete scan scan_chunk "
              "keys snapshot restore"),
    # databus, search, socialgraph
    EntryPoint("databus.relay.capture_transaction", "repro.databus.relay",
               "Relay.capture_transaction"),
    EntryPoint("databus.relay.stream_from", "repro.databus.relay",
               "Relay.stream_from"),
    EntryPoint("databus.client.poll", "repro.databus.client",
               "DatabusClient.poll", hook=_databus_poll),
    EntryPoint("search.index.add", "repro.search.index",
               "RankedInvertedIndex.add"),
    EntryPoint("socialgraph.graph.connect", "repro.socialgraph.graph",
               "PartitionedSocialGraph.connect"),
    # streams
    EntryPoint("streams.container.run_cycle", "repro.streams.container",
               "StreamContainer.run_cycle"),
    EntryPoint("streams.task.poll", "repro.streams.task", "TaskInstance.poll"),
    EntryPoint("streams.task.commit", "repro.streams.task",
               "TaskInstance.commit"),
    EntryPoint("streams.codec.encode_stream_message", "repro.streams.task",
               "encode_stream_message"),
    EntryPoint("streams.codec.encode_mutation", "repro.streams.changelog",
               "encode_mutation"),
    EntryPoint("streams.codec.decode_mutation", "repro.streams.changelog",
               "decode_mutation"),
    *[EntryPoint("streams.codec.json", f"repro.streams.{module}", target)
      for module in ("task", "changelog", "state")
      for target in ("json.dumps", "json.loads")],
    EntryPoint("streams.changelog.flush", "repro.streams.changelog",
               "ChangelogWriter.flush"),
    EntryPoint("streams.state.put", "repro.streams.state",
               "KeyedStateStore.put"),
    EntryPoint("streams.state.snapshot", "repro.streams.state",
               "write_snapshot", hook=_snapshot),
]


def _counter(name: str, per_op: bool = True):
    if per_op:
        return lambda t, ops: t.counters.get(name, 0.0) / ops
    return lambda t, ops: t.counters.get(name, 0.0)


def _ratio(numerator, denominator, scale: float = 1.0):
    def compute(t, ops):
        base = denominator(t)
        return scale * numerator(t) / base if base else 0.0
    return compute


def _count(name):
    return lambda t: t.counters.get(name, 0.0)


def _span_calls(span):
    return lambda t: t.calls_of(span)


#: per-layer metrics not named ``<span>.self_us_per_op`` or
#: ``<span>.calls_per_op`` (see :func:`per_layer_metrics`)
DERIVED = {
    "voldemort.routing.read_repairs_per_op":
        _counter("voldemort.read_repairs"),
    "voldemort.siblings_per_read":
        _ratio(_count("voldemort.versions_read"),
               _count("voldemort.keys_read")),
    "simnet.network.hop_sim_ms_per_op":
        lambda t, ops: t.counters.get("simnet.hop_sim_s", 0.0) * 1e3 / ops,
    "simnet.disk.fsyncs_per_op":
        lambda t, ops: t.calls_of("simnet.disk.fsync") / ops,
    "simnet.disk.bytes_written_per_user_byte":
        _ratio(_count("simnet.disk.bytes_written"), _count("user_bytes")),
    "kafka.producer.requests_per_kmsg":
        _ratio(_count("kafka.producer.requests"),
               _count("kafka.producer.messages"), 1000.0),
    "kafka.consumer.useful_fetch_ratio":
        _ratio(_count("kafka.consumer.useful_fetches"),
               _span_calls("kafka.consumer.fetch")),
    "kafka.consumer.bytes_fetched_per_msg":
        _counter("kafka.broker.bytes_fetched"),
    "kafka.consumer.lag_max_bytes":
        _counter("kafka.consumer.lag_max_bytes", per_op=False),
    "databus.client.useful_poll_ratio":
        _ratio(_count("databus.client.useful_polls"),
               _span_calls("databus.client.poll")),
    "databus.client.events_per_poll":
        _ratio(_count("databus.client.events"),
               _span_calls("databus.client.poll")),
    "databus.client.windows_aborted":
        _counter("databus.client.windows_aborted", per_op=False),
    "databus.client.consumer_retries":
        _counter("databus.client.consumer_retries", per_op=False),
    "streams.changelog.records_per_op":
        _counter("streams.changelog.records"),
    "streams.task.repartition_records_per_op":
        _counter("streams.task.repartition_records"),
    "streams.state.snapshot_bytes":
        _counter("streams.state.snapshot_bytes", per_op=False),
    "streams.task.lag_max":
        _counter("streams.task.lag_max", per_op=False),
}

SPANS = {entry.span for entry in ENTRY_POINTS}


def per_layer_metrics(tracer: Tracer, ops: int,
                      names: list[str]) -> dict[str, float]:
    """Each named metric, from a finished tracer and the phase's ops.

    ``<span>.self_us_per_op`` is the self time, and
    ``<span>.calls_per_op`` the call count, of every span named
    ``<span>`` or ``<span>.*``, per op; the rest are in ``DERIVED``."""
    ops = max(ops, 1)
    values = {}
    for name in names:
        if name in DERIVED:
            values[name] = DERIVED[name](tracer, ops)
            continue
        span, _, stat = name.rpartition(".")
        if not any(s == span or s.startswith(span + ".") for s in SPANS):
            raise KeyError(f"per-layer metric {name!r}: no span {span!r}")
        if stat == "self_us_per_op":
            values[name] = tracer.self_seconds_of(span) * 1e6 / ops
        elif stat == "calls_per_op":
            values[name] = tracer.calls_of(span) / ops
        else:
            raise KeyError(f"per-layer metric {name!r}: unknown statistic")
    return values
