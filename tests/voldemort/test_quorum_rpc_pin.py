"""Pins the exact RPC sequence of a seeded Voldemort 60/40 quorum mix.

Speeding up the quorum path (ring placement, vector clocks, replica
ordering) must not change which replicas are called, in what order, or
how many RNG draws each hop takes.  A seeded run's network trace digest,
hop count and per-operation latency sums are compared with the values
the unoptimised router produced; any drift fails here, before it would
show up as a sim-latency change in the benchmark.
"""

import hashlib
import random

from repro.simnet import SimNetwork, lognormal_latency
from repro.voldemort import RoutedStore, StoreClient, StoreDefinition, Versioned, VoldemortCluster
from repro.voldemort.client import last_writer_wins

SEED = 7
NUM_KEYS = 200
OPS = 500
BATCH_KEYS = 8

# recorded from the unoptimised router
TRACE_SHA256 = "b7c9b3a2fd045ed8d7e1981d26da1debcf1bfb399f6c358cc4a0840ff7001dbc"
HOPS_DELIVERED = 2291
HISTOGRAM_SUMS = {
    "get": 1.0765392560024638,
    "put": 0.7255130136916814,
    "get_all": 0.10672403920875052,
}


def _run_mix():
    rng = random.Random(SEED)
    network = SimNetwork(seed=SEED, latency_model=lognormal_latency(0.0009, 0.4))
    cluster = VoldemortCluster(num_nodes=5, partitions_per_node=4,
                               network=network, seed=SEED)
    cluster.define_store(StoreDefinition(
        "pinned", replication_factor=3, required_reads=2, required_writes=2))
    routed = RoutedStore(cluster, "pinned")
    client = StoreClient(routed)
    keys = [b"member:%06d" % i for i in range(NUM_KEYS)]
    expected = {}
    for key in keys:
        expected[key] = rng.randbytes(16)
        routed.put(key, Versioned.initial(expected[key], 0))
    network.start_trace()
    for _ in range(OPS):
        if rng.random() < 0.6:
            if rng.random() < 0.1:
                batch = rng.sample(keys, BATCH_KEYS)
                found, _ = routed.get_all(batch)
                for key in batch:
                    assert last_writer_wins(found[key]).value == expected[key]
            else:
                key = rng.choice(keys)
                assert client.get_value(key) == expected[key]
        else:
            key = rng.choice(keys)
            expected[key] = rng.randbytes(16)
            client.put(key, expected[key])
    sums = {name: routed.metrics.histogram(name).mean
            * routed.metrics.histogram(name).count
            for name in ("get", "put", "get_all")}
    return network, sums


def test_quorum_mix_rpc_sequence_is_pinned():
    network, sums = _run_mix()
    assert hashlib.sha256(network.trace_bytes()).hexdigest() == TRACE_SHA256
    assert network.hops_delivered == HOPS_DELIVERED
    assert sums == HISTOGRAM_SUMS
