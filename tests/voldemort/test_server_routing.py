"""Server-side routing (Figure II.1 pluggability) and batched get_all."""

import pytest

from repro.common.errors import (
    InsufficientOperationalNodesError,
    NodeUnavailableError,
)
from repro.voldemort import RoutedStore, StoreDefinition, Versioned, VoldemortCluster
from repro.voldemort.server_routing import ServerSideRoutedStore


@pytest.fixture
def cluster():
    built = VoldemortCluster(num_nodes=4, partitions_per_node=4)
    built.define_store(StoreDefinition("s", 3, 2, 2))
    return built


class TestServerSideRouting:
    def test_roundtrip_through_coordinator(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        thin.put(b"k", Versioned.initial(b"v", 0))
        frontier, latency = thin.get(b"k")
        assert frontier[0].value == b"v"
        assert latency > 0

    def test_same_data_visible_to_client_side_router(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        fat = RoutedStore(cluster, "s")
        thin.put(b"k", Versioned.initial(b"v", 0))
        assert fat.get(b"k")[0][0].value == b"v"
        fat.put(b"k2", Versioned.initial(b"v2", 0))
        assert thin.get(b"k2")[0][0].value == b"v2"

    def test_coordinators_rotate(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        served_before = {n: s.requests_served
                         for n, s in cluster.servers.items()}
        thin.put(b"k", Versioned.initial(b"v", 0))
        for _ in range(8):
            thin.get(b"k")
        touched = sum(1 for n, s in cluster.servers.items()
                      if s.requests_served > served_before[n])
        assert touched >= 3  # load spread over coordinators

    def test_extra_hop_costs_latency(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        fat = RoutedStore(cluster, "s")
        fat.put(b"k", Versioned.initial(b"v", 0))
        _, fat_latency = fat.get(b"k")
        _, thin_latency = thin.get(b"k")
        assert thin_latency > fat_latency  # client->coordinator hop

    def test_skips_crashed_coordinator(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        thin.put(b"k", Versioned.initial(b"v", 0))
        cluster.network.failures.crash(cluster.node_name(0))
        for _ in range(6):  # rotation passes node 0 and skips it
            frontier, _ = thin.get(b"k")
            assert frontier

    def test_all_coordinators_down(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        for node_id in cluster.ring.nodes:
            cluster.network.failures.crash(cluster.node_name(node_id))
        with pytest.raises(NodeUnavailableError):
            thin.get(b"k")

    def test_delete_through_coordinator(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        first = Versioned.initial(b"v", 0)
        thin.put(b"k", first)
        thin.delete(b"k", first.next_version(None, 0))
        from repro.common.errors import KeyNotFoundError
        with pytest.raises(KeyNotFoundError):
            thin.get(b"k")


class TestGetAll:
    def test_batch_returns_all_present_keys(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(30)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v:" + key, 0))
        found, latency = routed.get_all(keys + [b"missing-1", b"missing-2"])
        assert set(found) == set(keys)
        for key in keys:
            assert found[key][0].value == b"v:" + key
        assert latency > 0

    def test_batch_uses_fewer_requests_than_loop(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(40)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v", 0))
        hops_before = cluster.network.hops_delivered
        routed.get_all(keys)
        batch_hops = cluster.network.hops_delivered - hops_before
        hops_before = cluster.network.hops_delivered
        for key in keys:
            routed.get(key)
        loop_hops = cluster.network.hops_delivered - hops_before
        assert batch_hops <= len(cluster.ring.nodes)
        assert loop_hops >= len(keys)

    def test_batch_respects_read_quorum(self, cluster):
        routed = RoutedStore(cluster, "s", enable_hinted_handoff=False)
        key = b"quorum-key"
        routed.put(key, Versioned.initial(b"v", 0))
        replicas = routed.replica_nodes(key)
        for node_id in replicas[:2]:
            cluster.network.failures.crash(cluster.node_name(node_id))
        with pytest.raises(InsufficientOperationalNodesError):
            routed.get_all([key])

    def test_batch_survives_one_replica_down(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(10)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v", 0))
        crashed = routed.replica_nodes(keys[0])[0]
        cluster.network.failures.crash(cluster.node_name(crashed))
        # mark it down so assignment avoids it
        for _ in range(10):
            try:
                routed.get(keys[0])
            except Exception:
                pass
        found, _ = routed.get_all(keys)
        assert set(found) == set(keys)

    def test_batch_retries_a_crashed_replica_not_yet_marked_down(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(10)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v:" + key, 0))
        crashed = routed.replica_nodes(keys[0])[0]
        cluster.network.failures.crash(cluster.node_name(crashed))
        # the detector has seen no failure yet, so the first round still
        # sends to the crashed node; get moves on to the next replica
        assert routed.detector.is_available(crashed)
        assert routed.get(keys[0])[0][0].value == b"v:" + keys[0]
        assert routed.detector.is_available(crashed)
        found, latency = routed.get_all(keys)
        assert set(found) == set(keys)
        for key in keys:
            assert [v.value for v in found[key]] == [b"v:" + key]
        assert latency > 0

    def test_retry_round_latency_adds_to_the_first(self, cluster):
        routed = RoutedStore(cluster, "s")
        key = b"key-0"
        routed.put(key, Versioned.initial(b"v", 0))
        crashed = routed.replica_nodes(key)[0]
        cluster.network.failures.crash(cluster.node_name(crashed))
        cluster.network.start_trace()
        _, latency = routed.get_all([key])
        # one answering replica per round: two sequential hops
        answered = [event[-1] for event in cluster.network.trace
                    if event[0] == "invoke" and event[4] == "ok"]
        assert len(answered) == 2
        assert latency == answered[0] + answered[1]

    def test_empty_batch(self, cluster):
        routed = RoutedStore(cluster, "s")
        found, latency = routed.get_all([])
        assert found == {}
        assert latency == 0.0
