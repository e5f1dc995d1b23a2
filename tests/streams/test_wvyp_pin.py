"""Pin: a short seeded Who Viewed Your Profile run.

The job (repartition by viewee, then windowed counters) runs 40 ticks
of 50 views on 4 partitions and 2 containers, with 8 KiB segments so
that every input and repartition partition rolls several times.  Two
things are pinned:

* **state** — the SHA-256 of every task's final ``state_fingerprint()``
  (canonical JSON, dedupe watermarks excluded because they record byte
  offsets).  The digest was recorded when stream records were still
  JSON, so a change of wire format that altered any counter fails here;
* **freshness** — every view is visible through the serving facade by
  the end of the tick after the one it was sent in.  A poll that
  stopped at a segment boundary left the records behind the roll for
  the next cycle, a tick late.
"""

import collections
import hashlib

from repro.common.clock import SimClock
from repro.kafka.broker import KafkaCluster
from repro.kafka.producer import Producer
from repro.simnet.disk import SimDisk
from repro.streams import JobCoordinator, StreamContainer, encode_stream_message
from repro.streams.apps import (
    WhoViewedYourProfileService,
    who_viewed_your_profile_job,
)
from repro.workloads import ProfileViewEventGenerator
from repro.zookeeper import ZooKeeperServer

SEED = 7
PARTITIONS = 4
TICKS = 40
VIEWS_PER_TICK = 50
TICK_S = 0.1
SEGMENT_BYTES = 8 * 1024
STATE_SHA256 = (
    "4f2bd27a193f5dc8127403ee6e172451f782c5a10ab674c0303dd41b8a2ce6d0")


def run_wvyp():
    """Returns (final state digest, views seen later than one tick)."""
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=SEED)
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(3, "/kafka", zookeeper=zookeeper, clock=clock,
                           partitions_per_topic=PARTITIONS,
                           segment_bytes=SEGMENT_BYTES, disk=disk)
    cluster.create_topic("profile-views")
    spec = who_viewed_your_profile_job(PARTITIONS)
    coordinator = JobCoordinator(spec, cluster, zookeeper)
    containers = [StreamContainer(f"c{i}", spec, cluster, zookeeper, clock,
                                  disk.scope(f"c{i}"), "/state")
                  for i in range(2)]
    coordinator.deploy(containers)
    service = WhoViewedYourProfileService(coordinator, containers)
    producer = Producer(cluster, batch_size=20, seed=SEED)
    generator = ProfileViewEventGenerator(num_members=500, seed=SEED)

    sent: collections.Counter = collections.Counter()
    due: dict[str, int] = {}   # views that must be visible after this tick
    late = 0
    for _ in range(TICKS):
        for _ in range(VIEWS_PER_TICK):
            event = generator.next_event(timestamp=round(clock.now(), 6))
            producer.send("profile-views", encode_stream_message(
                event["viewer"], {"viewee": event["viewee"],
                                  "ts": event["ts"]}, event["ts"]),
                event["viewer"].encode())
            sent[event["viewee"]] += 1
        producer.flush()
        clock.advance(TICK_S)
        for container in containers:
            container.run_cycle()
        late += sum(max(count - service.total_views(viewee), 0)
                    for viewee, count in sorted(due.items()))
        due = dict(sent)

    while sum(container.run_cycle() for container in containers):
        clock.advance(TICK_S)
    assert all(service.total_views(viewee) == count
               for viewee, count in sent.items())
    digest = hashlib.sha256()
    for container in containers:
        for key in sorted(container.tasks):
            digest.update(b"%s:%d=" % (key[0].encode(), key[1]))
            digest.update(container.tasks[key].state_fingerprint())
    return digest.hexdigest(), late


def test_wvyp_state_and_freshness_are_pinned():
    digest, late = run_wvyp()
    assert digest == STATE_SHA256
    assert late == 0
