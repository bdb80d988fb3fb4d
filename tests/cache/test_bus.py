"""The per-table Helix epoch, which replaced the invalidation bus.

A "publish" is now ``HelixManager.bump_epoch`` and a "subscriber" any
broker reading ``table_epoch``; the test names keep the bus's words.
"""

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric
from repro.helix.manager import HelixManager
from repro.zk.store import ZkStore

PQL = "SELECT count(*) FROM t"


def cluster_with_table(num_brokers):
    cluster = PinotCluster(num_servers=1, num_brokers=num_brokers)
    schema = Schema("t", [dimension("d"), metric("m", DataType.LONG)])
    cluster.create_table(TableConfig.offline("t", schema))
    cluster.upload_records("t", [{"d": "a", "m": 1}] * 4)
    return cluster


class TestBus:
    def test_publish_reaches_all_subscribers(self):
        """Every broker reads the one counter, so one bump rotates the
        cache keys of all of them."""
        cluster = cluster_with_table(num_brokers=2)
        for broker in cluster.brokers:
            broker.execute(PQL)
            assert broker.execute(PQL).cache_hit
        cluster.helix.bump_epoch("t_OFFLINE")
        for broker in cluster.brokers:
            response = broker.execute(PQL)
            assert not response.cache_hit
            assert response.rows == [(4,)]

    def test_publish_without_subscribers_is_fine(self):
        helix = HelixManager(ZkStore(), "c")
        helix.bump_epoch("t")
        assert helix.table_epoch("t") == 1


class TestEpochs:
    def test_epoch_starts_at_zero_and_bumps(self):
        helix = HelixManager(ZkStore(), "c")
        assert helix.table_epoch("t") == 0
        helix.bump_epoch("t")
        assert helix.table_epoch("t") == 1
        assert helix.table_epoch("other") == 0

    def test_subscribed_epochs_bump_per_event(self):
        helix = HelixManager(ZkStore(), "c")
        helix.bump_epoch("a")
        helix.bump_epoch("a")
        helix.bump_epoch("b")
        assert helix.table_epoch("a") == 2
        assert helix.table_epoch("b") == 1

    def test_independent_subscribers(self):
        """Brokers hold no epoch of their own: two brokers' cache keys
        for one text carry the same one."""
        cluster = cluster_with_table(num_brokers=2)
        cluster.helix.bump_epoch("t_OFFLINE")
        first, second = cluster.brokers
        keys = [broker._cache_key(broker._plan(PQL)[1])
                for broker in (first, second)]
        epoch = cluster.helix.table_epoch("t_OFFLINE")
        assert [key[0][3] for key in keys] == [epoch, epoch]
