"""Server-side segment pruning: correctness (identical results pruning
on vs off) over the paper's fig 15/16 workloads, plus unit coverage of
the conservative cases."""

import pytest

from repro.cache.pruner import compile_pruner, prune_reason
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.pql.parser import parse
from repro.segment.bloom import BloomFilter
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.workloads import impressions, wvmp

SKIP_ALL = " OPTION(skipCache=true)"  # ground truth: no cache, no prune


def run_pair(cluster, pql):
    """(pruned response, unpruned ground-truth response)."""
    pruned = cluster.execute(pql)
    truth = cluster.execute(pql + SKIP_ALL)
    return pruned, truth


@pytest.fixture(scope="module")
def wvmp_cluster():
    cluster = PinotCluster(num_servers=2)
    # No table-level blooms: broker-side bloom pruning would otherwise
    # drop segments before the server pruner ever sees them, and these
    # tests exercise the server-side zone maps.
    cluster.create_table(TableConfig.offline(
        "wvmp", wvmp.schema(),
        segment_config=SegmentConfig(sorted_column="vieweeId"),
    ))
    # Globally sorted upload gives segments disjoint vieweeId ranges,
    # the setting where zone maps shine (§4.2 physical ordering).
    records = sorted(wvmp.generate_records(16_000, seed=7),
                     key=lambda r: r["vieweeId"])
    cluster.upload_records("wvmp", records, rows_per_segment=2_000)
    return cluster


@pytest.fixture(scope="module")
def impressions_cluster():
    cluster = PinotCluster(num_servers=2)
    config = impressions.segment_config()
    config.partition_column = "memberId"
    config.num_partitions = impressions.NUM_PARTITIONS
    cluster.create_table(TableConfig.offline(
        "impressions", impressions.schema(),
        segment_config=config,
        partition=impressions.partition_config(),
    ))
    cluster.upload_records(
        "impressions", impressions.generate_records(12_000, seed=9),
        rows_per_segment=1_500,
    )
    return cluster


class TestWvmpWorkload:
    def test_workload_queries_identical_pruning_on_vs_off(
            self, wvmp_cluster):
        total_pruned = 0
        for pql in wvmp.generate_queries(30, seed=11):
            pruned, truth = run_pair(wvmp_cluster, pql)
            assert pruned.rows == truth.rows, pql
            assert truth.stats.num_segments_pruned_by_server == 0
            total_pruned += pruned.stats.num_segments_pruned_by_server
        assert total_pruned > 0  # the pruner actually fired

    def test_point_query_prunes_most_segments(self, wvmp_cluster):
        pruned, truth = run_pair(
            wvmp_cluster, "SELECT sum(views) FROM wvmp WHERE vieweeId = 0"
        )
        assert pruned.rows == truth.rows
        assert pruned.stats.num_segments_pruned_by_server >= 5
        assert (pruned.stats.num_segments_queried
                == truth.stats.num_segments_queried)

    def test_in_query_identical(self, wvmp_cluster):
        pruned, truth = run_pair(
            wvmp_cluster,
            "SELECT count(*) FROM wvmp WHERE vieweeId IN (0, 1, 2400)",
        )
        assert pruned.rows == truth.rows
        assert pruned.stats.num_segments_pruned_by_server > 0

    def test_range_query_identical(self, wvmp_cluster):
        pruned, truth = run_pair(
            wvmp_cluster,
            "SELECT count(*) FROM wvmp "
            "WHERE vieweeId BETWEEN 100 AND 200",
        )
        assert pruned.rows == truth.rows

    def test_server_metrics_report_prune_ratio(self, wvmp_cluster):
        scanned = sum(s.metrics.count("segments_scanned")
                      for s in wvmp_cluster.servers)
        pruned = sum(s.metrics.count("segments_pruned")
                     for s in wvmp_cluster.servers)
        assert scanned > 0 and pruned > 0


class TestImpressionsWorkload:
    def test_workload_queries_identical_pruning_on_vs_off(
            self, impressions_cluster):
        total_pruned = 0
        for pql in impressions.generate_queries(30, seed=13):
            pruned, truth = run_pair(impressions_cluster, pql)
            assert pruned.rows == truth.rows, pql
            total_pruned += pruned.stats.num_segments_pruned_by_server
        assert total_pruned > 0

    def test_partition_pruning_fires_for_point_member(
            self, impressions_cluster):
        pruned, truth = run_pair(
            impressions_cluster,
            "SELECT count(*) FROM impressions WHERE memberId = 17",
        )
        assert pruned.rows == truth.rows
        assert pruned.stats.num_segments_pruned_by_server > 0


class TestConservativeCases:
    """Shapes the pruner must refuse to reason about."""

    @pytest.fixture(scope="class")
    def metadata(self):
        builder = SegmentBuilder(
            "seg", "t", wvmp.schema(),
            SegmentConfig(bloom_columns=("vieweeId",)),
        )
        builder.add_all([
            {"vieweeId": v, "viewerId": 1, "viewerCompany": "c",
             "viewerRegion": "r", "viewerOccupation": "o",
             "views": 1, "day": 17200}
            for v in (10, 20, 30)
        ])
        return builder.build().metadata

    def q(self, where):
        return compile_pruner(
            parse(f"SELECT count(*) FROM t WHERE {where}"))

    def test_zone_map_prunes_out_of_range(self, metadata):
        assert prune_reason(metadata, self.q("vieweeId > 30")) == "zone_map"
        assert prune_reason(metadata, self.q("vieweeId < 10")) == "zone_map"
        assert prune_reason(metadata,
                            self.q("vieweeId BETWEEN 31 AND 99")) == "zone_map"

    def test_bloom_prunes_absent_value(self, metadata):
        assert prune_reason(metadata, self.q("vieweeId = 15")) == "bloom"

    def test_in_range_not_pruned(self, metadata):
        assert prune_reason(metadata, self.q("vieweeId = 20")) is None
        assert prune_reason(metadata, self.q("vieweeId >= 30")) is None

    def test_or_and_negations_never_prune(self, metadata):
        assert prune_reason(
            metadata, self.q("vieweeId > 99 OR views = 1")) is None
        assert prune_reason(metadata, self.q("vieweeId != 99")) is None
        assert prune_reason(
            metadata, self.q("vieweeId NOT IN (10, 20, 30)")) is None

    def test_nested_and_is_taken_apart(self, metadata):
        # The hybrid split wraps the user's WHERE: (a AND b) AND day <= t.
        from repro.pql.rewriter import split_hybrid

        query = parse("SELECT count(*) FROM t "
                      "WHERE vieweeId = 15 AND views >= 1")
        offline, realtime = split_hybrid(query, "day", 17300, "t_O", "t_R")
        assert prune_reason(metadata, compile_pruner(offline)) == "bloom"
        assert prune_reason(
            metadata, compile_pruner(realtime)) == "zone_map"

    def test_no_where_never_prunes(self, metadata):
        assert prune_reason(
            metadata, compile_pruner(parse("SELECT count(*) FROM t"))
        ) is None

    def test_incomparable_types_never_prune(self, metadata):
        assert prune_reason(metadata, self.q("vieweeId = 'abc'")) in (
            None, "bloom"  # the bloom may still prove absence
        )

    def test_equality_constraints_drop_floats(self):
        constraints = self.q(
            "vieweeId = 5.5 AND viewerCompany = 'acme'").constraints
        assert constraints == {"viewerCompany": ["acme"]}

    def test_equality_constraints_drop_partial_in_lists(self):
        assert self.q("vieweeId IN (1, 2.5)").constraints == {}


@pytest.fixture
def count_bloom_parses(monkeypatch):
    """The list every ``BloomFilter.from_payload`` call appends to."""
    calls = []
    parse_payload = BloomFilter.from_payload.__func__

    def counted(cls, payload):
        calls.append(payload)
        return parse_payload(cls, payload)

    monkeypatch.setattr(BloomFilter, "from_payload", classmethod(counted))
    return calls


class TestBloomParsedOnce:
    """A loaded segment's blooms are parsed on first use and kept with
    its metadata; the broker parses a record's blooms into its summary.
    Neither parses again per query."""

    def test_metadata_parses_its_bloom_once(self, count_bloom_parses):
        builder = SegmentBuilder("seg", "t", wvmp.schema(),
                                 SegmentConfig(bloom_columns=("vieweeId",)))
        builder.add_all([
            {"vieweeId": v, "viewerId": 1, "viewerCompany": "c",
             "viewerRegion": "r", "viewerOccupation": "o",
             "views": 1, "day": 17200}
            for v in (10, 20, 30)
        ])
        metadata = builder.build().metadata
        answers = {
            where: prune_reason(metadata, compile_pruner(
                parse(f"SELECT count(*) FROM t WHERE {where}")))
            for where in ("vieweeId = 15", "vieweeId = 20",
                          "vieweeId IN (11, 12)", "vieweeId IN (12, 30)")
            for __ in range(3)
        }
        assert answers == {"vieweeId = 15": "bloom", "vieweeId = 20": None,
                           "vieweeId IN (11, 12)": "bloom",
                           "vieweeId IN (12, 30)": None}
        assert len(count_bloom_parses) == 1

    def test_repeated_queries_parse_no_bloom_again(self, count_bloom_parses):
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(TableConfig.offline(
            "wvmp", wvmp.schema(),
            segment_config=SegmentConfig(sorted_column="vieweeId",
                                         bloom_columns=("viewerCompany",)),
        ))
        records = sorted(wvmp.generate_records(4_000, seed=3),
                         key=lambda r: r["vieweeId"])
        cluster.upload_records("wvmp", records, rows_per_segment=500)
        companies = sorted({r["viewerCompany"] for r in records})[:6]

        def round_of_queries(views):
            for company in companies + ["no-such-company"]:
                pruned, truth = run_pair(
                    cluster, f"SELECT count(*) FROM wvmp WHERE "
                             f"viewerCompany = '{company}' AND views >= {views}")
                assert pruned.rows == truth.rows

        round_of_queries(0)
        parsed = len(count_bloom_parses)
        assert 0 < parsed <= 2 * 8  # broker summary + loaded segment
        round_of_queries(-1)
        assert len(count_bloom_parses) == parsed
