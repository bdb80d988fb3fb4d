"""Automatic inverted-index addition from query-log mining (§5.2).

"We also parse the query logs and execution statistics on an ongoing
basis in order to automatically add inverted indexes on columns where
they would prove beneficial." This module implements that self-service
loop: brokers record each query's filter columns and scan footprint,
the analyzer aggregates them, picks columns that are (a) filtered
often, (b) paying for scans, and (c) not already indexed or sorted,
and schedules ``add_inverted_index`` minion tasks — also updating the
table config so future segment builds index the column up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.cluster.broker import BrokerInstance
from repro.cluster.controller import Controller
from repro.errors import ClusterError
from repro.obs.metrics import runtime_metrics


@dataclass
class IndexRecommendation:
    """One column the analyzer wants indexed, with its evidence."""

    table: str
    column: str
    queries_filtering: int
    entries_scanned: int
    reasons: list[str] = field(default_factory=list)


class AutoIndexAnalyzer:
    """Mines broker query logs and schedules index-backfill tasks."""

    def __init__(self, controller: Controller,
                 min_queries: int = 20,
                 min_entries_scanned: int = 10_000):
        self._controller = controller
        self.min_queries = min_queries
        self.min_entries_scanned = min_entries_scanned

    def recommend(
        self, brokers: Iterable[BrokerInstance]
    ) -> list[IndexRecommendation]:
        """Aggregate query logs into per-column recommendations."""
        usage: dict[tuple[str, str], IndexRecommendation] = {}
        for broker in brokers:
            for entry in broker.query_log:
                for column in entry.filter_columns:
                    key = (entry.table, column)
                    rec = usage.get(key)
                    if rec is None:
                        rec = IndexRecommendation(entry.table, column, 0, 0)
                        usage[key] = rec
                    rec.queries_filtering += 1
                    rec.entries_scanned += entry.entries_scanned_in_filter

        out = []
        for rec in usage.values():
            if rec.queries_filtering < self.min_queries:
                continue
            if rec.entries_scanned < self.min_entries_scanned:
                continue
            if not self._is_candidate(rec):
                continue
            rec.reasons.append(
                f"filtered by {rec.queries_filtering} queries scanning "
                f"{rec.entries_scanned} entries"
            )
            out.append(rec)
        out.sort(key=lambda r: -r.entries_scanned)
        return out

    def _is_candidate(self, rec: IndexRecommendation) -> bool:
        try:
            config = self._controller.table_config(rec.table)
        except ClusterError:
            # The table was dropped between the query log and this
            # analysis pass — expected during retention; anything else
            # (a genuine bug in config decoding) must propagate.
            runtime_metrics.incr("autoindex_missing_table")
            return False
        if rec.column not in config.schema:
            return False
        segment_config = config.segment_config
        if rec.column == segment_config.sorted_column:
            return False  # already better than an inverted index
        if rec.column in segment_config.inverted_columns:
            return False
        return True

    def apply(self, brokers: Iterable[BrokerInstance]) -> list[str]:
        """Schedule backfill tasks for every recommendation; returns the
        task ids. Also updates the table configs so future segments are
        built with the index."""
        task_ids = []
        for rec in self.recommend(brokers):
            # Configs read are shared by every reader: publish a new one.
            config = self._controller.table_config(rec.table)
            config = replace(config, segment_config=replace(
                config.segment_config,
                inverted_columns=(*config.segment_config.inverted_columns,
                                  rec.column),
            ))
            self._controller._helix.set_property(  # noqa: SLF001
                f"tableconfigs/{rec.table}", config.to_dict()
            )
            task_ids.append(self._controller.schedule_task(
                "add_inverted_index", rec.table, {"column": rec.column}
            ))
        return task_ids
