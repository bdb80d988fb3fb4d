"""Source-controlled table configuration sync (§5.2).

"Currently, our solution is to store table configurations in source
control and synchronize them with Pinot on an ongoing basis through
Pinot's REST API. This allows us to have an audit trail of changes and
leverage search, validation, and code review tooling."

This module implements that loop against a directory of JSON files
(standing in for the source-control checkout): export the live configs
to files, and sync files back into the cluster — creating missing
tables, applying changed configs, and (optionally) deleting tables
whose files were removed. Every sync returns a change report, the
audit trail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.controller import Controller
from repro.cluster.table import TableConfig
from repro.errors import PinotError


@dataclass
class SyncReport:
    """What a sync run changed."""

    created: list[str] = field(default_factory=list)
    updated: list[str] = field(default_factory=list)
    deleted: list[str] = field(default_factory=list)
    unchanged: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return bool(self.created or self.updated or self.deleted)


def export_configs(controller: Controller, directory: str | Path) -> int:
    """Write every table's config as ``<table>.json``; returns count."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    count = 0
    for table in controller.list_tables():
        config = controller.table_config(table)
        (path / f"{table}.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        count += 1
    return count


def sync_configs(controller: Controller, directory: str | Path,
                 delete_missing: bool = False) -> SyncReport:
    """Apply the directory's configs to the cluster.

    * a file without a live table creates the table;
    * a file differing from the live config updates it (config only —
      existing segments are untouched; new settings apply to future
      segment builds, like the paper's on-the-fly changes);
    * with ``delete_missing``, live tables without a file are dropped;
    * a file that does not parse as a config (bad JSON, an unknown key,
      a bad value), or whose config the cluster refuses (a realtime
      table naming a missing topic), is reported in ``errors`` and its
      table left as it is, never dropped by ``delete_missing``; the
      rest of the directory still syncs.
    """
    path = Path(directory)
    report = SyncReport()
    desired: dict[str, TableConfig] = {}
    for file in sorted(path.glob("*.json")):
        try:
            payload = json.loads(file.read_text())
            config = TableConfig.from_dict(payload)
        except (json.JSONDecodeError, PinotError) as exc:
            report.errors[file.name] = str(exc)
            continue
        if config.name != file.stem:
            report.errors[file.name] = (
                f"file name does not match table name {config.name!r}"
            )
            continue
        desired[config.name] = config

    live = set(controller.list_tables())
    for name, config in desired.items():
        try:
            if name not in live:
                controller.create_table(config)
                report.created.append(name)
            elif controller.table_config(name) == config:
                report.unchanged.append(name)
            else:
                controller._helix.set_property(  # noqa: SLF001 - config write
                    f"tableconfigs/{name}", config.to_dict()
                )
                report.updated.append(name)
        except PinotError as exc:
            report.errors[f"{name}.json"] = str(exc)

    if delete_missing:
        failed = {Path(name).stem for name in report.errors}
        for name in sorted(live - set(desired) - failed):
            controller.delete_table(name)
            report.deleted.append(name)
    return report
