"""The managed cluster: controllers, servers, brokers, minions,
multitenancy, the completion protocol, and the PinotCluster facade."""

from repro.cluster.autoindex import AutoIndexAnalyzer, IndexRecommendation
from repro.cluster.broker import BrokerInstance, QueryLogEntry
from repro.cluster.configsync import (
    SyncReport,
    export_configs,
    sync_configs,
)
from repro.cluster.completion import (
    CompletionResponse,
    Instruction,
    SegmentCompletionManager,
)
from repro.cluster.controller import Controller
from repro.cluster.health import (
    FailureDetector,
    HealthPolicy,
    QueuePressure,
)
from repro.cluster.minion import MinionInstance
from repro.cluster.objectstore import (
    FileObjectStore,
    MemoryObjectStore,
    ObjectStore,
)
from repro.cluster.pinot import PinotCluster
from repro.cluster.server import ServerInstance
from repro.cluster.table import (
    PartitionConfig,
    StreamConfig,
    TableConfig,
    TableType,
)
from repro.cluster.tenant import (
    TenantClass,
    TenantQuotaManager,
    TokenBucket,
)

__all__ = [
    "AutoIndexAnalyzer",
    "BrokerInstance",
    "IndexRecommendation",
    "QueryLogEntry",
    "CompletionResponse",
    "Controller",
    "FailureDetector",
    "FileObjectStore",
    "HealthPolicy",
    "QueuePressure",
    "TenantClass",
    "Instruction",
    "MemoryObjectStore",
    "MinionInstance",
    "ObjectStore",
    "PartitionConfig",
    "PinotCluster",
    "SegmentCompletionManager",
    "ServerInstance",
    "StreamConfig",
    "SyncReport",
    "TableConfig",
    "TableType",
    "TenantQuotaManager",
    "TokenBucket",
    "export_configs",
    "sync_configs",
]
