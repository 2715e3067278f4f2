"""HINT: A Hierarchical Index for Intervals in Main Memory -- Python reproduction.

This package reproduces Christodoulou, Bouros and Mamoulis, SIGMOD 2022
(arXiv:2104.10939): the HINT / HINT^m hierarchical interval indexes, every
optimization the paper describes, the four baselines it compares against,
the dataset/query generators of its evaluation, and a benchmark harness that
regenerates each table and figure.

Quickstart (the unified engine API)::

    from repro import IntervalStore

    store = IntervalStore.from_pairs([(1, 5), (3, 9), (12, 14)])
    store.query().overlapping(4, 12).ids()    # -> ids overlapping [4, 12]
    store.query().stabbing(4).count()         # count without materialising ids

The index classes remain available for direct use::

    from repro import IntervalCollection, Query, OptimizedHINTm

    data = IntervalCollection.from_pairs([(1, 5), (3, 9), (12, 14)])
    index = OptimizedHINTm(data, num_bits=4)
    index.query(Query(4, 12))   # -> ids of intervals overlapping [4, 12]
"""

from repro.baselines import Grid1D, IntervalTree, NaiveIndex, PeriodIndex, TimelineIndex
from repro.core import (
    AllenRelation,
    Domain,
    Interval,
    IntervalCollection,
    IntervalIndex,
    Query,
    QueryStats,
    ReproError,
    UnknownBackendError,
    UnsupportedQueryError,
)
from repro.engine import (
    BackendSpec,
    BatchResult,
    IntervalStore,
    QueryBuilder,
    ResultSet,
    ShardPlan,
    ShardedIndex,
    available_backends,
    backend_specs,
    create_index,
    execute_batch,
    get_backend,
    partition_collection,
    register_backend,
    resolve_backend,
)
from repro.datasets import (
    REAL_DATASET_PROFILES,
    SyntheticConfig,
    generate_books_like,
    generate_greend_like,
    generate_real_like,
    generate_synthetic,
    generate_taxis_like,
    generate_webkit_like,
    load_intervals_csv,
    save_intervals_csv,
)
from repro.hint import (
    ComparisonFreeHINT,
    CostModel,
    DatasetStatistics,
    HINTm,
    HybridHINTm,
    OptimizedHINTm,
    SubdividedHINTm,
    collect_workload_statistics,
    estimate_m_opt,
    replication_factor,
)
from repro.queries import (
    QueryWorkloadConfig,
    generate_mixed_workload,
    generate_queries,
    generate_stabbing_queries,
)
from repro.durability import (
    CheckpointError,
    DurabilityDegradedError,
    DurabilityError,
    DurabilityManager,
    WalCorruptionError,
)
from repro.serve import (
    QueryServer,
    ResultCache,
    ServeClient,
    ServerHandle,
    ServerUnavailableError,
    StreamClient,
    start_server_thread,
)
from repro.stream import StandingQueryManager, Subscription, SubscriptionRegistry

__version__ = "1.0.0"

__all__ = [
    "AllenRelation",
    "BackendSpec",
    "BatchResult",
    "CheckpointError",
    "ComparisonFreeHINT",
    "CostModel",
    "DatasetStatistics",
    "Domain",
    "DurabilityDegradedError",
    "DurabilityError",
    "DurabilityManager",
    "Grid1D",
    "HINTm",
    "HybridHINTm",
    "Interval",
    "IntervalCollection",
    "IntervalIndex",
    "IntervalStore",
    "IntervalTree",
    "NaiveIndex",
    "OptimizedHINTm",
    "PeriodIndex",
    "Query",
    "QueryBuilder",
    "QueryServer",
    "QueryStats",
    "QueryWorkloadConfig",
    "REAL_DATASET_PROFILES",
    "ReproError",
    "ResultCache",
    "ResultSet",
    "ServeClient",
    "ServerHandle",
    "ServerUnavailableError",
    "ShardPlan",
    "ShardedIndex",
    "StandingQueryManager",
    "StreamClient",
    "SubdividedHINTm",
    "Subscription",
    "SubscriptionRegistry",
    "SyntheticConfig",
    "TimelineIndex",
    "UnknownBackendError",
    "UnsupportedQueryError",
    "WalCorruptionError",
    "available_backends",
    "backend_specs",
    "collect_workload_statistics",
    "create_index",
    "execute_batch",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "estimate_m_opt",
    "generate_books_like",
    "generate_greend_like",
    "generate_mixed_workload",
    "generate_queries",
    "generate_real_like",
    "generate_stabbing_queries",
    "generate_synthetic",
    "generate_taxis_like",
    "generate_webkit_like",
    "load_intervals_csv",
    "partition_collection",
    "replication_factor",
    "save_intervals_csv",
    "start_server_thread",
    "__version__",
]
