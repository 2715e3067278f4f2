"""The unified query engine: one public API over every interval index.

* :mod:`repro.engine.registry` -- backend registry + factory
  (:func:`create_index`, :func:`available_backends`); every index class
  self-registers under a short string key,
* :mod:`repro.engine.store` -- the :class:`IntervalStore` facade and its
  fluent :class:`QueryBuilder`,
* :mod:`repro.engine.results` -- lazy :class:`ResultSet` handles whose
  ``count()``/``exists()`` avoid materialising id lists, over every index
  (sharded or not),
* :mod:`repro.engine.batch` -- whole-workload execution
  (:func:`execute_batch`, :class:`BatchResult`),
* :mod:`repro.engine.executor` -- the :class:`ProcessExecutor` pool;
  asking for processes always means a :class:`ShardedIndex` (one shard
  included) whose shards live in the workers over shared-memory columns
  (:mod:`repro.engine._procworker`), and everything else runs inline,
* :mod:`repro.engine.sharding` -- the domain partitioner
  (:class:`ShardPlan`, equi-width and balanced strategies),
* :mod:`repro.engine.sharded` -- :class:`ShardedIndex`, K time-range
  shards over any registered backend, with epoch-based read
  snapshots (:class:`Epoch`): queries pin one immutable generation of the
  partition state, maintenance publishes fresh generations atomically,
* :mod:`repro.engine.maintenance` -- the index-lifecycle layer: the
  sorted count columns, adaptive shard-count model and the
  :class:`MaintenanceCoordinator`, whose explicit ``maintain()`` folds
  pending counts, rebuilds shards by the one delta-fraction rule,
  re-balances cuts and refreshes the shared-memory snapshot.
"""

from repro.engine.batch import BatchResult, execute_batch
from repro.engine.executor import EXECUTOR_KINDS, ProcessExecutor, available_cores
from repro.engine.maintenance import (
    MaintenanceConfig,
    MaintenanceCoordinator,
    MaintenanceReport,
    recommend_shard_count,
)
from repro.engine.registry import (
    BackendSpec,
    available_backends,
    backend_specs,
    create_index,
    get_backend,
    get_spec,
    register_backend,
    resolve_backend,
)
from repro.engine.results import ResultSet
from repro.engine.sharded import Epoch, ShardedIndex
from repro.engine.sharding import PARTITION_STRATEGIES, ShardPlan, partition_collection
from repro.engine.store import DEFAULT_BACKEND, IntervalStore, QueryBuilder

__all__ = [
    "BackendSpec",
    "BatchResult",
    "DEFAULT_BACKEND",
    "EXECUTOR_KINDS",
    "Epoch",
    "IntervalStore",
    "MaintenanceConfig",
    "MaintenanceCoordinator",
    "MaintenanceReport",
    "PARTITION_STRATEGIES",
    "ProcessExecutor",
    "QueryBuilder",
    "ResultSet",
    "ShardPlan",
    "ShardedIndex",
    "available_backends",
    "available_cores",
    "backend_specs",
    "create_index",
    "execute_batch",
    "get_backend",
    "get_spec",
    "partition_collection",
    "recommend_shard_count",
    "register_backend",
    "resolve_backend",
]
