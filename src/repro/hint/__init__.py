"""The HINT family of indexes (the paper's contribution).

* :class:`repro.hint.comparison_free.ComparisonFreeHINT` -- Section 3.1.
* :class:`repro.hint.hintm.HINTm` -- Section 3.2 (base variant, top-down and
  bottom-up evaluation).
* :class:`repro.hint.subdivided.SubdividedHINTm` -- Section 4.1 (subdivisions,
  sorting, storage optimization).
* :class:`repro.hint.optimized.OptimizedHINTm` -- Sections 4.2/4.3 (sparse
  per-level merged tables, columnar id/endpoint decomposition).
* :class:`repro.hint.updates.HybridHINTm` -- Sections 3.4/4.4 (delta index +
  batch rebuilds for mixed workloads).
* :mod:`repro.hint.model` -- the analytical model of Sections 3.2.3/3.3.
"""

from repro.hint.comparison_free import ComparisonFreeHINT
from repro.hint.hintm import HINTm
from repro.hint.model import (
    CostModel,
    DatasetStatistics,
    estimate_m_opt,
    expected_comparison_partitions,
    expected_result_count,
    replication_factor,
)
from repro.hint.optimized import OptimizedHINTm
from repro.hint.partitioning import PartitionAssignment, partition_assignments, relevant_offsets
from repro.hint.statistics import WorkloadStatistics, collect_workload_statistics
from repro.hint.subdivided import SubdividedHINTm
from repro.hint.updates import HybridHINTm

__all__ = [
    "ComparisonFreeHINT",
    "CostModel",
    "DatasetStatistics",
    "HINTm",
    "HybridHINTm",
    "OptimizedHINTm",
    "PartitionAssignment",
    "SubdividedHINTm",
    "WorkloadStatistics",
    "collect_workload_statistics",
    "estimate_m_opt",
    "expected_comparison_partitions",
    "expected_result_count",
    "partition_assignments",
    "relevant_offsets",
    "replication_factor",
]
