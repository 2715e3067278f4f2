"""Analytical cost model for HINT^m (paper Sections 3.2.3 and 3.3).

The model estimates, from simple dataset statistics (cardinality ``n``, mean
interval length ``lambda_s``, mean query extent ``lambda_q`` and the raw
domain length ``Lambda``):

* the expected replication factor ``k`` -- the average number of partitions
  an interval is assigned to (Theorem 1),
* the expected number of partitions requiring comparisons (Lemma 4: at most
  four, fewer when the query is shorter than a bottom-level partition),
* the expected number of query results ``|Q| = n * (lambda_s + lambda_q) /
  Lambda`` (the selectivity estimate of [28] the paper relies on),
* the priced cost of one query at a given ``m`` and, from it, ``m_opt``: the
  ``m`` that minimises that cost.

The paper's Section 3.3 trades two terms: comparisons in the two bottom
boundary partitions (``C_cmp``, shrinking as ``2n / 2^m``) against reporting
results from comparison-free partitions (``C_acc``).  In C, both are per-item
costs and a level visited costs nothing worth modelling, so the cost falls
monotonically towards ``m = m'`` and the paper picks the smallest ``m``
within a tolerance of it.  In Python a level is not free: visiting one
(finding its first and last relevant partitions in the directory and
reading the runs they delimit in each subdivision class) costs interpreter
and NumPy dispatch, a fixed price per level.  :class:`CostModel` adds that
price, ``C_walk = BETA_LEVEL * (m + 1)``, beside ``C_cmp`` and ``C_acc``;
the priced cost then has a minimum, and :func:`estimate_m_opt` returns it.

The three per-unit prices are constants (:data:`BETA_LEVEL`,
:data:`BETA_CMP`, :data:`BETA_ACC`), calibrated once and written here, so
``m`` is a function of the dataset's statistics alone: nothing is timed
when an index is opened.  ``num_bits="auto"``, the adaptive shard count and
the paper's Table 7 all use this one model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.interval import IntervalCollection

__all__ = [
    "CostModel",
    "DatasetStatistics",
    "estimate_m_opt",
    "expected_comparison_partitions",
    "expected_result_count",
    "replication_factor",
]


@dataclass(frozen=True)
class DatasetStatistics:
    """The statistics the Section 3.3 model needs.

    Attributes:
        cardinality: number of intervals ``n``.
        mean_interval_length: ``lambda_s``.
        domain_length: ``Lambda`` -- length of the raw domain spanned by the data.
        domain_bits: ``m'`` -- bits needed to represent the raw domain exactly.
    """

    cardinality: int
    mean_interval_length: float
    domain_length: int
    domain_bits: int

    @classmethod
    def from_collection(cls, collection: IntervalCollection) -> "DatasetStatistics":
        """Compute the statistics of a collection."""
        domain_length = max(1, collection.domain_length())
        return cls(
            cardinality=len(collection),
            mean_interval_length=collection.mean_duration(),
            domain_length=domain_length,
            domain_bits=max(1, int(domain_length).bit_length()),
        )


def replication_factor(stats: DatasetStatistics, m: int) -> float:
    """Expected replication factor ``k`` of HINT^m (Theorem 1).

    ``k = log2(2^(log2(lambda) - m' + m) + 1)``: the number of levels an
    average interval is assigned to, which is also the average number of
    partitions per interval because each level receives one partition in
    expectation (Lemma 3).
    """
    lam = max(stats.mean_interval_length, 1.0)
    exponent = math.log2(lam) - stats.domain_bits + m
    return max(1.0, math.log2(2.0**exponent + 1.0))


def expected_result_count(stats: DatasetStatistics, query_extent: float) -> float:
    """Expected number of range-query results ``|Q|`` (selectivity model of [28])."""
    return (
        stats.cardinality
        * (stats.mean_interval_length + query_extent)
        / max(stats.domain_length, 1)
    )


def expected_comparison_partitions(m: int, query_extent: float, domain_length: int) -> float:
    """Expected number of partitions requiring comparisons (Lemma 4).

    For long queries the expectation converges to ``2 + 1 + 0.5 + ... = 4``.
    When the query is shorter than a bottom-level partition the first and last
    relevant partitions often coincide, so the expectation is reduced
    accordingly (never below 1).
    """
    partition_extent = max(domain_length, 1) / float(1 << m)
    if query_extent >= partition_extent:
        return 4.0
    # probability that the query spans two bottom-level partitions
    p_two = query_extent / partition_extent
    bottom = 1.0 + p_two
    # each level above halves the chance that a boundary partition still
    # requires comparisons
    upper = sum(p_two * (0.5**i) for i in range(1, m + 1))
    return min(4.0, bottom + upper)


#: The model's prices (seconds), calibrated once on CPython 3.11 and NumPy
#: 2.4 (a 2-core x86-64 VM) against ``scripts/m_sweep.py`` -- seed 1, the
#: datasets of the three gated workloads, m = 8..16, 20 paired rounds -- by
#: a least-squares fit of ``C_walk + C_cmp + C_acc`` (plus one constant per
#: dataset) to the per-query cost of 500-query batches.  The batch is the
#: path whose cost has an interior minimum: a lone query's cost falls with
#: every level removed, so building at the batch's minimum gives up no
#: throughput, and any larger ``m`` costs both paths more.
BETA_LEVEL = 8.4e-7
BETA_CMP = 1.4e-8
BETA_ACC = 7e-10


@dataclass(frozen=True)
class CostModel:
    """The query-cost model of Section 3.3, with the walk priced at
    :data:`BETA_LEVEL`, :data:`BETA_CMP` and :data:`BETA_ACC`.

    Attributes:
        stats: dataset statistics.
    """

    stats: DatasetStatistics

    def walk_cost(self, m: int) -> float:
        """``C_walk``: the ``m + 1`` levels a query visits."""
        return BETA_LEVEL * (m + 1)

    def comparison_cost(self, m: int) -> float:
        """``C_cmp``: comparisons dominated by two bottom-level partitions."""
        per_partition = self.stats.cardinality / float(1 << m)
        return BETA_CMP * 2.0 * per_partition

    def access_cost(self, m: int, query_extent: float) -> float:
        """``C_acc``: results reported from comparison-free partitions."""
        expected_results = expected_result_count(self.stats, query_extent)
        comparison_results = 2.0 * self.stats.cardinality / float(1 << m)
        return BETA_ACC * max(0.0, expected_results - comparison_results)

    def query_cost(self, m: int, query_extent: float) -> float:
        """Total priced cost ``C_walk + C_cmp + C_acc`` of one query."""
        return (
            self.walk_cost(m)
            + self.comparison_cost(m)
            + self.access_cost(m, query_extent)
        )

    def space_cost(self, m: int) -> float:
        """Expected stored entries (``n * k``), a proxy for the index footprint."""
        return self.stats.cardinality * replication_factor(self.stats, m)


def estimate_m_opt(
    stats: DatasetStatistics, query_extent: float, max_m: Optional[int] = None
) -> int:
    """``m_opt``: the ``m`` in ``1 .. m'`` (or ``max_m``) that minimises the
    priced cost of :class:`CostModel`, ties going to the smaller ``m``.

    The walk's price grows linearly with ``m`` while the comparisons'
    shrinks geometrically, so the minimum lies where one more level saves
    fewer comparisons than it costs: at the first ``m`` with ``2^m >= n *
    (BETA_CMP - BETA_ACC) / BETA_LEVEL`` (while ``2n / 2^m`` is below the
    expected result count), whatever the domain's resolution ``m'``.
    """
    model = CostModel(stats=stats)
    upper = stats.domain_bits if max_m is None else min(max_m, stats.domain_bits)
    return min(
        range(1, max(1, upper) + 1),
        key=lambda m: (model.query_cost(m, query_extent), m),
    )
