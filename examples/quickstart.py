"""Quickstart: index a small interval collection and run range queries.

Run with::

    python examples/quickstart.py

Covers the essentials of the unified engine API:

* opening an :class:`~repro.IntervalStore` over a collection (the backend
  registry picks and tunes the fully optimized HINT^m by default),
* fluent range, stabbing and Allen-relation queries,
* lazy result sets: ``count()``/``exists()`` without materialising ids,
* batch execution over a small workload,
* updates through the hybrid backend,
* choosing the ``m`` parameter with the paper's analytical model.
"""

from repro import (
    AllenRelation,
    DatasetStatistics,
    Interval,
    IntervalCollection,
    IntervalStore,
    Query,
    available_backends,
    estimate_m_opt,
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. build a store: employment periods of a handful of employees
    #    (the paper's introductory example: "find the employees who were
    #    employed sometime in [1/1/2021, 2/28/2021]"), days since 2020-01-01
    # ------------------------------------------------------------------ #
    employments = [
        Interval(id=1, start=0, end=365),      # full year 2020
        Interval(id=2, start=100, end=450),    # mid-2020 to early 2021
        Interval(id=3, start=380, end=720),    # 2021 only
        Interval(id=4, start=50, end=80),      # short stint in 2020
        Interval(id=5, start=400, end=420),    # three weeks in 2021
    ]
    store = IntervalStore.from_intervals(employments, num_bits=6)
    print(f"store: {store!r} (backends available: {', '.join(available_backends())})")

    # ------------------------------------------------------------------ #
    # 2. fluent queries against the default (fully optimized HINT^m) backend
    # ------------------------------------------------------------------ #
    employed = sorted(store.query().overlapping(366, 366 + 58).ids().tolist())
    print(f"employed sometime in Jan-Feb 2021: employees {employed}")

    # stabbing query: who was employed on day 60 of 2020?
    print(f"employed on day 60: employees {sorted(store.query().stabbing(60).ids().tolist())}")

    # lazy aggregates: no id list is materialised for these
    print(f"headcount in Jan-Feb 2021: {store.query().overlapping(366, 424).count()}")
    print(f"anyone active on day 900?  {store.query().stabbing(900).exists()}")

    # Allen-relation selection: employments fully contained in 2021
    contained = sorted(store.query().overlapping(366, 730).relation(AllenRelation.DURING).ids().tolist())
    print(f"employments strictly inside 2021: employees {contained}")

    # ------------------------------------------------------------------ #
    # 3. batch execution: one entry point for a whole workload
    # ------------------------------------------------------------------ #
    workload = [Query(0, 100), Query(366, 424), Query(700, 800)]
    batch = store.run_batch(workload, count_only=True)
    print(f"batch counts for {len(batch)} windows: {batch.counts}")

    # ------------------------------------------------------------------ #
    # 4. updates: the hybrid backend absorbs inserts in a delta structure
    # ------------------------------------------------------------------ #
    dynamic = IntervalStore.from_intervals(employments, backend="hintm_hybrid", num_bits=6)
    dynamic.insert(Interval(id=6, start=500, end=600))
    dynamic.delete(4)
    print(
        "after one insert and one delete, employed in Jan-Feb 2021:",
        sorted(dynamic.query().overlapping(366, 424).ids().tolist()),
    )

    # ------------------------------------------------------------------ #
    # 5. pick m for a real workload with the paper's model (Section 3.3);
    #    IntervalStore.open does this automatically when num_bits is omitted
    # ------------------------------------------------------------------ #
    stats = DatasetStatistics.from_collection(IntervalCollection.from_intervals(employments))
    m_opt = estimate_m_opt(stats, query_extent=0.001 * stats.domain_length)
    print(f"model-recommended m for this collection: {m_opt}")


if __name__ == "__main__":
    main()
