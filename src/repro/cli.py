"""Command-line interface: index a CSV of intervals and run queries against it.

Examples::

    # one range query over a CSV with id,start,end rows
    python -m repro query data.csv --start 100 --end 200

    # a stabbing query, using the comparison-free HINT on a discrete domain
    python -m repro query data.csv --stab 150 --index hint_cf

    # run a whole query workload (start,end rows) through batch execution
    python -m repro batch data.csv queries.csv --count-only

    # shard the collection into 4 time ranges (queries probe only the
    # shards they overlap)
    python -m repro batch data.csv queries.csv --shards 4

    # same, with id batches fanned out over 4 worker processes
    python -m repro batch data.csv queries.csv --shards 4 --executor processes --workers 4

    # shard-scaling micro-benchmark over a CSV (throughput per K)
    python -m repro bench data.csv --num-queries 500 --shards 1 2 4

    # apply an update stream to a sharded hybrid, then run index maintenance
    python -m repro maintain data.csv --shards 4 --inserts 1000 --deletes 500

    # model-recommended shard count per execution strategy (no updates run)
    python -m repro maintain data.csv --recommend-only

    # serve the collection over JSON-over-HTTP (epoch snapshots, admission
    # control, invalidation-aware result cache)
    python -m repro serve data.csv --port 8080 --shards 4

    # register a standing query on a running server and follow its deltas
    python -m repro subscribe --port 8080 --start 100 --end 200

    # inspect a running server's slow-query log (cross-tier span trees)
    python -m repro slow-queries --port 8080 --limit 5

    # serve one shard of a cluster topology (slices the CSV to the shard's
    # residents), route queries across the whole cluster, keep a follower
    # warm off the leader's WAL, and promote it after a leader failure
    python -m repro cluster-serve topology.json data.csv --shard 0 --wal-dir wal0
    python -m repro route topology.json --start 100 --end 200
    python -m repro follow --leader-port 9000 --listen-port 9100
    python -m repro promote --port 9100

    # the available backends (engine registry)
    python -m repro list-backends

    # dataset statistics and the model-recommended m (Section 3.3)
    python -m repro stats data.csv

    # generate one of the evaluation datasets for experimentation
    python -m repro generate books --cardinality 10000 --output books.csv

The CLI is intentionally a thin wrapper over the library's
:class:`repro.engine.IntervalStore`; anything beyond ad-hoc exploration
should use the Python API directly.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.core.errors import InvalidQueryError
from repro.core.interval import IntervalCollection, Query
from repro.datasets.io import load_intervals_csv, save_intervals_csv
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.engine import IntervalStore, available_backends, backend_specs, get_spec
from repro.engine.executor import EXECUTOR_KINDS, _default_workers
from repro.engine.maintenance import (
    REBUILD_FRACTION,
    REBUILD_MIN_DELTA,
    recommend_shard_count,
)
from repro.engine.sharded import ShardedIndex
from repro.engine.sharding import PARTITION_STRATEGIES
from repro.durability.wal import FSYNC_POLICIES
from repro.hint.model import DatasetStatistics, estimate_m_opt, replication_factor

__all__ = ["main", "build_parser"]

_DEFAULT_INDEX = "hintm_opt"


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    #: --index accepts every canonical registry name plus the legacy aliases
    #: (composite backends excluded: sharding is selected with --shards)
    index_choices = [
        name
        for name in available_backends(include_aliases=True)
        if not get_spec(name).composite
    ]

    executor_names = [name for name, _ in EXECUTOR_KINDS]
    executor_help = "; ".join(f"{name}: {blurb}" for name, blurb in EXECUTOR_KINDS)

    def add_execution_args(sub: argparse.ArgumentParser) -> None:
        """--shards/--workers/--executor/..., shared by query/batch/maintain/serve."""
        sub.add_argument("--shards", type=int, default=1, metavar="K",
                         help="split the data into K time-range shards (default: 1)")
        sub.add_argument("--workers", type=int, default=None, metavar="W",
                         help="size of the process pool; needs --executor "
                              "processes (default: min(cores, 8))")
        sub.add_argument("--executor", choices=executor_names, default=None,
                         help=f"execution strategy -- {executor_help} "
                              "(default: serial)")
        sub.add_argument("--shard-strategy", choices=PARTITION_STRATEGIES,
                         default="equi_width",
                         help="how shard boundaries are chosen (default: %(default)s)")

    def add_durability_args(sub: argparse.ArgumentParser) -> None:
        """--wal-dir/--fsync, shared by maintain/serve (the update paths)."""
        sub.add_argument("--wal-dir", type=Path, default=None, metavar="DIR",
                         help="write-ahead-log directory: every insert/delete is "
                              "logged before it is applied, and a restart "
                              "replays checkpoint + WAL tail back to the last "
                              "acknowledged update (default: no durability)")
        sub.add_argument("--fsync", choices=FSYNC_POLICIES, default="interval",
                         help="WAL flush policy -- always: fsync per append "
                              "(no acked update lost, slowest); interval: "
                              "flush per append, fsync periodically; off: OS "
                              "flush only (default: %(default)s)")

    def add_maintenance_arg(sub: argparse.ArgumentParser) -> None:
        """--maintenance, shared by batch/bench: run a pass after the workload."""
        sub.add_argument("--maintenance", action="store_true",
                         help="run one maintenance pass after the workload: "
                              "rebuild hybrid indexes whose delta "
                              "or tombstones reached the rebuild rule, re-balance "
                              "skewed shard cuts, refresh the process snapshot")

    query = subparsers.add_parser("query", help="run a range or stabbing query over a CSV")
    query.add_argument("csv", type=Path, help="intervals file (id,start,end or start,end rows)")
    query.add_argument("--header", action="store_true", help="skip the first CSV row")
    query.add_argument("--index", choices=index_choices, default=_DEFAULT_INDEX,
                       metavar="BACKEND",
                       help="backend name from `repro list-backends` (default: %(default)s)")
    query.add_argument("--num-bits", type=int, default=None,
                       help="HINT^m m parameter (default: model-estimated)")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--stab", type=int, help="stabbing query point")
    group.add_argument("--start", type=int, help="range query start (use with --end)")
    query.add_argument("--end", type=int, help="range query end")
    query.add_argument("--count-only", action="store_true",
                       help="print only the result count (uses the counting fast path)")
    add_execution_args(query)

    batch = subparsers.add_parser(
        "batch", help="run a workload of range queries through batch execution"
    )
    batch.add_argument("csv", type=Path, help="intervals file")
    batch.add_argument("queries", type=Path, help="CSV of start,end rows (one query per row)")
    batch.add_argument("--header", action="store_true", help="skip the first row of both files")
    batch.add_argument("--index", choices=index_choices, default=_DEFAULT_INDEX,
                       metavar="BACKEND")
    batch.add_argument("--num-bits", type=int, default=None)
    batch.add_argument("--count-only", action="store_true",
                       help="print per-query counts instead of id lists")
    add_execution_args(batch)
    add_maintenance_arg(batch)

    bench = subparsers.add_parser(
        "bench", help="shard-scaling micro-benchmark: throughput per shard count"
    )
    bench.add_argument("csv", type=Path, help="intervals file")
    bench.add_argument("--header", action="store_true", help="skip the first CSV row")
    bench.add_argument("--index", choices=index_choices, default=_DEFAULT_INDEX,
                       metavar="BACKEND")
    bench.add_argument("--num-bits", type=int, default=None)
    bench.add_argument("--num-queries", type=int, default=1_000,
                       help="generated range queries per measurement (default: %(default)s)")
    bench.add_argument("--extent", type=float, default=0.001,
                       help="query extent as a fraction of the domain (default: %(default)s)")
    bench.add_argument("--repeats", type=int, default=2,
                       help="measurement passes; the best is reported (default: %(default)s)")
    bench.add_argument("--seed", type=int, default=123)
    bench.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4], metavar="K",
                       help="shard counts to sweep (default: 1 2 4)")
    bench.add_argument("--shard-strategy", choices=PARTITION_STRATEGIES,
                       default="equi_width")
    add_maintenance_arg(bench)

    maintain = subparsers.add_parser(
        "maintain",
        help="apply an update stream to an index, then run a maintenance pass",
    )
    maintain.add_argument("csv", type=Path, help="intervals file")
    maintain.add_argument("--header", action="store_true", help="skip the first CSV row")
    maintain.add_argument("--index", choices=index_choices, default="hintm_hybrid",
                          metavar="BACKEND",
                          help="per-shard backend (default: %(default)s -- the "
                               "update-friendly hybrid)")
    maintain.add_argument("--num-bits", type=int, default=None)
    maintain.add_argument("--inserts", type=int, default=1_000,
                          help="insertions in the generated update stream "
                               "(default: %(default)s)")
    maintain.add_argument("--deletes", type=int, default=500,
                          help="deletions in the generated update stream "
                               "(default: %(default)s)")
    maintain.add_argument("--queries", type=int, default=200,
                          help="queries interleaved with the updates "
                               "(default: %(default)s)")
    maintain.add_argument("--seed", type=int, default=99)
    maintain.add_argument("--force", action="store_true",
                          help="rebuild every shard with a non-empty delta and "
                               "refresh the snapshot even when clean")
    maintain.add_argument("--no-repartition", action="store_true",
                          help="disable skew-triggered cut re-balancing")
    maintain.add_argument("--recommend-only", action="store_true",
                          help="print the model-recommended shard count per "
                               "execution strategy and exit (no updates run)")
    maintain.add_argument("--checkpoint", action="store_true",
                          help="checkpoint the durable state after the "
                               "maintenance pass and truncate dead WAL "
                               "segments (requires --wal-dir)")
    add_execution_args(maintain)
    add_durability_args(maintain)
    maintain.set_defaults(shards=4)

    serve = subparsers.add_parser(
        "serve",
        help="serve the collection over JSON-over-HTTP (cache, admission control)",
    )
    serve.add_argument("csv", type=Path, help="intervals file")
    serve.add_argument("--header", action="store_true", help="skip the first CSV row")
    serve.add_argument("--index", choices=index_choices, default="hintm_hybrid",
                       metavar="BACKEND",
                       help="backend name (default: %(default)s -- the "
                            "update-friendly hybrid, so /insert and /delete work)")
    serve.add_argument("--num-bits", type=int, default=None)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free one (default: %(default)s)")
    serve.add_argument("--cache-size", type=int, default=1024, metavar="N",
                       help="result-cache capacity; 0 disables caching "
                            "(default: %(default)s)")
    serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                       help="admission bound: query requests in flight before "
                            "503s (default: %(default)s)")
    serve.add_argument("--max-batch", type=int, default=64, metavar="N",
                       help="/batch chunk size: queries per run_batch call, "
                            "each chunk one admission slot (default: %(default)s)")
    serve.add_argument("--max-poller-lag", type=int, default=None, metavar="N",
                       help="standing-query backpressure: a subscription whose "
                            "poller lags more than N retained delta records has "
                            "its log dropped and resyncs explicitly (default: "
                            "observe only)")
    add_execution_args(serve)
    add_durability_args(serve)
    serve.set_defaults(shards=4)

    subscribe = subparsers.add_parser(
        "subscribe",
        help="register a standing query on a running server and follow its deltas",
    )
    subscribe.add_argument("--host", default="127.0.0.1",
                           help="server address (default: %(default)s)")
    subscribe.add_argument("--port", type=int, default=8080,
                           help="server port (default: %(default)s)")
    sub_group = subscribe.add_mutually_exclusive_group(required=True)
    sub_group.add_argument("--stab", type=int, help="standing stabbing query point")
    sub_group.add_argument("--start", type=int,
                           help="standing range query start (use with --end)")
    subscribe.add_argument("--end", type=int, help="standing range query end")
    subscribe.add_argument("--relation", default=None, metavar="NAME",
                           help="restrict matches to one Allen relation with "
                                "the query range (e.g. during, overlaps)")
    subscribe.add_argument("--min-duration", type=int, default=0,
                           help="only intervals at least this long match")
    subscribe.add_argument("--max-duration", type=int, default=None,
                           help="only intervals at most this long match")
    subscribe.add_argument("--filter", default=None, metavar="JSON",
                           help="JSON predicate spec compiled server-side, "
                                "e.g. '{\"field\": \"duration\", \"op\": \">=\", "
                                "\"value\": 10}' with and/or/not combinators "
                                "over start/end/duration")
    subscribe.add_argument("--poll-timeout", type=float, default=10.0, metavar="S",
                           help="seconds one long-poll round waits "
                                "(default: %(default)s)")
    subscribe.add_argument("--duration", type=float, default=None, metavar="S",
                           help="stop after S seconds (default: until Ctrl-C)")

    cluster_serve = subparsers.add_parser(
        "cluster-serve",
        help="serve one shard replica of a cluster topology (slices the CSV "
             "to the shard's residents)",
    )
    cluster_serve.add_argument("topology", type=Path,
                               help="cluster topology JSON (cuts + replica "
                                    "endpoints per shard)")
    cluster_serve.add_argument("csv", type=Path, help="full intervals file; "
                               "the shard's resident slice is cut locally")
    cluster_serve.add_argument("--header", action="store_true",
                               help="skip the first CSV row")
    cluster_serve.add_argument("--shard", type=int, required=True, metavar="N",
                               help="which shard of the topology this node serves")
    cluster_serve.add_argument("--replica", type=int, default=0, metavar="R",
                               help="which replica slot; picks the bind "
                                    "host/port from the topology (default: 0)")
    cluster_serve.add_argument("--port", type=int, default=None,
                               help="override the topology's bind port "
                                    "(0 picks a free one)")
    cluster_serve.add_argument("--index", choices=index_choices,
                               default="hintm_hybrid", metavar="BACKEND",
                               help="backend name (default: %(default)s)")
    cluster_serve.add_argument("--num-bits", type=int, default=None)
    cluster_serve.add_argument("--cache-size", type=int, default=1024, metavar="N",
                               help="result-cache capacity (default: %(default)s)")
    cluster_serve.add_argument("--max-pending", type=int, default=64, metavar="N")
    cluster_serve.add_argument("--max-batch", type=int, default=64, metavar="N")
    add_durability_args(cluster_serve)

    route = subparsers.add_parser(
        "route",
        help="run queries against a cluster topology through the front-tier "
             "router (fan-out, merge, replica failover)",
    )
    route.add_argument("topology", type=Path, help="cluster topology JSON")
    route_group = route.add_mutually_exclusive_group(required=True)
    route_group.add_argument("--stab", type=int, help="stabbing query point")
    route_group.add_argument("--start", type=int,
                             help="range query start (use with --end)")
    route.add_argument("--end", type=int, help="range query end")
    route.add_argument("--count-only", action="store_true",
                       help="sum per-shard counts instead of shipping ids: "
                            "each later shard counts [cut, end] minus a stab "
                            "at cut - 1, the residents starting in [cut, end]")
    route.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="send the query N times (exercises the router "
                            "cache; default: 1)")
    route.add_argument("--cache-size", type=int, default=1024, metavar="N",
                       help="router result-cache capacity; 0 disables "
                            "(default: %(default)s)")
    route.add_argument("--cache-ttl", type=float, default=None, metavar="S",
                       help="expire router-cached answers older than S seconds "
                            "(default: no TTL)")

    follow = subparsers.add_parser(
        "follow",
        help="run a warm standby: bootstrap from a leader checkpoint, tail "
             "its WAL, serve reads, take over on promote",
    )
    follow.add_argument("--leader-host", default="127.0.0.1",
                        help="leader shard server host (default: %(default)s)")
    follow.add_argument("--leader-port", type=int, required=True,
                        help="leader shard server port")
    follow.add_argument("--listen-host", default="127.0.0.1",
                        help="bind address of the follower's read-only server")
    follow.add_argument("--listen-port", type=int, default=0,
                        help="bind port; 0 picks a free one (default: 0)")
    follow.add_argument("--index", choices=index_choices, default="hintm_hybrid",
                        metavar="BACKEND",
                        help="follower store backend (default: %(default)s)")
    follow.add_argument("--shard", type=int, default=0, metavar="N",
                        help="topology shard this standby covers (default: 0)")
    follow.add_argument("--poll-timeout", type=float, default=5.0, metavar="S",
                        help="long-poll window per /wal-feed round "
                             "(default: %(default)s)")

    promote = subparsers.add_parser(
        "promote",
        help="flip a read-only follower into the serving leader (POST /promote)",
    )
    promote.add_argument("--host", default="127.0.0.1",
                         help="follower server host (default: %(default)s)")
    promote.add_argument("--port", type=int, required=True,
                         help="follower server port")

    slow = subparsers.add_parser(
        "slow-queries",
        help="dump a running server's slow-query log (per-query span trees)",
    )
    slow.add_argument("--host", default="127.0.0.1",
                      help="server address (default: %(default)s)")
    slow.add_argument("--port", type=int, default=8080,
                      help="server port (default: %(default)s)")
    slow.add_argument("--limit", type=int, default=None, metavar="N",
                      help="most recent N entries (default: everything retained)")
    slow.add_argument("--json", action="store_true",
                      help="raw JSON body instead of rendered span trees")

    subparsers.add_parser("list-backends", help="list the registered index backends")

    stats = subparsers.add_parser("stats", help="dataset statistics and model-recommended m")
    stats.add_argument("csv", type=Path)
    stats.add_argument("--header", action="store_true")
    stats.add_argument("--query-extent", type=float, default=0.001,
                       help="query extent (fraction of the domain) for the m_opt model")

    generate = subparsers.add_parser("generate", help="generate an evaluation dataset as CSV")
    generate.add_argument(
        "profile",
        choices=[name.lower() for name in REAL_DATASET_PROFILES] + ["synthetic"],
        help="which dataset shape to generate",
    )
    generate.add_argument("--cardinality", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--alpha", type=float, default=1.2, help="synthetic only")
    generate.add_argument("--sigma", type=float, default=10_000.0, help="synthetic only")
    generate.add_argument("--domain", type=int, default=1_000_000, help="synthetic only")
    generate.add_argument("--output", type=Path, required=True)
    return parser


def _load(path: Path, has_header: bool) -> IntervalCollection:
    collection = load_intervals_csv(path, has_header=has_header)
    if not len(collection):
        raise SystemExit(f"error: {path} contains no intervals")
    return collection


def _open_store(
    name: str,
    collection: IntervalCollection,
    num_bits: Optional[int],
    query_extent: Optional[int] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    shard_strategy: str = "equi_width",
    wal_dir: Optional[Path] = None,
    fsync: str = "interval",
) -> IntervalStore:
    """Build an :class:`IntervalStore`, auto-tuning ``m`` when not given.

    ``shards > 1`` wraps a :class:`repro.engine.ShardedIndex` over
    ``name`` (``shards < 1`` exits with an error); ``executor`` names the
    execution strategy (serial/processes) and ``workers`` sizes the process
    pool.
    """
    opts = {}
    spec = get_spec(name)
    if spec.tunable:
        if num_bits is not None:
            opts["num_bits"] = num_bits
        else:
            opts["num_bits"] = "auto"
            if query_extent is not None:
                opts["query_extent"] = max(query_extent, 1)
    elif spec.discrete_domain:
        if num_bits is not None:
            opts["num_bits"] = num_bits
    elif num_bits is not None:
        raise SystemExit(f"error: backend {name!r} does not take --num-bits")
    try:
        return IntervalStore.open(
            collection,
            backend=name,
            num_shards=shards,
            strategy=shard_strategy,
            workers=workers,
            executor=executor,
            wal_dir=str(wal_dir) if wal_dir is not None else None,
            fsync=fsync,
            **opts,
        )
    except InvalidQueryError as exc:  # --shards below 1
        raise SystemExit(f"error: {exc}") from exc


def _command_query(args: argparse.Namespace) -> int:
    collection = _load(args.csv, args.header)
    if args.stab is not None:
        query = Query.stabbing(args.stab)
    else:
        if args.end is None:
            raise SystemExit("error: --start requires --end")
        query = Query(args.start, args.end)

    build_start = time.perf_counter()
    store = _open_store(
        args.index,
        collection,
        args.num_bits,
        query_extent=query.extent,
        shards=args.shards,
        workers=args.workers,
        executor=args.executor,
        shard_strategy=args.shard_strategy,
    )
    build_seconds = time.perf_counter() - build_start

    builder = store.query()
    if query.is_stabbing:
        builder.stabbing(query.start)
    else:
        builder.overlapping(query.start, query.end)
    results = builder.build()

    query_start = time.perf_counter()
    if args.count_only:
        # the lazy path: backends count without materialising id lists
        output: List[str] = [str(results.count())]
    else:
        output = [str(interval_id) for interval_id in sorted(results.ids().tolist())]
    query_seconds = time.perf_counter() - query_start
    store.close()

    print(
        f"# index={_describe_store(store)} built in {build_seconds:.3f}s, "
        f"query in {query_seconds * 1000:.2f}ms"
    )
    for line in output:
        print(line)
    return 0


def _load_queries(path: Path, has_header: bool) -> List[Query]:
    """Read start,end rows (optionally id,start,end) as a query workload."""
    rows = load_intervals_csv(path, has_header=has_header)
    return [Query(int(start), int(end)) for start, end in zip(rows.starts, rows.ends)]


def _command_batch(args: argparse.Namespace) -> int:
    collection = _load(args.csv, args.header)
    queries = _load_queries(args.queries, args.header)
    if not queries:
        raise SystemExit(f"error: {args.queries} contains no queries")

    store = _open_store(
        args.index,
        collection,
        args.num_bits,
        shards=args.shards,
        workers=args.workers,
        executor=args.executor,
        shard_strategy=args.shard_strategy,
    )
    batch = store.run_batch(queries, count_only=args.count_only)
    maintenance_line = _run_maintenance(store, args.maintenance)
    store.close()
    if maintenance_line:
        print(maintenance_line)
    if args.count_only:
        for count in batch.counts:
            print(count)
    else:
        for ids in batch.ids or []:
            print(" ".join(str(interval_id) for interval_id in sorted(ids.tolist())))
    print(
        f"# index={_describe_store(store)} answered {len(batch)} queries in "
        f"{batch.seconds:.3f}s ({batch.queries_per_second:,.0f} q/s, "
        f"{batch.total_results} results)"
    )
    return 0


def _run_maintenance(store: IntervalStore, enabled: bool) -> Optional[str]:
    """Run one maintenance pass when ``--maintenance`` asked for it."""
    if not enabled:
        return None
    return f"# maintenance: {store.maintain().summary()}"


def _describe_store(store: IntervalStore) -> str:
    """Short execution description: backend plus sharding, when in play."""
    index = store.index
    if isinstance(index, ShardedIndex):
        executor = "serial" if index.executor is None else index.executor.name
        return f"{index.backend}[K={index.num_shards},{executor}]"
    return store.backend


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import measure_throughput
    from repro.queries.generator import QueryWorkloadConfig, generate_queries

    collection = _load(args.csv, args.header)
    queries = generate_queries(
        collection,
        QueryWorkloadConfig(
            count=args.num_queries, extent_fraction=args.extent, seed=args.seed
        ),
    )
    rows = []
    for shards in args.shards:
        build_start = time.perf_counter()
        store = _open_store(
            args.index,
            collection,
            args.num_bits,
            shards=shards,
            shard_strategy=args.shard_strategy,
        )
        build_seconds = time.perf_counter() - build_start
        timing = measure_throughput(store.index, queries, repeats=args.repeats)
        rows.append((shards, build_seconds, timing))
        maintenance_line = _run_maintenance(store, args.maintenance)
        if maintenance_line:
            print(f"# K={shards} {maintenance_line[2:]}")
        store.close()
    # speedups are relative to the K=1 row (first row when 1 wasn't swept)
    baseline = next((r[2]["qps"] for r in rows if r[0] == 1), rows[0][2]["qps"] if rows else 0.0)
    print("shards   build[s]      q/s  speedup  p50[ms]  p95[ms]  p99[ms]")
    for shards, build_seconds, timing in rows:
        speedup = timing["qps"] / baseline if baseline else 0.0
        print(
            f"{shards:6d}  {build_seconds:9.3f}  {timing['qps']:7,.0f}  {speedup:6.2f}x  "
            f"{timing['p50'] * 1000:7.3f}  {timing['p95'] * 1000:7.3f}  "
            f"{timing['p99'] * 1000:7.3f}"
        )
    return 0


def _command_maintain(args: argparse.Namespace) -> int:
    from repro.engine.maintenance import MaintenanceConfig
    from repro.queries.workload import Operation, generate_mixed_workload

    collection = _load(args.csv, args.header)

    if args.recommend_only:
        print("model-recommended shard count (extended Section 3.3 cost model):")
        cores = args.workers if args.workers is not None else _default_workers()
        for executor_name, _ in EXECUTOR_KINDS:
            recommended = recommend_shard_count(
                collection, args.index, executor=executor_name, workers=cores
            )
            print(f"  {executor_name:<10s} K={recommended}  (workers={cores})")
        return 0

    # the Table 10 recipe: index the first 90%, insert from the remaining
    # 10%, delete random indexed ids, interleave queries
    workload = generate_mixed_workload(
        collection,
        num_queries=args.queries,
        num_insertions=args.inserts,
        num_deletions=args.deletes,
        seed=args.seed,
    )
    if args.checkpoint and args.wal_dir is None:
        raise SystemExit("error: --checkpoint requires --wal-dir")
    store = _open_store(
        args.index,
        workload.preload,
        args.num_bits,
        shards=args.shards,
        workers=args.workers,
        executor=args.executor,
        shard_strategy=args.shard_strategy,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
    )
    applied = {Operation.QUERY: 0, Operation.INSERT: 0, Operation.DELETE: 0}
    stream_start = time.perf_counter()
    for operation, payload in workload.operations:
        if operation is Operation.QUERY:
            store.query().overlapping(payload.start, payload.end).count()
        elif operation is Operation.INSERT:
            store.insert(payload)
        else:
            store.delete(payload)
        applied[operation] += 1
    stream_seconds = time.perf_counter() - stream_start
    total_ops = sum(applied.values())
    print(
        f"# applied {applied[Operation.INSERT]} inserts, "
        f"{applied[Operation.DELETE]} deletes, {applied[Operation.QUERY]} queries "
        f"in {stream_seconds:.3f}s ({total_ops / stream_seconds:,.0f} ops/s)"
        if stream_seconds
        else f"# applied {total_ops} operations"
    )
    coordinator = store.maintenance(
        config=MaintenanceConfig(repartition=not args.no_repartition)
    )
    _print_maintenance_state("before", coordinator.state())
    report = coordinator.maintain(force=args.force, checkpoint=args.checkpoint)
    print(f"# maintain: {report.summary()}")
    _print_maintenance_state("after", coordinator.state())
    store.close()
    return 0


def _print_maintenance_state(label: str, state: dict) -> None:
    interesting = (
        "pending",
        "delta_per_shard",
        "copies_per_shard",
        "cuts",
        "snapshot_generation",
        "snapshot_published",
        "update_dirty",
        "last_rebuild",
        "delta_size",
        "wal_segments",
        "wal_bytes",
        "last_checkpoint_generation",
        "durability_degraded",
    )
    print(f"maintenance state ({label}):")
    for key in interesting:
        if key in state:
            print(f"  {key:<20s} {state[key]}")


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import QueryServer

    collection = _load(args.csv, args.header)
    store = _open_store(
        args.index,
        collection,
        args.num_bits,
        shards=args.shards,
        workers=args.workers,
        executor=args.executor,
        shard_strategy=args.shard_strategy,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
    )
    if args.wal_dir is not None:
        durability = store.durability
        if durability is not None:
            wal_state = durability.state()
            print(
                f"# durable: wal_dir={wal_state['wal_dir']} "
                f"fsync={wal_state['fsync_policy']} "
                f"replayed {wal_state['replayed_records']} WAL records, "
                f"checkpoint @ generation "
                f"{wal_state['last_checkpoint_generation']}"
            )
    server = QueryServer(
        store,
        host=args.host,
        port=args.port,
        cache=args.cache_size,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        max_poller_lag=args.max_poller_lag,
        # a recovery-restored standing-query manager (subscriptions and
        # their ack positions survive the restart); None = lazy fresh one
        stream=store.restored_stream,
    )
    print(
        f"# serving {len(store)} intervals ({_describe_store(store)}) "
        f"-- Ctrl-C to drain and stop"
    )
    try:
        # run() drains on Ctrl-C: admitted requests finish, then the
        # listener closes -- the banner's promise, kept
        server.run(
            on_started=lambda s: print(f"# listening on {s.address}", flush=True)
        )
    finally:
        store.close()
    return 0


def _command_subscribe(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import StreamClient

    if args.stab is None and args.end is None:
        raise SystemExit("error: --start requires --end")
    filter_spec = None
    if args.filter is not None:
        try:
            filter_spec = _json.loads(args.filter)
        except ValueError as exc:
            raise SystemExit(f"error: --filter is not valid JSON: {exc}")
    client = StreamClient(host=args.host, port=args.port)
    deadline = (time.monotonic() + args.duration) if args.duration else None
    with client:
        snapshot = client.subscribe(
            args.start,
            args.end,
            stab=args.stab,
            relation=args.relation,
            min_duration=args.min_duration,
            max_duration=args.max_duration,
            filter=filter_spec,
        )
        print(
            f"# subscription {snapshot['subscription_id']} @ generation "
            f"{snapshot['generation']}: {snapshot['count']} matching intervals"
        )
        print("# snapshot:", " ".join(str(i) for i in sorted(client.ids())))
        try:
            while deadline is None or time.monotonic() < deadline:
                event = client.poll(timeout=args.poll_timeout)
                if event.get("resynced"):
                    print(
                        f"# resynced @ generation {client.generation}: "
                        f"{len(client.ids())} matching intervals"
                    )
                    continue
                for delta in event.get("deltas", ()):
                    print(
                        f"generation {delta['generation']}"
                        f"{' (coalesced)' if delta.get('coalesced') else ''}: "
                        f"+{delta['added']} -{delta['removed']} "
                        f"-> {len(client.ids())} matching"
                    )
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        client.unsubscribe()
        print(f"# unsubscribed after {client.resyncs} resyncs")
    return 0


def _command_cluster_serve(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterTopology, ShardServer
    from repro.engine.sharding import shard_mask

    topology = ClusterTopology.load(args.topology)
    if not 0 <= args.shard < topology.num_shards:
        raise SystemExit(
            f"error: --shard {args.shard} out of range for "
            f"{topology.num_shards}-shard topology"
        )
    replicas = topology.replicas_for(args.shard)
    if not 0 <= args.replica < len(replicas):
        raise SystemExit(
            f"error: --replica {args.replica} out of range; shard "
            f"{args.shard} lists {len(replicas)} replicas"
        )
    endpoint = replicas[args.replica]
    collection = _load(args.csv, args.header)
    plan = topology.plan()
    sliced = collection.take(shard_mask(collection, plan.cuts, args.shard))
    store = _open_store(
        args.index,
        collection=sliced,
        num_bits=args.num_bits,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
    )
    server = ShardServer(
        store,
        host=endpoint.host,
        port=endpoint.port if args.port is None else args.port,
        shard_id=args.shard,
        plan=plan,
        cache=args.cache_size,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        stream=store.restored_stream,
    )
    print(
        f"# shard {args.shard} replica {args.replica}: {len(store)} resident "
        f"intervals of {len(collection)} ({_describe_store(store)}) -- "
        "Ctrl-C to drain and stop"
    )
    try:
        server.run(
            on_started=lambda s: print(f"# listening on {s.address}", flush=True)
        )
    finally:
        store.close()
    return 0


def _command_route(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterRouter, ClusterTopology
    from repro.serve.cache import ResultCache

    if args.stab is None and args.end is None:
        raise SystemExit("error: --start requires --end")
    start, end = (args.stab, args.stab) if args.stab is not None else (args.start, args.end)
    topology = ClusterTopology.load(args.topology)
    cache = ResultCache(capacity=args.cache_size, ttl=args.cache_ttl)
    with ClusterRouter(topology, cache=cache) as router:
        elapsed = []
        for _ in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            answer = router.query(start, end, count_only=args.count_only)
            elapsed.append(time.perf_counter() - t0)
        first, last = topology.plan().shard_range(start, end)
        print(
            f"# topology: {topology.num_shards} shards, query overlaps "
            f"shards {first}..{last}"
        )
        if args.count_only:
            print(f"count: {answer['count']}")
        else:
            print(f"count: {answer['count']}")
            print("ids:", " ".join(str(i) for i in answer["ids"]))
        stats = router.stats()
        print(
            f"# {len(elapsed)} round(s): first {elapsed[0] * 1e3:.2f} ms, "
            f"last {elapsed[-1] * 1e3:.2f} ms; cache hits "
            f"{stats['cache']['hits']}, probes {stats['probes']}, "
            f"failovers {stats['failovers']}"
        )
    return 0


def _command_follow(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterFollower

    follower = ClusterFollower(
        args.leader_host,
        args.leader_port,
        backend=args.index,
        shard_id=args.shard,
        host=args.listen_host,
        port=args.listen_port,
        poll_timeout=args.poll_timeout,
    )
    follower.start()
    print(
        f"# following {args.leader_host}:{args.leader_port} from generation "
        f"{follower.applied_generation()}; read-only replica listening on "
        f"http://{args.listen_host}:{follower.port}",
        flush=True,
    )
    print("# promote with: repro promote --port "
          f"{follower.port} (or POST /promote)", flush=True)
    try:
        while not follower.promoted:
            time.sleep(0.5)
        print(
            f"# promoted at generation {follower.applied_generation()}; "
            "serving as leader -- Ctrl-C to stop",
            flush=True,
        )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        follower.stop()
    return 0


def _command_promote(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServerError

    with ServeClient(host=args.host, port=args.port) as client:
        try:
            result = client.request("POST", "/promote")
        except ServerError as exc:
            raise SystemExit(f"error: promote refused: {exc}")
        print(
            f"promoted: role={result.get('role')} "
            f"generation={result.get('generation')}"
        )
    return 0


def _print_span(node: dict, depth: int) -> None:
    tags = node.get("tags") or {}
    tag_text = " ".join(f"{key}={value}" for key, value in tags.items())
    line = f"{'  ' * depth}{node.get('name')}  {node.get('duration_ms', 0.0):.2f}ms"
    print(f"{line}  [{tag_text}]" if tag_text else line)
    for child in node.get("children") or []:
        _print_span(child, depth + 1)


def _command_slow_queries(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient

    client = ServeClient(args.host, args.port, timeout=10.0)
    try:
        body = client.slow_queries(limit=args.limit)
    finally:
        client.close()
    if args.json:
        print(json.dumps(body, indent=2))
        return 0
    entries = body.get("slow_queries") or []
    print(
        f"# slow-query log: threshold {body.get('threshold_s')}s, "
        f"{body.get('recorded')} recorded, showing {len(entries)}"
    )
    for entry in entries:
        print(
            f"{entry.get('endpoint')}  {entry.get('duration_ms', 0.0):.1f}ms  "
            f"args={json.dumps(entry.get('args') or {})}  "
            f"tags={json.dumps(entry.get('tags') or {})}"
        )
        for root in entry.get("trace") or []:
            _print_span(root, 1)
    return 0


def _command_list_backends(args: argparse.Namespace) -> int:
    rows = [
        (
            spec.name,
            ", ".join(spec.aliases) or "-",
            spec.cls.__name__,
            spec.paper_section or "-",
            spec.description,
        )
        for spec in backend_specs()
    ]
    headers = ("name", "aliases", "class", "paper section", "description")
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]
    print("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print()
    print("executors (--executor on query/batch/maintain/serve):")
    for name, blurb in EXECUTOR_KINDS:
        print(f"  {name:<10s} {blurb}")
    print()
    print("maintenance (repro maintain, --maintenance on batch/bench):")
    print(f"  rebuild    a hybrid shard rebuilds once its delta or its tombstones "
          f"reach {REBUILD_FRACTION:.0%} of its main index and {REBUILD_MIN_DELTA}+ "
          "intervals (--force: any of either)")
    print()
    print("serving (repro serve):")
    print("  cache        LRU keyed on the query; an update evicts the cached "
          "ranges it overlaps, an epoch publication clears it")
    print("  admission    bounded in-flight queue; overload answers 503 + "
          "Retry-After instead of queueing unboundedly")
    print()
    print("durability (--wal-dir/--fsync on serve/maintain; "
          "repro maintain --checkpoint):")
    print("  wal          segmented checksummed append-before-apply log; "
          "fsync policy: " + "/".join(FSYNC_POLICIES))
    print("  checkpoint   atomic live-set + generation + subscription "
          "snapshot; truncates dead WAL segments")
    print("  recovery     reopen replays checkpoint + log tail exactly; torn "
          "tails heal, mid-sequence damage refuses")
    print("  degraded     a failing WAL flips the store read-only (503 on "
          "updates) until reopened from the WAL directory")
    print()
    print("cluster tier (repro cluster-serve / route / follow / promote):")
    print("  shard server one node owning a shard's residents; adds "
          "/shard-batch, /cluster-info, /checkpoint, /wal-feed, /promote")
    print("  router       front tier: plan with the shared cuts, fan out, "
          "merge with domain-order dedup, fail over between replicas")
    print("  route cache  keyed on (query, per-shard generation tokens) "
          "piggybacked on every response; --cache-ttl bounds staleness")
    print("  follower     warm standby: leader checkpoint bootstrap + "
          "continuous WAL replay; /promote serves the applied prefix")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    collection = _load(args.csv, args.header)
    stats = DatasetStatistics.from_collection(collection)
    extent = args.query_extent * stats.domain_length
    m_opt = estimate_m_opt(stats, extent)
    print(f"cardinality:        {stats.cardinality}")
    print(f"domain length:      {stats.domain_length}")
    print(f"domain bits (m'):   {stats.domain_bits}")
    print(f"mean duration:      {stats.mean_interval_length:.2f}")
    print(f"mean duration (%):  {100 * stats.mean_interval_length / max(stats.domain_length, 1):.4f}")
    print(f"model m_opt:        {m_opt}")
    print(f"predicted k at m_opt: {replication_factor(stats, m_opt):.3f}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if args.profile == "synthetic":
        collection = generate_synthetic(
            SyntheticConfig(
                domain_length=args.domain,
                cardinality=args.cardinality,
                alpha=args.alpha,
                sigma=args.sigma,
                seed=args.seed,
            )
        )
    else:
        profile = REAL_DATASET_PROFILES[args.profile.upper()]
        collection = generate_real_like(profile, cardinality=args.cardinality, seed=args.seed)
    save_intervals_csv(collection, args.output)
    print(f"wrote {len(collection)} intervals to {args.output}")
    return 0


_COMMANDS = {
    "query": _command_query,
    "batch": _command_batch,
    "bench": _command_bench,
    "maintain": _command_maintain,
    "serve": _command_serve,
    "subscribe": _command_subscribe,
    "cluster-serve": _command_cluster_serve,
    "route": _command_route,
    "follow": _command_follow,
    "promote": _command_promote,
    "slow-queries": _command_slow_queries,
    "list-backends": _command_list_backends,
    "stats": _command_stats,
    "generate": _command_generate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers not in (None, 1) and getattr(args, "executor", None) != "processes":
        parser.error(
            f"--workers {workers} sizes the process pool: add --executor processes"
        )
    handler = _COMMANDS.get(args.command)
    if handler is None:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
        return 2
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
