"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print the emulated dataset statistics (the Table 4 analogue).
``fsim GRAPH1 GRAPH2``
    Compute fractional chi-simulation scores between two graphs stored
    in the v/e text format of :mod:`repro.graph.io` and print the top
    pairs.
``topk GRAPH1 GRAPH2 --query U [--query U2 ...]``
    Certified top-k similarity search (Theorem-1 early termination).
    All queries share one iteration loop -- and, on the numpy backend,
    one compiled arena -- so a batch costs about one computation.
``stream GRAPH1 GRAPH2 --script EDITS``
    Replay a textual edit script against GRAPH1/GRAPH2 while maintaining
    the FSim scores incrementally (:mod:`repro.streaming`).  One op per
    line -- ``add_node N L``, ``add_edge U V``, ``remove_edge U V``,
    ``remove_node N``, ``set_label N L`` -- with an optional leading
    ``g1`` / ``g2`` target (default ``g1``); ``--batch`` groups ops into
    recompute batches.  The default ``replay`` mode is bitwise identical
    to recomputing from scratch after every batch.
``experiment NAME``
    Run one experiment driver (table2, table5, table6, table7, table8,
    table9, fig4a, fig4b, fig5, fig6a, fig6b, fig7, fig8, fig9a, fig9b,
    efficiency) and print its rendered output.
``examples``
    List the runnable example scripts.
``serve --graph NAME=PATH ...``
    Run the long-lived FSim query service (:mod:`repro.service`):
    registered graphs stay resident with their compiled state, and
    concurrent ``fsim`` / ``topk`` / ``matrix`` requests micro-batch
    into the shared library calls.  ``--snapshot-dir`` restores warm
    snapshots at startup (stale ones fall back to a cold registration)
    and writes fresh ones on clean shutdown.  ``--wal-dir`` makes the
    store durable: mutations append to a write-ahead log before they
    apply, and a crashed server recovers bitwise-identically from the
    newest snapshots plus the WAL suffix (``--wal-sync`` picks the
    fsync policy).
    A server started with ``--replicate-from HOST:PORT`` instead runs
    as a **read replica**: it bootstraps its graphs warm from the
    primary, tails the primary's WAL over the wire and serves reads
    (optionally under bounded-staleness ``max_lag`` contracts) while
    redirecting writes to the primary.
``recover --wal-dir DIR``
    Offline recovery: replay the directory's snapshots + WAL without
    serving, and print each recovered graph's structure counts and
    content fingerprint.
``replicas``
    Print a running server's replication status: role, follower list
    (primary) or tail watermark / lag (replica), plus the health
    section.
``query ...``
    One-shot client against a running server (``--op fsim|topk|stats|
    graphs|ping|shutdown|snapshot``).
``mutate --graph NAME --script EDITS``
    Stream an edit script into a running server's registered graph.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import ARENA_BACKENDS
from repro.simulation.base import Variant


def _cmd_datasets(args) -> int:
    from repro.datasets import dataset_table

    print(dataset_table(scale=args.scale, seed=args.seed))
    return 0


def _cmd_fsim(args) -> int:
    from repro.core.api import fsim_matrix
    from repro.graph.io import load_graph

    graph1 = load_graph(args.graph1)
    graph2 = load_graph(args.graph2)
    result = fsim_matrix(
        graph1,
        graph2,
        Variant(args.variant),
        theta=args.theta,
        label_function=args.label_function,
        workers=args.workers,
        backend=args.backend,
        **({"shards": args.shards} if args.shards else {}),
        **({"arena_backend": args.arena_backend}
           if args.arena_backend else {}),
    )
    print(
        f"# FSim{args.variant}: {graph1.num_nodes}x{graph2.num_nodes} nodes, "
        f"{result.num_candidates} candidate pairs, "
        f"{result.iterations} iterations, converged={result.converged}"
    )
    ranked = sorted(result.scores.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    for (u, v), score in ranked[: args.top]:
        print(f"{u}\t{v}\t{score:.6f}")
    return 0


def _cmd_topk(args) -> int:
    from repro.core.config import FSimConfig
    from repro.core.topk import TopKSearch
    from repro.graph.io import load_graph

    graph1 = load_graph(args.graph1)
    graph2 = load_graph(args.graph2)
    config = FSimConfig(
        variant=Variant(args.variant),
        theta=args.theta,
        label_function=args.label_function,
        backend=args.backend,
    )
    results = TopKSearch(graph1, graph2, config).search_many(
        args.query, args.k, workers=args.workers, shards=args.shards,
    )
    for result in results:
        status = "certified" if result.certified else "best-effort"
        print(
            f"# top-{args.k} for {result.query}: "
            f"{status} after {result.iterations} iterations"
        )
        for partner, score in result.partners:
            print(f"{result.query}\t{partner}\t{score:.6f}")
    return 0


def _cmd_stream(args) -> int:
    import time

    from repro.core.config import FSimConfig
    from repro.graph.io import load_graph
    from repro.streaming import (
        IncrementalFSim,
        apply_script_op,
        parse_edit_script,
    )

    graph1 = load_graph(args.graph1)
    graph2 = graph1 if args.graph2 == args.graph1 else load_graph(args.graph2)
    config = FSimConfig(
        variant=Variant(args.variant),
        theta=args.theta,
        label_function=args.label_function,
        backend="numpy",
    )
    with open(args.script, "r", encoding="utf-8") as handle:
        script = parse_edit_script(handle)
    session = IncrementalFSim(
        graph1, graph2, config, workers=args.workers, shards=args.shards,
    )
    start = time.perf_counter()
    result = session.compute()
    print(
        f"# initial: {result.num_candidates} candidate pairs, "
        f"{result.iterations} iterations, "
        f"{time.perf_counter() - start:.3f}s"
    )
    batch = max(1, args.batch)
    for index in range(0, len(script), batch):
        chunk = script[index:index + batch]
        for target, op in chunk:
            log = session.log1 if target == 1 else session.log2
            apply_script_op(log, op)
        start = time.perf_counter()
        result = session.compute()
        elapsed = time.perf_counter() - start
        print(
            f"# batch {index // batch + 1}: {len(chunk)} ops, "
            f"{result.iterations} iterations, {elapsed:.3f}s"
        )
    stats = session.stats
    print(
        f"# stream done: {stats['incremental_runs']} incremental runs "
        f"({stats['compiled_patches']} compiled patches, "
        f"{stats['full_recompiles']} recompiles, "
        f"{stats['plan_patches']} plan patches, "
        f"{stats['out_of_band_resyncs']} resyncs)"
    )
    ranked = sorted(result.scores.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    for (u, v), score in ranked[: args.top]:
        print(f"{u}\t{v}\t{score:.6f}")
    return 0


def _parse_named(pairs: List[str], flag: str) -> List[tuple]:
    named = []
    for raw in pairs or []:
        name, sep, value = raw.partition("=")
        if not sep or not name or not value:
            raise SystemExit(f"{flag} expects NAME=PATH, got {raw!r}")
        named.append((name, value))
    return named


def _cmd_serve(args) -> int:
    import pathlib

    from repro.core.config import FSimConfig
    from repro.exceptions import SnapshotError
    from repro.graph.io import load_graph
    from repro.service import FSimServer, GraphStore
    from repro.service.server import run_server
    from repro.service.snapshot import restore_snapshot, save_snapshot

    graphs = _parse_named(args.graph, "--graph")
    replicate_from = getattr(args, "replicate_from", None)
    if replicate_from and args.wal_dir:
        raise SystemExit(
            "--replicate-from excludes --wal-dir: a replica tails its "
            "primary's WAL instead of keeping one"
        )
    if replicate_from and graphs:
        raise SystemExit(
            "--replicate-from excludes --graph: a replica bootstraps "
            "its graphs from the primary"
        )
    if not graphs and not args.wal_dir and not replicate_from:
        raise SystemExit("serve needs at least one --graph NAME=PATH")
    config = FSimConfig(
        variant=Variant(args.variant),
        theta=args.theta,
        label_function=args.label_function,
        backend=args.backend,
    )
    store = GraphStore(
        default_config=config,
        workers=args.workers,
        shards=args.shards,
    )
    if args.wal_dir:
        from repro.service import recover_store
        from repro.service.wal import FaultInjector

        pathlib.Path(args.wal_dir).mkdir(parents=True, exist_ok=True)
        store, report = recover_store(
            args.wal_dir, store=store, sync=args.wal_sync,
            fault_injector=FaultInjector.from_env(),
        )
        print(f"# recovery: {report.summary()}")
    snapshot_dir = (
        pathlib.Path(args.snapshot_dir) if args.snapshot_dir else None
    )
    for name, path in graphs:
        if name in store.graph_names():
            # Already recovered from the WAL directory -- the durable
            # history, not the (possibly stale) graph file, is truth.
            registered = store.graph(name)
            print(f"# {name}: recovered from WAL "
                  f"(version {registered.graph.version}, "
                  f"wal_seq {registered.wal_seq})")
            continue
        graph = load_graph(path, name=name)
        snapshot_path = (
            snapshot_dir / f"{name}.snap" if snapshot_dir else None
        )
        if snapshot_path and snapshot_path.exists():
            try:
                restore_snapshot(store, snapshot_path, graph=graph,
                                 name=name, config=store.default_config)
                print(f"# {name}: restored warm snapshot {snapshot_path}")
                continue
            except SnapshotError as exc:
                print(f"# {name}: {exc}; registering cold")
        store.register(name, graph, source={"path": path})
        print(f"# {name}: registered {graph.num_nodes} nodes / "
              f"{graph.num_edges} edges")
    def _on_stop():
        if store.wal is not None:
            try:
                report = store.compact()
                print(f"# WAL compacted on shutdown: {report}")
            except Exception as exc:  # must not block exit
                print(f"# shutdown compaction failed: {exc}")
        if snapshot_dir is None:
            return
        for name, _ in graphs:
            if name not in store.graph_names():
                continue
            try:
                meta = save_snapshot(store, name,
                                     snapshot_dir / f"{name}.snap")
                print(f"# {name}: snapshot saved ({meta['bytes']} bytes)")
            except Exception as exc:  # snapshot failure must not block exit
                print(f"# {name}: snapshot failed: {exc}")

    from repro.obs import log as obs_log

    obs_log.configure()
    server = FSimServer(
        store, host=args.host, port=args.port, window=args.window,
        max_batch=args.max_batch, max_pending=args.max_pending,
        on_stop=_on_stop if (snapshot_dir or args.wal_dir) else None,
        drain_timeout=args.drain_timeout,
        replicate_from=replicate_from,
        slow_query_ms=args.slow_query_ms,
        audit_sampling=args.audit_sampling,
        flight_dir=args.flight_dir,
        slo_interval=args.slo_interval,
        slo_window_scale=args.slo_window_scale,
        lag_slo_records=args.lag_slo_records,
    )
    role = f"replica of {replicate_from}" if replicate_from else "primary"
    print(f"# serving on {args.host}:{args.port or '(ephemeral)'} "
          f"window={args.window}s max_batch={args.max_batch} ({role})")

    def _on_ready(ready_server):
        # A machine-parseable line with the *bound* port (--port 0 gets
        # an ephemeral one); the crash-recovery harness supervises on it.
        print(f"# ready on {ready_server.host}:{ready_server.port}",
              flush=True)

    run_server(server, on_ready=_on_ready)
    print("# server stopped")
    return 0


def _cmd_recover(args) -> int:
    from repro.core.config import FSimConfig
    from repro.service import recover_store
    from repro.service.snapshot import graph_fingerprint

    config = FSimConfig(
        variant=Variant(args.variant),
        theta=args.theta,
        label_function=args.label_function,
        backend=args.backend,
    )
    store, report = recover_store(
        args.wal_dir, config=config, attach=False,
        strict_config=args.strict_config,
    )
    print(f"# recovery: {report.summary()}")
    for name in store.graph_names():
        registered = store.graph(name)
        fingerprint = graph_fingerprint(registered.graph, registered.config)
        print(f"{name}\tnodes={registered.graph.num_nodes}\t"
              f"edges={registered.graph.num_edges}\t"
              f"version={registered.graph.version}\t"
              f"wal_seq={registered.wal_seq}\t"
              f"fingerprint={fingerprint}")
    store.close()
    return 1 if report.lost_graphs else 0


def _cmd_replicas(args) -> int:
    """Replication status of a running server (primary or replica)."""
    from repro.service import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        stats = client.stats()
    replication = stats.get("replication")
    health = stats.get("health", {})
    if replication is None:
        print("# not replicating (no --wal-dir, no --replicate-from)")
        print(f"# health: {health.get('status', 'unknown')}")
        return 0
    role = replication.get("role", "unknown")
    print(f"# role: {role}")
    print(f"# health: {health.get('status', 'unknown')}")
    for reason in health.get("reasons", []):
        print(f"#   - {reason}")
    if role == "primary":
        followers = replication.get("followers", [])
        print(f"# shipped {replication.get('shipped_records', 0)} "
              f"record(s), {replication.get('heartbeats_sent', 0)} "
              f"heartbeat(s), {len(followers)} live follower(s)")
        for follower in followers:
            print(f"{follower.get('peer')}\t"
                  f"sent_seq={follower.get('sent_seq')}\t"
                  f"records={follower.get('records')}")
    else:
        tail = replication.get("tail", {})
        lag_seconds = tail.get("lag_seconds")
        shown = "unknown" if lag_seconds is None else f"{lag_seconds:.3f}"
        print(f"primary={tail.get('primary')}\t"
              f"connected={tail.get('connected')}\t"
              f"applied_seq={tail.get('applied_seq')}\t"
              f"head_seq={tail.get('head_seq')}\t"
              f"lag_records={tail.get('lag_records')}\t"
              f"lag_seconds={shown}\t"
              f"reconnects={tail.get('reconnects')}\t"
              f"bootstraps={tail.get('bootstraps')}")
    return 0


def _cmd_stats(args) -> int:
    """Pretty-print a running server's health/metrics/tracing report."""
    from repro.obs.metrics import parse_exposition
    from repro.service import ServiceClient
    from repro.service.client import _split_address

    host, port = _split_address(args.address)
    if args.cluster:
        return _stats_cluster(args, host, port)
    with ServiceClient(host, port) as client:
        if args.exposition:
            text = client.metrics()["exposition"]
            parse_exposition(text)  # fail loudly on a malformed scrape
            sys.stdout.write(text)
            return 0
        stats = client.stats()
    if args.json:
        import json as json_module

        print(json_module.dumps(stats, indent=2, sort_keys=True,
                                default=str))
        return 0
    health = stats.get("health", {})
    server = stats.get("server", {})
    print(f"# {host}:{port} health={health.get('status', 'unknown')}")
    for reason in health.get("reasons", []):
        print(f"#   - {reason}")
    print(f"requests_served={server.get('requests_served', 0)}\t"
          f"connections={server.get('connections', 0)}\t"
          f"rejected={health.get('rejected_requests', 0)}\t"
          f"aborted={health.get('aborted_requests', 0)}\t"
          f"peak_pending={health.get('peak_pending', 0)}")
    scheduler = stats.get("scheduler", {})
    print(f"batches={scheduler.get('batches', 0)}\t"
          f"coalesced={scheduler.get('coalesced_requests', 0)}\t"
          f"largest_batch={scheduler.get('largest_batch', 0)}")
    tracing_stats = stats.get("tracing", {})
    print(f"traces={tracing_stats.get('traces', 0)}\t"
          f"slow_queries={tracing_stats.get('slow_queries', 0)}\t"
          f"slow_ms={tracing_stats.get('slow_ms')}")
    audit = stats.get("audit")
    if audit:
        rate = audit.get("match_rate")
        print(f"audit: sampling={audit.get('sampling')} "
              f"executed={audit.get('executed', 0)} "
              f"match={audit.get('match', 0)} "
              f"diverged={audit.get('diverged', 0)} "
              f"skipped={audit.get('skipped_version_moved', 0)} "
              f"dropped={audit.get('dropped', 0)} "
              f"match_rate={'-' if rate is None else f'{rate:.4f}'}")
    alerts = stats.get("alerts", {})
    burn_fmt = (lambda v: "-" if v is None else f"{v:.2f}")
    for name in sorted(alerts.get("objectives", {})):
        objective = alerts["objectives"][name]
        burns = objective.get("burns", {}) or {}
        print(f"slo {name}: state={objective.get('state')} "
              f"burn_fast={burn_fmt(burns.get('fast_short'))}/"
              f"{burn_fmt(burns.get('fast_long'))} "
              f"burn_slow={burn_fmt(burns.get('slow_short'))}/"
              f"{burn_fmt(burns.get('slow_long'))} "
              f"fired={objective.get('fired_total', 0)} "
              f"resolved={objective.get('resolved_total', 0)}")
    for name in alerts.get("firing", []):
        print(f"ALERT firing: {name}")
    flight = stats.get("flight")
    if flight:
        print(f"flight: triggered={flight.get('triggered', 0)} "
              f"written={flight.get('written', 0)} "
              f"suppressed={flight.get('suppressed', 0)} "
              f"spool={flight.get('spool_dir') or '-'}")
    for name, registered in sorted(stats.get("graphs", {}).items()):
        print(f"graph {name}: nodes={registered.get('nodes')} "
              f"edges={registered.get('edges')} "
              f"version={registered.get('version')} "
              f"mutations={registered.get('mutations')}")
    metrics_report = stats.get("metrics", {})
    for name in sorted(metrics_report):
        family = metrics_report[name]
        for series in family.get("series", []):
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(series["labels"].items()))
            shown = f"{name}{{{labels}}}" if labels else name
            if family.get("type") == "histogram":
                p50, p95, p99 = (series.get("p50"), series.get("p95"),
                                 series.get("p99"))
                fmt = (lambda v: "-" if v is None else f"{v:.6f}")
                print(f"{shown}: count={series.get('count', 0)} "
                      f"p50={fmt(p50)} p95={fmt(p95)} p99={fmt(p99)}")
            else:
                print(f"{shown}: {series.get('value', 0)}")
    return 0


def _stats_cluster(args, host: str, port: int) -> int:
    """``repro stats --cluster``: the federated fleet table."""
    from repro.obs import federate
    from repro.service import ServiceClient

    with ServiceClient(host, port) as client:
        view = client.cluster_metrics(replicas=args.replica)
    if args.json:
        import json as json_module

        print(json_module.dumps(view, indent=2, sort_keys=True,
                                default=str))
        return 0
    if args.exposition:
        sys.stdout.write(view["exposition"])
        return 0
    print(federate.cluster_table(view["instances"]))
    if view.get("down"):
        print(f"# down: {', '.join(view['down'])}")
    return 0


def _cmd_flight(args) -> int:
    """Inspect flight-recorder bundles spooled by a server."""
    import json as json_module

    from repro.obs.flight import bundle_kinds, list_bundles, read_bundle

    if args.action == "list":
        bundles = list_bundles(args.spool_dir)
        if args.json:
            print(json_module.dumps(bundles, indent=2, sort_keys=True,
                                    default=str))
            return 0
        if not bundles:
            print(f"# no flight bundles in {args.spool_dir}")
            return 0
        for bundle in bundles:
            print(f"{bundle['name']}\treason={bundle['reason']}\t"
                  f"ts={bundle['ts']}\t"
                  f"trace={bundle.get('trace_id') or '-'}\t"
                  f"bytes={bundle['bytes']}")
        return 0

    records = read_bundle(args.bundle)
    if args.action == "diff":
        # The forensic question a divergence bundle answers first: what
        # exactly disagreed?
        details = [record for record in records
                   if record.get("kind") == "detail"]
        shown = 0
        for record in details:
            detail = record.get("detail", {}) or {}
            live = detail.get("live_fingerprint")
            reference = detail.get("reference_fingerprint")
            if live is None and reference is None:
                continue
            shown += 1
            print(f"request: {json_module.dumps(detail.get('request'), sort_keys=True, default=str)}")
            print(f"live:      {live}")
            print(f"reference: {reference}")
            print(f"verdict: {'DIVERGED' if live != reference else 'match'}")
        if not shown:
            print("# bundle carries no fingerprint pair "
                  "(not an audit-divergence bundle)")
            return 1
        return 0

    # show
    if args.json:
        print(json_module.dumps(records, indent=2, sort_keys=True,
                                default=str))
        return 0
    header = records[0]
    print(f"# bundle {header.get('seq')}: reason={header.get('reason')} "
          f"ts={header.get('ts')} instance={header.get('instance') or '-'} "
          f"trace={header.get('trace_id') or '-'}")
    print(f"# records: {dict(bundle_kinds(records))}")
    for record in records[1:]:
        kind = record.get("kind")
        if kind in ("metrics", "metrics_snapshot"):
            lines = record.get("exposition", "").count("\n")
            print(f"[{kind}] {lines} exposition line(s)")
        elif kind == "trace":
            trace = record.get("trace") or {}
            print(f"[trace] id={trace.get('trace_id')} "
                  f"op={trace.get('op')} "
                  f"spans={len(trace.get('spans', ()))}")
        elif kind == "event":
            fields = record.get("fields", {}) or {}
            flat = " ".join(f"{key}={fields[key]}"
                            for key in sorted(fields))
            print(f"[event] {record.get('event')} {flat}".rstrip())
        else:
            body = {key: value for key, value in record.items()
                    if key != "kind"}
            print(f"[{kind}] "
                  f"{json_module.dumps(body, sort_keys=True, default=str)}")
    return 0


def _cmd_query(args) -> int:
    from repro.service import ServiceClient
    from repro.service.client import wire_partners, wire_scores

    with ServiceClient(args.host, args.port) as client:
        if args.op == "ping":
            print(client.ping())
        elif args.op == "graphs":
            for name in client.graphs():
                print(name)
        elif args.op == "stats":
            import json as json_module

            print(json_module.dumps(client.stats(), indent=2, default=str))
        elif args.op == "shutdown":
            print(client.shutdown())
        elif args.op == "snapshot":
            if not (args.graph1 and args.path):
                raise SystemExit("snapshot needs --graph1 and --path")
            print(client.snapshot_save(args.graph1, args.path))
        elif args.op == "fsim":
            if not args.graph1:
                raise SystemExit("fsim needs --graph1")
            result = client.fsim(args.graph1, args.graph2, top=args.top)
            print(
                f"# fsim {args.graph1}~{args.graph2 or args.graph1}: "
                f"{result['num_candidates']} candidate pairs, "
                f"{result['iterations']} iterations, "
                f"converged={result['converged']}"
            )
            for (u, v), score in wire_scores(result).items():
                print(f"{u}\t{v}\t{score:.6f}")
        elif args.op == "topk":
            if not (args.graph1 and args.query):
                raise SystemExit("topk needs --graph1 and --query")
            for query in args.query:
                result = client.topk(args.graph1, query, k=args.k,
                                     graph2=args.graph2)
                status = ("certified" if result["certified"]
                          else "best-effort")
                print(f"# top-{args.k} for {query}: {status} after "
                      f"{result['iterations']} iterations")
                for partner, score in wire_partners(result):
                    print(f"{query}\t{partner}\t{score:.6f}")
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit(f"unknown op {args.op!r}")
    return 0


def _cmd_mutate(args) -> int:
    from repro.service import ServiceClient
    from repro.streaming import parse_edit_script

    with open(args.script, "r", encoding="utf-8") as handle:
        script = parse_edit_script(handle)
    if any(target == 2 for target, _op in script):
        # Two-graph `stream` scripts address g1/g2; a service mutation
        # targets exactly one named graph -- silently applying g2 lines
        # to --graph would mutate the wrong graph.
        raise SystemExit(
            "edit script addresses g2: `mutate` applies to the single "
            "graph named by --graph; split the script per graph"
        )
    ops = [tuple(value for value in op if value is not None)
           for _target, op in script]
    with ServiceClient(args.host, args.port) as client:
        outcome = client.mutate(args.graph, ops)
    print(f"# applied {outcome['applied']} op(s); "
          f"{args.graph} is now at version {outcome['version']}")
    return 0


_EXPERIMENTS = {
    "table2": ("repro.experiments.table2", "run"),
    "table5": ("repro.experiments.table5", "run"),
    "table6": ("repro.experiments.table6", "run"),
    "table9": ("repro.experiments.table9", "run"),
    "fig4a": ("repro.experiments.fig4", "run_theta"),
    "fig4b": ("repro.experiments.fig4", "run_wstar"),
    "fig5": ("repro.experiments.fig5", "run"),
    "fig6a": ("repro.experiments.fig6", "run_beta"),
    "fig6b": ("repro.experiments.fig6", "run_alpha"),
    "fig7": ("repro.experiments.fig7", "run"),
    "fig8": ("repro.experiments.fig8", "run"),
    "fig9a": ("repro.experiments.fig9", "run_workers"),
    "fig9b": ("repro.experiments.fig9", "run_density"),
    "efficiency": ("repro.experiments.case_efficiency", "run"),
    # table7/table8 share one driver returning two outputs
    "table7": ("repro.experiments.table7_8", "run"),
    "table8": ("repro.experiments.table7_8", "run"),
}


def _cmd_experiment(args) -> int:
    import importlib

    module_name, function_name = _EXPERIMENTS[args.name]
    module = importlib.import_module(module_name)
    function = getattr(module, function_name)
    kwargs = {}
    if args.name not in ("table2", "table7", "table8", "table9"):
        kwargs["scale"] = args.scale
    output = function(**kwargs)
    if isinstance(output, tuple):
        if args.name == "table7":
            output = (output[0],)
        elif args.name == "table8":
            output = (output[1],)
        for item in output:
            print(item.render())
            print()
    else:
        print(output.render())
    return 0


def _cmd_examples(_args) -> int:
    import pathlib

    examples_dir = pathlib.Path(__file__).resolve().parents[2] / "examples"
    if not examples_dir.is_dir():
        print("examples/ directory not found next to the package source")
        return 1
    for script in sorted(examples_dir.glob("*.py")):
        first_doc_line = ""
        for line in script.read_text(encoding="utf-8").splitlines():
            stripped = line.strip().strip('"')
            if stripped:
                first_doc_line = stripped
                break
        print(f"{script.name:32} {first_doc_line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FSimX: quantify approximate simulation on graph data",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser("datasets", help="emulated dataset statistics")
    datasets.add_argument("--scale", type=float, default=1.0)
    datasets.add_argument("--seed", type=int, default=0)
    datasets.set_defaults(handler=_cmd_datasets)

    fsim = commands.add_parser("fsim", help="score two graphs from files")
    fsim.add_argument("graph1")
    fsim.add_argument("graph2")
    fsim.add_argument(
        "--variant", choices=[v.value for v in Variant if v is not Variant.CROSS],
        default="s",
    )
    fsim.add_argument("--theta", type=float, default=0.0)
    fsim.add_argument("--label-function", default="jaro_winkler")
    fsim.add_argument("--workers", type=int, default=None)
    fsim.add_argument(
        "--shards", type=int, default=None,
        help="pair-space shards for the persistent sharded runtime (1 = unsharded; results are bitwise identical)",
    )
    fsim.add_argument(
        "--arena-backend", choices=list(ARENA_BACKENDS), default=None,
        help="compiled-arena storage: ram (default) or memmap (file-backed slabs for arenas larger than RAM)",
    )
    fsim.add_argument(
        "--backend", choices=["auto", "python", "numpy"], default="auto",
        help="compute backend (auto = vectorized engine when expressible)",
    )
    fsim.add_argument("--top", type=int, default=20, help="pairs to print")
    fsim.set_defaults(handler=_cmd_fsim)

    topk = commands.add_parser(
        "topk", help="certified top-k search (batched across queries)"
    )
    topk.add_argument("graph1")
    topk.add_argument("graph2")
    topk.add_argument(
        "--query", action="append", required=True,
        help="query node in GRAPH1 (repeat for a batch)",
    )
    topk.add_argument("-k", type=int, default=5, help="partners per query")
    topk.add_argument(
        "--variant", choices=[v.value for v in Variant if v is not Variant.CROSS],
        default="s",
    )
    topk.add_argument("--theta", type=float, default=0.0)
    topk.add_argument("--label-function", default="jaro_winkler")
    topk.add_argument(
        "--backend", choices=["auto", "python", "numpy"], default="auto",
        help="compute backend (auto = vectorized engine when expressible)",
    )
    topk.add_argument("--workers", type=int, default=None)
    topk.add_argument(
        "--shards", type=int, default=None,
        help="pair-space shards for the persistent sharded runtime (1 = unsharded; results are bitwise identical)",
    )
    topk.set_defaults(handler=_cmd_topk)

    stream = commands.add_parser(
        "stream", help="replay an edit script with incremental FSim scores"
    )
    stream.add_argument("graph1")
    stream.add_argument("graph2")
    stream.add_argument(
        "--script", required=True,
        help="edit script file (one op per line; see the module docstring)",
    )
    stream.add_argument(
        "--batch", type=int, default=1,
        help="ops applied between recomputes (default 1)",
    )
    stream.add_argument(
        "--variant", choices=[v.value for v in Variant if v is not Variant.CROSS],
        default="s",
    )
    stream.add_argument("--theta", type=float, default=0.0)
    stream.add_argument("--label-function", default="jaro_winkler")
    stream.add_argument("--workers", type=int, default=None)
    stream.add_argument(
        "--shards", type=int, default=None,
        help="pair-space shards for the persistent sharded runtime (1 = unsharded; results are bitwise identical)",
    )
    stream.add_argument("--top", type=int, default=10, help="pairs to print")
    stream.set_defaults(handler=_cmd_stream)

    experiment = commands.add_parser("experiment", help="run one paper experiment")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=0.6)
    experiment.set_defaults(handler=_cmd_experiment)

    examples = commands.add_parser("examples", help="list example scripts")
    examples.set_defaults(handler=_cmd_examples)

    serve = commands.add_parser(
        "serve", help="run the long-lived FSim query service"
    )
    serve.add_argument(
        "--graph", action="append", metavar="NAME=PATH",
        help="register a graph under NAME from a v/e file (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7464,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--window", type=float, default=0.005,
        help="micro-batching window in seconds (default 5ms)",
    )
    serve.add_argument("--max-batch", type=int, default=32,
                       help="flush a batch early at this size")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="admission-control bound on queued requests")
    serve.add_argument(
        "--variant", choices=[v.value for v in Variant if v is not Variant.CROSS],
        default="s",
    )
    serve.add_argument("--theta", type=float, default=0.0)
    serve.add_argument("--label-function", default="jaro_winkler")
    serve.add_argument(
        "--backend", choices=["auto", "python", "numpy"], default="numpy",
        help="default compute backend for registered graphs",
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--shards", type=int, default=None,
        help="pair-space shards for the persistent sharded runtime (1 = unsharded; results are bitwise identical)",
    )
    serve.add_argument(
        "--snapshot-dir", default=None,
        help="restore NAME.snap warm snapshots at startup (stale ones "
             "fall back to cold registration) and save them on shutdown",
    )
    serve.add_argument(
        "--wal-dir", default=None,
        help="durable mode: recover from this directory's snapshots + "
             "write-ahead log at startup, then log every mutation to it",
    )
    serve.add_argument(
        "--wal-sync", choices=["always", "batch", "off"], default="batch",
        help="fsync policy: always = per record, batch = once per "
             "coalesced mutation batch (default), off = page cache only",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight batches at shutdown before "
             "aborting queued requests (default 30)",
    )
    serve.add_argument(
        "--replicate-from", metavar="HOST:PORT", default=None,
        help="run as a read replica of the primary at HOST:PORT: "
             "bootstrap warm, tail its WAL, serve reads, redirect "
             "writes (excludes --graph and --wal-dir)",
    )
    serve.add_argument(
        "--slow-query-ms", type=float, default=None,
        help="slow-query log threshold: traced requests at or above "
             "this many milliseconds enter the slow ring served by the "
             "`trace` op (default: slow log off)",
    )
    serve.add_argument(
        "--audit-sampling", type=float, default=0.0,
        help="shadow-audit this fraction of read requests against the "
             "pure-python reference engine off the hot path "
             "(0 = off, 1 = every read)",
    )
    serve.add_argument(
        "--flight-dir", default=None,
        help="spool flight-recorder bundles (audit divergence, SLO "
             "alerts, overload, server errors) into this directory",
    )
    serve.add_argument(
        "--slo-interval", type=float, default=1.0,
        help="seconds between SLO burn-rate evaluations (default 1)",
    )
    serve.add_argument(
        "--slo-window-scale", type=float, default=1.0,
        help="scale every SLO alert window by this factor (tests and "
             "chaos drills shrink the SRE 5m/1h/6h/3d windows)",
    )
    serve.add_argument(
        "--lag-slo-records", type=float, default=64.0,
        help="replication-lag SLO bound in records (default 64)",
    )
    serve.set_defaults(handler=_cmd_serve)

    recover = commands.add_parser(
        "recover", help="replay a WAL directory offline and print the "
                        "recovered store state"
    )
    recover.add_argument("--wal-dir", required=True)
    recover.add_argument(
        "--variant", choices=[v.value for v in Variant if v is not Variant.CROSS],
        default="s",
    )
    recover.add_argument("--theta", type=float, default=0.0)
    recover.add_argument("--label-function", default="jaro_winkler")
    recover.add_argument(
        "--backend", choices=["auto", "python", "numpy"], default="numpy",
    )
    recover.add_argument(
        "--strict-config", action="store_true",
        help="check snapshots against the flags above (default: restore "
             "each snapshot under the config it embeds)",
    )
    recover.set_defaults(handler=_cmd_recover)

    replicas = commands.add_parser(
        "replicas", help="print a running server's replication status"
    )
    replicas.add_argument("--host", default="127.0.0.1")
    replicas.add_argument("--port", type=int, default=7464)
    replicas.set_defaults(handler=_cmd_replicas)

    stats = commands.add_parser(
        "stats", help="pretty-print a running server's health, metrics "
                      "and tracing report"
    )
    stats.add_argument("address", metavar="HOST:PORT",
                       help="service address, e.g. 127.0.0.1:7464")
    stats.add_argument("--json", action="store_true",
                       help="dump the raw structured stats as JSON")
    stats.add_argument(
        "--exposition", action="store_true",
        help="print the Prometheus text exposition (validated scrape)",
    )
    stats.add_argument(
        "--cluster", action="store_true",
        help="federated fleet view: the primary scrapes itself and its "
             "advertised followers; prints one table row per instance "
             "(--json for the merged structured view, --exposition for "
             "the relabeled merged scrape)",
    )
    stats.add_argument(
        "--replica", action="append", metavar="HOST:PORT", default=None,
        help="extra replica address to include in --cluster "
             "(repeatable; normally discovered automatically)",
    )
    stats.set_defaults(handler=_cmd_stats)

    flight = commands.add_parser(
        "flight", help="inspect flight-recorder forensic bundles"
    )
    flight_actions = flight.add_subparsers(dest="action", required=True)
    flight_list = flight_actions.add_parser(
        "list", help="list the bundles in a spool directory"
    )
    flight_list.add_argument("spool_dir", metavar="SPOOL_DIR")
    flight_list.add_argument("--json", action="store_true")
    flight_list.set_defaults(handler=_cmd_flight)
    flight_show = flight_actions.add_parser(
        "show", help="pretty-print one bundle's records"
    )
    flight_show.add_argument("bundle", metavar="BUNDLE_FILE")
    flight_show.add_argument("--json", action="store_true")
    flight_show.set_defaults(handler=_cmd_flight)
    flight_diff = flight_actions.add_parser(
        "diff", help="show the diverged request and both fingerprints "
                     "from an audit-divergence bundle"
    )
    flight_diff.add_argument("bundle", metavar="BUNDLE_FILE")
    flight_diff.set_defaults(handler=_cmd_flight)

    query = commands.add_parser(
        "query", help="one-shot client against a running service"
    )
    query.add_argument(
        "--op", required=True,
        choices=["ping", "graphs", "stats", "fsim", "topk", "shutdown",
                 "snapshot"],
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7464)
    query.add_argument("--graph1", default=None, help="registered name")
    query.add_argument("--graph2", default=None,
                       help="registered name (default: graph1)")
    query.add_argument("--query", action="append",
                       help="top-k query node (repeatable)")
    query.add_argument("-k", type=int, default=5)
    query.add_argument("--top", type=int, default=20,
                       help="fsim: pairs to return")
    query.add_argument("--path", default=None, help="snapshot: target file")
    query.set_defaults(handler=_cmd_query)

    mutate = commands.add_parser(
        "mutate", help="stream an edit script into a running service"
    )
    mutate.add_argument("--graph", required=True, help="registered name")
    mutate.add_argument(
        "--script", required=True,
        help="edit script file (same format as `stream`, no g1/g2 prefix)",
    )
    mutate.add_argument("--host", default="127.0.0.1")
    mutate.add_argument("--port", type=int, default=7464)
    mutate.set_defaults(handler=_cmd_mutate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
