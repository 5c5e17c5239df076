"""Warm snapshots: resident FSim state serialized across restarts.

A restarted server normally pays the full cold path on its first query:
re-lower the graph (:class:`~repro.core.plan.GraphPlan`), recompile the
candidate arena, iterate Equation 3 to convergence.  A snapshot saves
exactly that state -- the plan, the compiled arrays and the converged
scores (including the session's replay trajectory, so bitwise-exact
incremental serving resumes seamlessly) -- and restores it behind a
**content fingerprint**:

- the fingerprint hashes the graph's nodes, labels and edges *in
  insertion order* plus the effective config, so a snapshot taken on a
  different graph (or a graph file that changed on disk) never
  restores -- the caller falls back to a cold registration;
- the graph's in-process :attr:`~repro.graph.digraph.LabeledDigraph.version`
  counter is process-local and therefore deliberately **not** part of
  the check; the restored plan is re-keyed on the live graph's current
  version via :func:`repro.core.plan.adopt_plan`.

After :func:`restore_snapshot`, the first ``fsim`` query is answered
from the restored result without lowering, compiling or iterating --
observable through ``plan_cache`` stats (no misses) and the session
stats (no cold runs).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import Optional, Union

from repro.core.config import FSimConfig
from repro.core.plan import adopt_plan, lower_graph
from repro.exceptions import ConfigError, SnapshotError
from repro.graph.digraph import LabeledDigraph
from repro.service.store import GraphStore, PairState, RegisteredGraph, config_key

PathLike = Union[str, Path]

#: Bump on any incompatible change to the payload layout.
SNAPSHOT_FORMAT = 1


def graph_fingerprint(graph: LabeledDigraph, config: FSimConfig) -> str:
    """Content hash of (graph structure, effective config).

    Insertion order is part of the identity on purpose: two graphs with
    equal edge *sets* but different adjacency order converge to last-ulp
    different floats, and a snapshot must only ever restore onto the
    graph it was computed from.
    """
    hasher = hashlib.sha256()
    hasher.update(f"format:{SNAPSHOT_FORMAT}\n".encode())
    for node in graph.nodes():
        hasher.update(f"v\t{node!r}\t{graph.label(node)!r}\n".encode())
    for source, target in graph.edges():
        hasher.update(f"e\t{source!r}\t{target!r}\n".encode())
    hasher.update(repr(config_key(config)).encode())
    return hasher.hexdigest()


def build_snapshot_payload(store: GraphStore, name: str,
                           warm: Optional[bool] = True) -> dict:
    """The snapshot payload dict for a registered graph (no file I/O).

    ``warm`` selects how much resident state rides along with the
    graph structure + config + WAL watermark that every snapshot
    carries:

    - ``True`` (default) -- the full warm payload: plan, session
      trajectory, converged self-pair scores, *computed now* if the
      server has not served them yet (a snapshot of nothing would warm
      nothing);
    - ``None`` -- opportunistic: include the warm payload only when
      the self-pair result is already cached at the current versions,
      never compute.  WAL compaction uses this -- a checkpoint of a
      mutation-only graph must not trigger an unrequested computation;
    - ``False`` -- structure only (durability without warmth).

    :func:`save_snapshot` pickles this to disk; the replication
    bootstrap (``replica_bootstrap`` op) pickles it over the wire so a
    follower starts from the primary's warm state instead of a cold
    rebuild.
    """
    registered = store.graph(name)
    config = registered.config
    result = None
    pair = None
    if warm:
        result = store.fsim(name, name)  # ensure the state exists
        pair = store.pair(name, name, config)
    elif warm is None:
        pair = store.peek_pair(name, name, config)
        if pair is not None:
            result = pair.results.peek(("fsim", pair.versions()))
    session_state = None
    plan = None
    if result is not None and pair is not None:
        if pair.session is not None:
            pair.sync_session()
            session_state = pair.session.snapshot_state()
        plan = lower_graph(registered.graph)
    return {
        "format": SNAPSHOT_FORMAT,
        "name": name,
        "fingerprint": graph_fingerprint(registered.graph, config),
        "config": config,
        "graph": registered.graph,
        "plan": plan,
        "session_state": session_state,
        "result": result,
        "wal_seq": registered.wal_seq,
        "created": time.time(),
    }


def save_snapshot(store: GraphStore, name: str, path: PathLike,
                  warm: Optional[bool] = True) -> dict:
    """Snapshot a registered graph's state to disk (atomic write).

    See :func:`build_snapshot_payload` for the ``warm`` policy.
    Returns a small metadata dict (fingerprint, sizes) for logging /
    the stats endpoint.  The write is atomic (temp file + rename +
    directory fsync), so a crash mid-save leaves the previous snapshot
    intact.
    """
    registered = store.graph(name)
    payload = build_snapshot_payload(store, name, warm=warm)
    session_state = payload["session_state"]
    result = payload["result"]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return {
        "path": str(path),
        "fingerprint": payload["fingerprint"],
        "bytes": path.stat().st_size,
        "session": session_state is not None,
        "warm": result is not None,
        "wal_seq": registered.wal_seq,
    }


def load_snapshot(path: PathLike) -> dict:
    """Read and structurally validate a snapshot payload."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}") from None
    except Exception as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path} has format "
            f"{payload.get('format') if isinstance(payload, dict) else '?'}"
            f" (expected {SNAPSHOT_FORMAT})"
        )
    return payload


def restore_snapshot(
    store: GraphStore,
    path: PathLike,
    graph: Optional[LabeledDigraph] = None,
    name: Optional[str] = None,
    config: Optional[FSimConfig] = None,
    replace: bool = False,
) -> RegisteredGraph:
    """Register a graph from a snapshot with its warm state attached.

    When ``graph`` is given (the live graph just loaded from its source
    file), its fingerprint must match the snapshot's -- a stale snapshot
    raises :class:`~repro.exceptions.SnapshotError` and the caller
    registers cold instead.  Without ``graph``, the snapshot's own
    embedded graph is used (still re-fingerprinted to catch a corrupt
    payload).

    ``config`` is the config the *caller* intends to serve under (e.g.
    the server's effective flags).  The snapshot embeds the config it
    was computed with, so fingerprinting against the embedded config
    alone would always pass; an explicit mismatch check here is what
    makes "restarted with different flags" a stale snapshot instead of
    silently serving old-config scores.  ``None`` skips the check
    (restore whatever was saved).
    """
    payload = load_snapshot(path)
    return adopt_snapshot_payload(
        store, payload, graph=graph, name=name, config=config,
        replace=replace, origin=str(path),
    )


def adopt_snapshot_payload(
    store: GraphStore,
    payload: dict,
    graph: Optional[LabeledDigraph] = None,
    name: Optional[str] = None,
    config: Optional[FSimConfig] = None,
    replace: bool = False,
    origin: Optional[str] = None,
) -> RegisteredGraph:
    """Adopt an in-memory snapshot payload (see :func:`restore_snapshot`).

    The wire-bootstrap path: a replication follower receives the
    primary's :func:`build_snapshot_payload` dicts over the socket and
    adopts them here -- identical validation and warm-state adoption as
    a disk restore, no file required.  ``origin`` labels error messages
    (the snapshot path, or the primary's address).
    """
    origin = origin or "<payload>"
    if config is not None and config_key(config) != config_key(
            payload["config"]):
        raise SnapshotError(
            f"snapshot {origin} is stale: it was computed under a "
            f"different config than the one being served"
        )
    session_state = payload["session_state"]
    if config is None:
        config = payload["config"]
    elif session_state is not None:
        # Value-identical configs (the key matched) may still differ in
        # runtime fields -- workers/shards -- which must come from
        # the *current* server flags, not the previous run's.  Rewrite
        # the session payload so state adoption sees the served config.
        session_state = dict(session_state)
        session_state["config"] = config
    if graph is None:
        graph = payload["graph"]
    live = graph_fingerprint(graph, config)
    if live != payload["fingerprint"]:
        raise SnapshotError(
            f"snapshot {origin} is stale: fingerprint "
            f"{payload['fingerprint'][:12]} does not match the live "
            f"graph ({live[:12]})"
        )
    registered = store.register(
        name or payload["name"], graph, config, replace=replace,
        source={"snapshot": origin},
    )
    registered.wal_seq = int(payload.get("wal_seq", 0))
    if payload.get("plan") is not None:
        # The plan describes this exact structure (fingerprint-checked):
        # re-key it on the live version counter so the next lowering hits.
        adopt_plan(graph, payload["plan"])
    if payload.get("result") is not None:
        pair = PairState(registered, registered, config,
                         store.result_cache_size)
        if session_state is not None and pair.session is not None:
            try:
                pair.session.adopt_state(session_state)
            except ConfigError:
                pass  # config drift: serve cold, still correct
        pair.results.put(("fsim", pair.versions()), payload["result"])
        store.adopt_pair(pair)
    store.restored_snapshots += 1
    return registered
