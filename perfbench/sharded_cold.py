"""Workload ``sharded_cold``: batches sharded over two hosts, always cold.

Two loopback ``repro-map shard-serve`` hosts (capacity 1 each, so at
most ``nproc`` plan nodes run at once) share one ``repro-map
store-serve`` remote store.  Every batch is 4 requests with the same
matrices and algorithms (``UG,UWH,UMC`` at 64 ranks, 4 per node), but on
an allocation and with mapping seeds that no earlier batch used, so each
batch computes its groupings, DEF baselines and route tables afresh and
writes them through the remote store.  Latency is per batch, at the
caller of ``map_batch(hosts=..., store_remote=...)``.

* set-up (timed, three times, median): spawn the store and both hosts,
  build the four task graphs in this process, run one warm-up batch.
  The first two clusters are drained again.
* timed window: one closed-loop coordinator issuing batch after batch.
* reference (untimed, after the window): every answered batch again on
  a serial in-process service; every fingerprint must match.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from perfbench import common
from perfbench.layers import cache_ratios, span_metrics
from perfbench.trace import Tracer

MATRICES = ("cage12_like", "ecology_like", "rgg_n21_like", "webbase_like")
ALGOS = ("UG", "UWH", "UMC")
PROCS, PPN, NODES = 64, 4, 16
SETUP_REPEATS = 3
HOSTS = 2


def _machine(seed: int):
    from repro.topology.allocation import AllocationSpec, SparseAllocator, torus_for_job

    return SparseAllocator(torus_for_job(NODES)).allocate(
        AllocationSpec(num_nodes=NODES, procs_per_node=PPN, fragmentation=0.3, seed=seed)
    )


def _batch(graphs, seed: int, index: int):
    """Batch *index*: fresh allocation and mapping seeds, fixed task graphs."""
    from repro.api.request import MapRequest

    batch_seed = 1_000_003 * seed + 7919 * (index + 1)
    machine = _machine(batch_seed)
    return [
        MapRequest(task_graph=tg, machine=machine, algorithms=ALGOS,
                   seed=batch_seed + j, evaluate=True, tag=f"b{index}-r{j}")
        for j, tg in enumerate(graphs)
    ]


def _start_cluster(run_dir: str, rep: int, seed: int):
    from repro.serve.protocol import build_workload
    from repro.api.service import MappingService

    t0 = time.perf_counter()
    children: List[common.Child] = []
    try:
        store = common.Child(f"store{rep}", ["store-serve", "--listen", "127.0.0.1:0",
                                             "--root", f"{run_dir}/store{rep}"], run_dir)
        children.append(store)
        store_addr = store.wait_listening()
        for h in range(HOSTS):
            children.append(common.Child(
                f"host{rep}-{h}",
                ["shard-serve", "--listen", "127.0.0.1:0", "--capacity", "1",
                 "--store-remote", store_addr, "--host-id", f"h{h}"],
                run_dir,
            ))
        graphs = [
            build_workload(m, PROCS, PPN, 120, "PATOH", seed, 0.3)[0] for m in MATRICES
        ]
        hosts = [c.wait_listening() for c in children[1:]]
        service = MappingService()
        warm = service.map_batch(_batch(graphs, seed, -1), hosts=hosts, store_remote=store_addr)
        if not all(r.ok for r in warm):
            raise common.BenchError("warm-up batch failed")
    except BaseException:
        common.stop_all(children[::-1])
        raise
    return children, graphs, hosts, store_addr, service, time.perf_counter() - t0


def _remote_stats(store_addr: str) -> dict:
    from repro.dist.remote import RemoteArtifactStore

    client = RemoteArtifactStore(store_addr)
    try:
        return client.stats()["server"] or {}
    finally:
        client.close()


def _host_stats(hosts: List[str]) -> List[dict]:
    from repro.dist.host import HostClient

    out = []
    for address in hosts:
        client = HostClient(address)
        try:
            out.append(client.request_stats())
        finally:
            client.close()
    return out


def run(seed: int, seconds: float, trace: bool, run_dir: str, tracer: Tracer) -> dict:
    problems: List[str] = []
    setup_times: List[float] = []
    tracker_errors = 0
    children: List[common.Child] = []
    try:
        for rep in range(SETUP_REPEATS):
            if trace and rep == SETUP_REPEATS - 1:
                tracer.start()
            children, graphs, hosts, store_addr, service, dt = _start_cluster(run_dir, rep, seed)
            tracer.stop()
            setup_times.append(dt)
            if rep < SETUP_REPEATS - 1:
                problems.extend(common.stop_all(children[::-1]))
                tracker_errors += sum(c.tracker_errors for c in children)
                children = []
        setup_agg = tracer.take()
        remote0 = _remote_stats(store_addr)
        hosts0 = _host_stats(hosts)
        pids = [p for c in children for p in c.tree()]
        cpu0 = common.cpu_seconds(pids) + time.process_time()

        # -- timed window --------------------------------------------------
        batches: List[Tuple[int, float, list, bool]] = []
        slice_time = {False: 0.0, True: 0.0}
        slice_ok = {False: 0, True: 0}
        samples: List[Tuple[int, float, float]] = []  # batch, start, seconds
        index = 0
        window0 = time.perf_counter()
        while index == 0 or time.perf_counter() - window0 < seconds:
            traced = trace and index % 2 == 1
            requests = _batch(graphs, seed, index)
            t_iter = time.perf_counter()
            if traced:
                tracer.start()
                tracer.request_id = f"b{index}"
            try:
                with tracer.span("dist.batch"):
                    responses = service.map_batch(
                        requests, hosts=hosts, store_remote=store_addr
                    )
            except Exception as exc:  # counted, printed, never fatal
                responses = exc
            finally:
                tracer.stop()
            dt = time.perf_counter() - t_iter
            batches.append((index, dt, responses, traced))
            samples.append((index, t_iter - window0, dt))
            slice_time[traced] += dt
            if not isinstance(responses, Exception):
                slice_ok[traced] += sum(r.ok for r in responses)
            index += 1
        window = time.perf_counter() - window0
        cpu = common.cpu_seconds(pids) + time.process_time() - cpu0
        rss = common.peak_rss_mb(pids)
        remote1 = _remote_stats(store_addr)
        hosts1 = _host_stats(hosts)
        problems.extend(common.stop_all(children[::-1]))
        tracker_errors += sum(c.tracker_errors for c in children)
        children = []
    finally:
        if children:
            common.stop_all(children[::-1])

    # -- verification against the serial reference -------------------------
    from repro.api.service import MappingService

    reference = MappingService()
    attempted = failed = 0
    lat: List[float] = []
    mismatches: List[str] = []
    map_times: Dict[str, List[float]] = {a: [] for a in ALGOS}
    for index, dt, responses, traced in batches:
        n = len(MATRICES) * len(ALGOS)
        attempted += n
        if isinstance(responses, Exception):
            failed += n
            mismatches.append(f"batch {index}: {responses!r}")
            continue
        expected = reference.map_batch(_batch(graphs, seed, index))
        good = 0
        for got, want in zip(responses, expected):
            if not got.ok:
                mismatches.append(f"{got.tag} {got.algorithm}: {got.error}")
            elif got.fingerprint() != want.fingerprint():
                mismatches.append(f"{got.tag} {got.algorithm}: fingerprint differs")
            else:
                good += 1
                if traced or not trace:
                    map_times[got.algorithm].append(got.map_time)
        failed += n - good
        if good == n:
            lat.append(dt)
    ok_total = attempted - failed

    def delta(key: str) -> float:
        return remote1.get(key, 0) - remote0.get(key, 0)

    def host_delta(*path: str) -> float:
        """Window change of one counter summed over the hosts' stats."""
        total = 0
        for before, after in zip(hosts0, hosts1):
            for key in path[:-1]:
                before, after = before.get(key) or {}, after.get(key) or {}
            total += after.get(path[-1], 0) - before.get(path[-1], 0)
        return total

    window_agg = tracer.take()
    router_stats = window_agg["records"]
    cache_delta = {
        ns: {
            key: host_delta("cache", ns, key) for key in ("hits", "misses")
        }
        for ns in ("grouping", "route_table")
    }
    sizes = [sum((st.get("router") or {}).get("shard_sizes", {}).get(h, 0) for st in router_stats)
             for h in hosts]
    layer_values = {
        **cache_ratios(cache_delta),
        **{f"api.store.{key}": host_delta("store", key)
           for key in ("saves", "save_skips", "loads", "load_hits")},
        "api.store.shm_tracker_errors": tracker_errors,
        "dist.nodes_per_host_max_min": max(sizes) / min(sizes) if sizes and min(sizes) else 0.0,
        "dist.steals": sum((st.get("router") or {}).get("steals", 0) for st in router_stats),
        "dist.reroutes": sum((st.get("router") or {}).get("reroutes", 0) for st in router_stats),
        "dist.hosts_lost": sum(len(st.get("hosts_lost") or ()) for st in router_stats),
        "dist.store.saves": delta("saves"),
        "dist.store.loads": delta("loads"),
        "dist.store.bytes": delta("bytes_in") + delta("bytes_out"),
    }
    layer_values.update(span_metrics(window_agg, setup_agg))
    for algo, times in map_times.items():
        layer_values[f"mapping.{algo}.ms_geomean"] = common.geomean(times) * 1e3
    per_batch = len(MATRICES) * len(ALGOS)
    end_to_end = {
        "setup_s": common.median(setup_times),
        "throughput_mps": ok_total / window,
        "map_ms_geomean": common.geomean([d / per_batch for d in lat]) * 1e3,
        "cpu_ms_per_mapping": cpu * 1e3 / max(ok_total, 1),
        "ok_frac": ok_total / max(attempted, 1),
        "peak_rss_mb": rss,
        "latency_p50_ms": common.median(lat) * 1e3,
        "latency_p95_ms": common.percentile(lat, 95) * 1e3
        if common.tail_ok(len(lat), 95) else None,
    }
    tiers = sorted({(s.get("store") or {}).get("tier", "?") for s in hosts1})
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "checks": [],
        "problems": problems,
        "end_to_end": end_to_end,
        "layer_values": layer_values,
        "window_agg": window_agg,
        "samples": samples,
        "traced_wall_s": slice_time[True],
        "throughput_untraced": slice_ok[False] / slice_time[False] if slice_time[False] else 0.0,
        "throughput_traced": slice_ok[True] / slice_time[True] if slice_time[True] else 0.0,
        "extra": {
            "setup_times_s": setup_times,
            "batches": len(batches),
            "mappings_per_batch": per_batch,
            "window_s": window,
            "shm_tracker_errors": tracker_errors,
            "remote_store": {k: delta(k) for k in ("saves", "save_skips", "loads", "load_hits",
                                                   "bytes_in", "bytes_out")},
        },
        "store_tier": "hosts: " + ",".join(tiers) + " + remote",
    }

