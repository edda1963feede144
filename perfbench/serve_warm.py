"""Workload ``serve_warm``: closed-loop clients against a warm ``repro-map serve``.

The server runs a ``process`` :class:`ExecutorPool` of ``nproc`` workers
on the default store tier.  Every request is one small job of identical
shape (64 ranks, 4 per node, ``UG,UWH``, evaluated); jobs are drawn
round-robin from a working set of 16 workloads (8 corpus matrices x 2
workload seeds derived from ``--seed``), which fits the server's
32-entry workload LRU and is warmed completely during set-up.

* set-up (timed, three times, median): spawn the server, wait until it
  listens, send every working-set job once.  The first two servers are
  drained again; the third serves the timed window.
* timed window: ``nproc`` client threads, each with its own connection,
  each sending its next request only after the previous reply.
* reference (untimed, after the window): the same 16 jobs built and
  mapped serially in this process; every answered ``mapping_fp`` must
  equal it.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Tuple

from perfbench import common
from perfbench.trace import Tracer

MATRICES = (
    "cage12_like",
    "ecology_like",
    "rgg_n21_like",
    "webbase_like",
    "cage15_like",
    "atmosmodd_like",
    "af_shell_like",
    "freescale_like",
)
ALGOS = ("UG", "UWH")
SETUP_REPEATS = 3
#: Requests per traced/untraced slice of a traced run, per client.
TRACE_SLICE = 25


def _entries(seed: int) -> List[dict]:
    return [
        {"matrix": m, "procs": 64, "ppn": 4, "algos": ",".join(ALGOS),
         "seed": 1000 * seed + k, "tag": f"w{k}-{m}"}
        for k in range(2)
        for m in MATRICES
    ]


def _start_server(run_dir: str, name: str, entries: List[dict]) -> Tuple[common.Child, float]:
    from repro.serve.client import ServeClient

    t0 = time.perf_counter()
    child = common.Child(
        name,
        ["serve", "--listen", "127.0.0.1:0", "--backend", "process",
         "--workers", str(common.nproc())],
        run_dir,
    )
    try:
        host, port = child.wait_listening().rsplit(":", 1)
        with ServeClient(host, int(port), tenant="warm", timeout=120.0) as client:
            for entry in entries:
                reply = client.map([entry])
                if not reply.get("ok"):
                    raise common.BenchError(f"warm-up request failed: {reply}")
    except BaseException:
        child.stop()
        raise
    return child, time.perf_counter() - t0


def _reference(entries: List[dict]) -> Dict[Tuple[int, str], int]:
    from collections import OrderedDict

    from repro.api.service import MappingService
    from repro.serve.protocol import requests_from_entries

    service = MappingService()
    out = {}
    for k, entry in enumerate(entries):
        (request,) = requests_from_entries([entry], {}, OrderedDict())
        for resp in service.map_batch(request):
            out[(k, resp.algorithm)] = resp.fingerprint()
    return out


def run(seed: int, seconds: float, trace: bool, run_dir: str, tracer: Tracer) -> dict:
    from repro.serve.client import ServeClient

    entries = _entries(seed)
    problems: List[str] = []
    setup_times: List[float] = []
    tracker_errors = 0
    child = None
    try:
        for rep in range(SETUP_REPEATS):
            child, dt = _start_server(run_dir, f"serve{rep}", entries)
            setup_times.append(dt)
            if rep < SETUP_REPEATS - 1:
                problems.extend(child.stop())
                tracker_errors += child.tracker_errors
                child = None
        host, port = child.address.rsplit(":", 1)
        port = int(port)
        with ServeClient(host, port, timeout=30.0) as admin:
            stats0 = admin.stats()
        pids = child.tree()
        cpu0 = common.cpu_seconds(pids)

        # -- timed window ------------------------------------------------
        clients = common.nproc()
        lock = threading.Lock()
        rr = itertools.count()
        replies: List[Tuple[int, float, dict, bool]] = []
        slice_time = {False: 0.0, True: 0.0}
        slice_ok = {False: 0, True: 0}
        samples: List[Tuple[int, int, float, float]] = []  # client, job, start, seconds
        window0 = time.perf_counter()
        tracer.enabled = trace  # client-side spans only; the program runs elsewhere
        deadline = time.perf_counter() + seconds

        def client_loop(index: int) -> None:
            with ServeClient(host, port, tenant=f"load-{index}", timeout=120.0) as conn:
                sent = 0
                t_iter = time.perf_counter()
                while t_iter < deadline:
                    traced = trace and (sent // TRACE_SLICE) % 2 == 1
                    with lock:
                        k = next(rr) % len(entries)
                    tracer.request_id = f"c{index}-{sent}"
                    t0 = time.perf_counter()
                    try:
                        if traced:
                            with tracer.span("serve.request"):
                                reply = conn.map([entries[k]])
                                tracer.child("mapping.remote", sum(
                                    res["map_time_s"] + res["prep_time_s"]
                                    for res in reply.get("results", ()) if res.get("ok")
                                ))
                        else:
                            reply = conn.map([entries[k]])
                    except Exception as exc:  # counted, printed, never fatal
                        reply = {"ok": False, "error": repr(exc)}
                    dt = time.perf_counter() - t0
                    with lock:
                        replies.append((k, dt, reply, traced))
                        samples.append((index, k, t0 - window0, dt))
                        slice_ok[traced] += bool(reply.get("ok"))
                        now = time.perf_counter()
                        slice_time[traced] += now - t_iter
                    t_iter = now
                    sent += 1

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = time.perf_counter() - window0
        tracer.enabled = False
        cpu = common.cpu_seconds(child.tree()) - cpu0
        rss = common.peak_rss_mb(child.tree())
        with ServeClient(host, port, timeout=30.0) as admin:
            stats1 = admin.stats()
        problems.extend(child.stop())
        tracker_errors += child.tracker_errors
        child = None
    finally:
        if child is not None:
            child.stop()

    # -- verification against the serial reference -----------------------
    reference = _reference(entries)
    attempted = failed = 0
    lat: List[float] = []
    map_times: Dict[str, List[float]] = {a: [] for a in ALGOS}
    grouping_hits = grouping_total = 0
    mismatches: List[str] = []
    for k, dt, reply, traced in replies:
        attempted += len(ALGOS)
        results = reply.get("results") or []
        good = 0
        if reply.get("ok"):
            for res in results:
                if not res.get("ok"):
                    mismatches.append(f"{entries[k]['tag']}: {res.get('error')}")
                elif res["mapping_fp"] != reference[(k, res["algorithm"])]:
                    mismatches.append(f"{entries[k]['tag']} {res['algorithm']}: fingerprint differs")
                else:
                    good += 1
                    if traced or not trace:
                        map_times[res["algorithm"]].append(res["map_time_s"])
                        grouping_hits += bool(res.get("grouping_cached"))
                        grouping_total += 1
        else:
            mismatches.append(f"{entries[k]['tag']}: {reply.get('error')}")
        failed += len(ALGOS) - good
        if good == len(ALGOS):
            lat.append(dt)
    ok_total = attempted - failed

    c0, c1 = stats0["counters"], stats1["counters"]
    store = (stats1.get("pool") or {}).get("store") or {}
    store0 = (stats0.get("pool") or {}).get("store") or {}
    server_map_p50 = stats1["latency"]["map"].get("p50_ms", 0.0)
    client_p50 = common.median(lat) * 1e3
    p95 = common.percentile(lat, 95) * 1e3 if common.tail_ok(len(lat), 95) else None
    layer_values = {
        "api.cache.grouping_hit_ratio": grouping_hits / grouping_total if grouping_total else 0.0,
        "api.store.saves": store.get("saves", 0) - store0.get("saves", 0),
        "api.store.save_skips": store.get("save_skips", 0) - store0.get("save_skips", 0),
        "api.store.loads": store.get("loads", 0) - store0.get("loads", 0),
        "api.store.load_hits": store.get("load_hits", 0) - store0.get("load_hits", 0),
        "api.pool.restarts": (stats1.get("pool") or {}).get("restarts", 0),
        "api.store.shm_tracker_errors": tracker_errors,
        "serve.queue_wait_p50_ms": stats1["latency"]["queue_wait"].get("p50_ms", 0.0),
        "serve.execute_p50_ms": stats1["latency"]["execute"].get("p50_ms", 0.0),
        "serve.wire_p50_ms": client_p50 - server_map_p50,
        "serve.latency_p95_ms": p95 or 0.0,
        "serve.dispatches": c1["dispatches"] - c0["dispatches"],
        "serve.mean_batch": (
            (c1["dispatched_requests"] - c0["dispatched_requests"])
            / max(c1["dispatches"] - c0["dispatches"], 1)
        ),
        "serve.shed": c1["shed"] - c0["shed"],
        "serve.expired": c1["deadline_expired"] - c0["deadline_expired"],
    }
    for algo, times in map_times.items():
        layer_values[f"mapping.{algo}.ms_geomean"] = common.geomean(times) * 1e3
    window_agg = tracer.take()
    end_to_end = {
        "setup_s": common.median(setup_times),
        "throughput_mps": ok_total / window,
        "map_ms_geomean": common.geomean([d / len(ALGOS) for d in lat]) * 1e3,
        "cpu_ms_per_mapping": cpu * 1e3 / max(ok_total, 1),
        "ok_frac": ok_total / max(attempted, 1),
        "peak_rss_mb": rss,
        "latency_p50_ms": client_p50,
        "latency_p95_ms": p95,
    }
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
        # client-thread time of the traced slices
        "traced_wall_s": slice_time[True],
        "throughput_untraced": slice_ok[False] * len(ALGOS) / slice_time[False] * clients
        if slice_time[False] else 0.0,
        "throughput_traced": slice_ok[True] * len(ALGOS) / slice_time[True] * clients
        if slice_time[True] else 0.0,
        "extra": {
            "setup_times_s": setup_times,
            "requests": len(replies),
            "clients": clients,
            "window_s": window,
            "server_map_p50_ms": server_map_p50,
            "shm_tracker_errors": tracker_errors,
        },
        "store_tier": store.get("tier", "?"),
    }
