"""Workload ``fig3_sweep``: the paper's Fig. 2/3 sweep, serial, in process.

Inputs: the PATOH task graphs of three corpus matrices (``cage12_like``,
``ecology_like``, ``webbase_like``) at 64 and 128 ranks, on the two sparse
allocations of the ``ci`` profile; every request runs the paper's seven
algorithms with ``evaluate=True``.  ``--seed`` is mixed into every
request's mapping and grouping seed; matrices, partitions and machines
are the same for every seed.  A mapping's cost still depends on its seed
(UMC/UMMC on ``webbase_like`` take 0.2-0.85 s), so a run draws
``VARIANTS`` seed variants of the sweep from ``--seed`` and its passes
cycle through them: every run averages several draws, not one.

* set-up (timed, three times, median): corpus matrix -> hypergraph ->
  partition -> task graph, plus the machines, via the experiment harness.
* timed window: whole passes over the sweep, each on a fresh
  ``MappingService`` and the next variant (a traced run maps each
  variant twice, untraced then traced); every (request, algorithm) is one
  ``map_batch`` call on the serial engine, in sweep order.  Passes repeat
  until their summed wall time reaches ``--seconds``, so every pass has
  the same shape.  Throughput and CPU count the passes only.
* reference (untimed): each variant's whole sweep through one
  ``map_batch`` call on a fresh serial service, computed just before the
  variant's first pass.  Interleaved so, the timed passes spread over
  twice the wall time, and a slow phase of the host (seconds to a minute)
  weighs on fewer of them.

The workload is single-threaded, and on a shared VM each vCPU is slowed
by its own neighbours, independently and for minutes at a time; a thread
the scheduler leaves on the slow vCPU reads 40 % slow.  So set-up builds
and requests take turns on the CPUs (:func:`_rotate_cpu`), shifted by
one each pass: every run sees the average of all of them.  A request's
data is new to the cache anyway, so moving at request boundaries costs
little; moving every mapping halved the spread but made small mappings
~20 % slower.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from typing import Dict, List, Tuple

from perfbench import common
from perfbench.layers import PAPER_ALGOS, cache_ratios, span_metrics
from perfbench.trace import Tracer

MATRICES = ("cage12_like", "ecology_like", "webbase_like")
PROCS = (64, 128)
ROWS_PER_UNIT = 600
SETUP_REPEATS = 3
VARIANTS = 4


_CPUS = sorted(os.sched_getaffinity(0))


def _rotate_cpu(step: int) -> None:
    """Run the next unit of work on the next CPU of this process's set."""
    os.sched_setaffinity(0, {_CPUS[step % len(_CPUS)]})


def _profile():
    from repro.experiments.profiles import get_profile

    return dataclasses.replace(
        get_profile("ci"),
        name="perfbench",
        rows_per_unit=ROWS_PER_UNIT,
        proc_counts=PROCS,
        corpus_names=MATRICES,
    )


def _setup(seed: int):
    from repro.experiments.fig2 import sweep_requests
    from repro.experiments.harness import WorkloadCache
    from repro.util.rng import mix_seed

    profile = _profile()
    cache = WorkloadCache(profile)
    step = 0
    for entry in cache.corpus_entries():
        for procs in profile.proc_counts:
            _rotate_cpu(step)
            step += 1
            cache.workload(entry.name, "PATOH", procs)
    for procs in profile.proc_counts:
        for alloc in profile.alloc_seeds:
            cache.machine(procs, alloc)
    base = sweep_requests(profile, cache, mappers=PAPER_ALGOS)
    variants = []
    for v in range(VARIANTS):
        salt = mix_seed(seed, v)
        variants.append([
            dataclasses.replace(
                req,
                seed=mix_seed(req.seed, salt),
                grouping_seed=mix_seed(req.effective_grouping_seed, salt),
            )
            for req in base
        ])
    return variants


def _quality(requests, responses) -> Dict[str, float]:
    """Geo-mean metric(ALGO)/metric(DEF) over the sweep's requests."""
    by_req: Dict[Tuple[int, str], dict] = {}
    per = len(PAPER_ALGOS)
    for i, resp in enumerate(responses):
        by_req[(i // per, resp.algorithm)] = resp.metrics.as_dict()
    ratios = {"wh_vs_def": [], "mc_vs_def": [], "mmc_vs_def": []}
    wins = {k: 0 for k in ratios}
    for r in range(len(requests)):
        base = by_req[(r, "DEF")]
        for key, algo, metric in (("wh_vs_def", "UWH", "WH"), ("mc_vs_def", "UMC", "MC"),
                                  ("mmc_vs_def", "UMMC", "MMC")):
            ratio = by_req[(r, algo)][metric] / base[metric]
            ratios[key].append(ratio)
            wins[key] += ratio < 1.0
    out = {k: common.geomean(v) for k, v in ratios.items()}
    out.update({f"{k}_wins": wins[k] for k in wins})
    out["instances"] = len(requests)
    return out


def run(seed: int, seconds: float, trace: bool, run_dir: str, tracer: Tracer) -> dict:
    from repro.api.service import MappingService

    # -- set-up, timed several times ---------------------------------------
    setup_times: List[float] = []
    variants = None
    for rep in range(SETUP_REPEATS):
        variants = None
        gc.collect()
        traced = trace and rep == SETUP_REPEATS - 1
        if traced:
            tracer.start()
        t0 = time.perf_counter()
        variants = _setup(seed)
        setup_times.append(time.perf_counter() - t0)
        tracer.stop()
    setup_agg = tracer.take()
    os.sched_setaffinity(0, _CPUS)

    # -- serial in-process reference, one variant at a time ----------------
    reference: Dict[Tuple[int, int, str], str] = {}
    ref_done: Dict[int, list] = {}

    def ensure_reference(v: int) -> None:
        if v in ref_done:
            return
        os.sched_setaffinity(0, _CPUS)
        ref_responses = MappingService().map_batch(variants[v])
        i = 0
        for r, req in enumerate(variants[v]):
            for algo in req.algorithms:
                resp = ref_responses[i]
                assert resp.algorithm == algo
                reference[(v, r, algo)] = resp.fingerprint()
                i += 1
        ref_done[v] = ref_responses

    # -- timed window: whole passes, the references between them ------------
    lat: List[float] = []
    samples: List[Tuple[int, int, float, float]] = []  # pass, item, start, seconds
    map_times: Dict[str, List[float]] = {a: [] for a in PAPER_ALGOS}
    attempted = failed = 0
    mismatches: List[str] = []
    pass_walls = {False: [], True: []}
    pass_counts = {False: 0, True: 0}
    cache_stats: Dict[str, dict] = {}
    window = cpu = 0.0
    window0 = time.perf_counter()
    passes = 0
    # A traced run maps each variant untraced then traced: it ends on a whole pair.
    min_passes = 2 if trace else 1
    while passes < min_passes or (trace and passes % 2) or window < seconds:
        traced = trace and passes % 2 == 1
        v = (passes // 2 if trace else passes) % VARIANTS
        requests = variants[v]
        ensure_reference(v)  # untimed
        gc.collect()
        if traced:
            tracer.start()
        service = MappingService()
        cpu0 = time.process_time()
        t_pass = time.perf_counter()
        n_ok = 0
        item = 0
        for r, req in enumerate(requests):
            _rotate_cpu(r + passes)
            for algo in req.algorithms:
                item += 1
                one = dataclasses.replace(req, algorithms=(algo,))
                tracer.request_id = f"p{passes}-r{r}-{algo}"
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("bench.mapping"):
                        resp = service.map_batch(one)[0]
                    ok = resp.ok
                except Exception as exc:  # counted, printed, never fatal
                    ok, resp = False, None
                    mismatches.append(f"{tracer.request_id}: {exc!r}")
                dt = time.perf_counter() - t0
                if ok and resp.fingerprint() != reference[(v, r, algo)]:
                    ok = False
                    mismatches.append(
                        f"pass {passes} variant {v} request {r} {algo}: fingerprint differs"
                    )
                if not ok:
                    failed += 1
                    continue
                n_ok += 1
                lat.append(dt)
                samples.append((passes, item, t0 - window0, dt))
                if traced or not trace:
                    map_times[algo].append(resp.map_time)
        wall = time.perf_counter() - t_pass
        cpu += time.process_time() - cpu0
        tracer.stop()
        window += wall
        pass_walls[traced].append(wall)
        pass_counts[traced] += n_ok
        if traced or not trace:
            for ns, s in service.cache.stats().items():
                agg = cache_stats.setdefault(ns, {"hits": 0, "misses": 0})
                agg["hits"] += s.hits
                agg["misses"] += s.misses
        passes += 1
    for v in range(VARIANTS):  # the paper orderings cover every variant
        ensure_reference(v)
    os.sched_setaffinity(0, _CPUS)
    quality = _quality(
        [req for v in range(VARIANTS) for req in variants[v]],
        [resp for v in range(VARIANTS) for resp in ref_done[v]],
    )
    del ref_done
    ok_total = attempted - failed

    untraced_tp = pass_counts[False] / sum(pass_walls[False]) if pass_walls[False] else 0.0
    traced_tp = pass_counts[True] / sum(pass_walls[True]) if pass_walls[True] else 0.0
    end_to_end = {
        "setup_s": common.median(setup_times),
        "throughput_mps": ok_total / window,
        "map_ms_geomean": common.geomean(lat) * 1e3,
        "cpu_ms_per_mapping": cpu * 1e3 / max(ok_total, 1),
        "ok_frac": ok_total / max(attempted, 1),
        "peak_rss_mb": common.self_peak_rss_mb(),
        "latency_p50_ms": common.median(lat) * 1e3,
        "latency_p95_ms": common.percentile(lat, 95) * 1e3
        if common.tail_ok(len(lat), 95) else None,
        "wh_vs_def": quality["wh_vs_def"],
        "mc_vs_def": quality["mc_vs_def"],
        "mmc_vs_def": quality["mmc_vs_def"],
    }
    window_agg = tracer.take()
    layer_values = span_metrics(window_agg, setup_agg)
    layer_values.update(cache_ratios(cache_stats))
    for algo, times in map_times.items():
        layer_values[f"mapping.{algo}.ms_geomean"] = common.geomean(times) * 1e3
    checks = []
    for key in ("wh_vs_def", "mc_vs_def", "mmc_vs_def"):
        if not quality[key] < 1.0:
            checks.append(f"paper ordering violated: {key} = {quality[key]:.4f} >= 1")
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "checks": checks,
        "end_to_end": end_to_end,
        "layer_values": layer_values,
        "window_agg": window_agg,
        "samples": samples,
        "traced_wall_s": sum(pass_walls[True]),
        "throughput_untraced": untraced_tp,
        "throughput_traced": traced_tp,
        "extra": {
            "quality": quality,
            "setup_times_s": setup_times,
            "passes": passes,
            "mappings_per_pass": sum(len(r.algorithms) for r in variants[0]),
            "variants": VARIANTS,
            "window_s": window,
            "mappings_timed": len(lat),
        },
        "store_tier": "none (in-memory cache)",
    }
