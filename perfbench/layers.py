"""Where the traced run hooks the program, and how layers are named.

Every hook wraps a public (or registry-looked-up) function from the
outside; names are ``<module>.<what>`` after the package's subpackages.
"""

from __future__ import annotations

from perfbench.trace import Tracer

#: The seven algorithms of the paper, in figure order.
PAPER_ALGOS = ("DEF", "TMAP", "SMAP", "UG", "UWH", "UMC", "UMMC")

_REFINE_NAMES = {"wh": "mapping.refine_wh", "mc": "mapping.refine_mc", "mmc": "mapping.refine_mmc"}


def install(tracer: Tracer) -> None:
    """Wrap the in-process layers: data, partition, mapping, kernels, ..."""
    import repro.api.executor as executor
    import repro.api.service as service
    import repro.api.stages as stages
    import repro.data.corpus as corpus
    import repro.experiments.harness as harness
    import repro.mapping.pipeline as pipeline
    import repro.mapping.refine_wh as refine_wh
    import repro.mapping.topomap as topomap
    from repro.dist import coordinator
    from repro.dist.remote import RemoteArtifactStore
    from repro.hypergraph.model import Hypergraph
    from repro.kernels.congestion import CongestionModel
    from repro.kernels.hoptable import HopTable
    from repro.partition.toolbox import Partitioner
    from repro.topology.routing import RouteTable

    # set-up layers: corpus matrix -> hypergraph -> partition
    tracer.patch(corpus, "load_matrix", "data.load_matrix")
    tracer.patch(harness, "load_matrix", "data.load_matrix")
    tracer.patch(Hypergraph, "from_matrix", "hypergraph.build")
    tracer.patch(Partitioner, "partition", "partition.build")

    # mapping stages, looked up by name in the api/stages registries
    tracer.patch(pipeline, "prepare_groups", "mapping.grouping")
    tracer.patch_items(stages.GROUPING_STAGES, "mapping.grouping")
    tracer.patch_items(stages.PLACEMENT_STAGES, "mapping.placement")
    tracer.patch_items(
        stages.REFINE_STAGES,
        lambda key: _REFINE_NAMES.get(key, f"mapping.refine_{key}"),
    )
    tracer.patch_items(stages.FINE_REFINE_STAGES, "mapping.fine")

    # kernels, topology, metrics
    tracer.patch(CongestionModel, "evaluate_swaps", "kernels.evaluate_swaps")
    tracer.patch(CongestionModel, "commit_swap", "kernels.commit_swap")
    tracer.patch(refine_wh, "batched_swap_gains", "kernels.swap_gain")
    tracer.patch(HopTable, "__init__", "kernels.hop_table_build")
    tracer.patch(RouteTable, "build", "topology.route_build")
    tracer.patch(service, "evaluate_mapping", "metrics.evaluate")
    tracer.patch(topomap, "evaluate_mapping", "metrics.evaluate")

    # execution engine and the coordinator side of dist/
    tracer.patch(service, "build_plan", "api.plan", observe=_count_plan_nodes)
    tracer.patch(executor, "execute_plan", "api.execute")
    tracer.patch(coordinator, "run_sharded", "dist.run_sharded", adapt=_router_stats(tracer))
    tracer.patch(RemoteArtifactStore, "save", "dist.store.save")
    tracer.patch(RemoteArtifactStore, "load", "dist.store.load")


def _router_stats(tracer: Tracer):
    """Pass ``run_sharded`` a ``stats_out`` dict and keep what it reports."""

    def adapt(run_sharded):
        def call(*args, **kwargs):
            stats: dict = {}
            kwargs.setdefault("stats_out", stats)
            try:
                return run_sharded(*args, **kwargs)
            finally:
                tracer.records.append(stats)

        return call

    return adapt


def _count_plan_nodes(tracer: Tracer, plan) -> None:
    tracer.counts["api.plan_nodes"] += len(plan.nodes)


#: Every per-layer metric, in BENCHMARK.json order; a workload that does
#: not load a layer reports 0 for it.
PER_LAYER = [
    ("partition.build_s", "s"),
    ("partition.calls", "count"),
    ("hypergraph.build_s", "s"),
    ("data.load_matrix_s", "s"),
    ("mapping.grouping_s", "s"),
    ("mapping.grouping_calls", "count"),
    ("mapping.placement_s", "s"),
    ("mapping.refine_wh_s", "s"),
    ("mapping.refine_mc_s", "s"),
    ("mapping.refine_mmc_s", "s"),
    ("mapping.fine_s", "s"),
    *[(f"mapping.{a}.ms_geomean", "ms") for a in PAPER_ALGOS],
    ("kernels.evaluate_swaps_s", "s"),
    ("kernels.evaluate_swaps_calls", "count"),
    ("kernels.commit_swap_calls", "count"),
    ("kernels.swap_gain_s", "s"),
    ("kernels.hop_table_builds", "count"),
    ("topology.route_build_s", "s"),
    ("topology.route_build_calls", "count"),
    ("metrics.evaluate_s", "s"),
    ("metrics.evaluate_calls", "count"),
    ("api.plan_s", "s"),
    ("api.plan_nodes", "count"),
    ("api.execute_self_s", "s"),
    ("api.cache.grouping_hit_ratio", "ratio"),
    ("api.cache.route_table_hit_ratio", "ratio"),
    ("api.store.saves", "count"),
    ("api.store.save_skips", "count"),
    ("api.store.loads", "count"),
    ("api.store.load_hits", "count"),
    ("api.pool.restarts", "count"),
    ("api.store.shm_tracker_errors", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.execute_p50_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.latency_p95_ms", "ms"),
    ("serve.mean_batch", "requests"),
    ("serve.dispatches", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("dist.nodes_per_host_max_min", "ratio"),
    ("dist.steals", "count"),
    ("dist.reroutes", "count"),
    ("dist.hosts_lost", "count"),
    ("dist.store.saves", "count"),
    ("dist.store.loads", "count"),
    ("dist.store.bytes", "bytes"),
    ("dist.run_sharded_self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_pct", "%"),
]

#: span name -> (busy-time metric, call-count metric or None)
SPAN_METRICS = {
    "partition.build": ("partition.build_s", "partition.calls"),
    "hypergraph.build": ("hypergraph.build_s", None),
    "data.load_matrix": ("data.load_matrix_s", None),
    "mapping.grouping": ("mapping.grouping_s", "mapping.grouping_calls"),
    "mapping.placement": ("mapping.placement_s", None),
    "mapping.refine_wh": ("mapping.refine_wh_s", None),
    "mapping.refine_mc": ("mapping.refine_mc_s", None),
    "mapping.refine_mmc": ("mapping.refine_mmc_s", None),
    "mapping.fine": ("mapping.fine_s", None),
    "kernels.evaluate_swaps": ("kernels.evaluate_swaps_s", "kernels.evaluate_swaps_calls"),
    "kernels.commit_swap": (None, "kernels.commit_swap_calls"),
    "kernels.swap_gain": ("kernels.swap_gain_s", None),
    "kernels.hop_table_build": (None, "kernels.hop_table_builds"),
    "topology.route_build": ("topology.route_build_s", "topology.route_build_calls"),
    "metrics.evaluate": ("metrics.evaluate_s", "metrics.evaluate_calls"),
    "api.plan": ("api.plan_s", None),
    "api.execute": ("api.execute_self_s", None),
    "dist.run_sharded": ("dist.run_sharded_self_s", None),
}


SETUP_LAYERS = ("partition", "hypergraph", "data")


def span_metrics(window: dict, setup: dict) -> dict:
    """Busy (self) time and call counts per layer from two span aggregates.

    *setup* aggregates one traced set-up (the data, hypergraph and
    partition layers); *window* the traced part of the timed window.
    Both are :meth:`Tracer.take` results.
    """
    out = {}
    for span, (time_key, count_key) in SPAN_METRICS.items():
        src = setup if span.split(".")[0] in SETUP_LAYERS else window
        if time_key:
            out[time_key] = src["self_s"].get(span, 0.0)
        if count_key:
            out[count_key] = src["calls"].get(span, 0)
    out.update(window["counts"])
    return out


def finish_per_layer(values: dict) -> dict:
    """Every per-layer metric with its unit (0 where the layer is idle)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }


def cache_ratios(stats: dict) -> dict:
    """Hit ratios from ``{namespace: {hits, misses}}`` cache statistics."""
    out = {}
    for ns, key in (("grouping", "api.cache.grouping_hit_ratio"),
                    ("route_table", "api.cache.route_table_hit_ratio")):
        s = stats.get(ns) or {}
        total = s.get("hits", 0) + s.get("misses", 0)
        if total:
            out[key] = s["hits"] / total
    return out
