//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `../BENCHMARK.json` states the
//! same tables for the driver; a self-test keeps the two identical.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    /// The name printed in every output.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end only: the share of the base value by which the metric may
    /// get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim-ranking-100k",
        "ranking, 100k static nodes, view 10, 100 slices: working set far beyond cache; membership, refresh and active sweeps dominate",
    ),
    (
        "sim-modjk-churn-10k",
        "mod-JK, 10k nodes, view 20, half-concurrent swaps, 0.1% churn and metrics every cycle: in-cache; slab, rank-cache and sampler writes dominate",
    ),
    (
        "scenario-matrix",
        "all 26 library scenarios (n<=1000, 240-300 cycles) byte-compared to their goldens: construction, accuracy probes, reports and defences dominate",
    ),
    (
        "net-loopback-8",
        "8 TCP nodes on loopback gossiping every 20 ms, one closed-loop probe client: net, codec and the vendored tokio do the work, sim does none",
    ),
];

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one; what a unit of work and an operation are is per workload (see
/// the README): a node-cycle and an engine cycle for `sim-*`, a node-cycle
/// and a scenario run for `scenario-matrix`, a probe exchange for
/// `net-loopback-8`.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p75", "ms", Lower, 0.25),
    e2e("slice_accuracy", "fraction", Higher, 0.05),
    e2e("cpu_cores_busy", "cores", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics, measured only in the traced run. A layer that is not
/// on a workload's path reports 0 there: it did no work.
pub const PER_LAYER: [MetricSpec; 65] = [
    // sim: per-cycle phase means (children of the benchmark's step span).
    layer("sim.churn_ns", "ns", Lower),
    layer("sim.drain_ns", "ns", Lower),
    layer("sim.membership_ns", "ns", Lower),
    layer("sim.refresh_ns", "ns", Lower),
    layer("sim.active_ns", "ns", Lower),
    layer("sim.delivery_ns", "ns", Lower),
    layer("sim.metrics_ns", "ns", Lower),
    layer("sim.step_self_ns", "ns", Lower),
    layer("sim.engine_new_ms", "ms", Lower),
    layer("sim.events_per_cycle", "count", Higher),
    layer("sim.useful_swap_ratio", "fraction", Higher),
    layer("sim.dropped_msgs_per_cycle", "count", Lower),
    layer("sim.shard_speedup", "ratio", Higher),
    layer("sim.cpu_cores_busy", "cores", Lower),
    // core: timed loops over public calls at the workload's own c and n.
    layer("core.view_merge_ns", "ns", Lower),
    layer("core.view_refresh_ns", "ns", Lower),
    layer("core.slab_take_put_ns", "ns", Lower),
    layer("core.slab_insert_remove_ns", "ns", Lower),
    layer("core.rankcache_sdm_ns_per_node", "ns", Lower),
    layer("core.rankcache_churn_ns", "ns", Lower),
    layer("core.gdm_ns_per_node", "ns", Lower),
    // gossip
    layer("gossip.cyclon_exchange_ns", "ns", Lower),
    layer("gossip.remove_dead_ns", "ns", Lower),
    // algorithms
    layer("algorithms.ranking_active_ns", "ns", Lower),
    layer("algorithms.ranking_update_ns", "ns", Lower),
    layer("algorithms.modjk_active_ns", "ns", Lower),
    layer("algorithms.modjk_swap_ns", "ns", Lower),
    layer("algorithms.protocol_build_ns", "ns", Lower),
    layer("algorithms.counter_absorb_ns", "ns", Lower),
    layer("algorithms.window_absorb_ns", "ns", Lower),
    layer("algorithms.decay_absorb_ns", "ns", Lower),
    layer("algorithms.tukey_fences_ns", "ns", Lower),
    layer("algorithms.fence_trim_cuts_ns", "ns", Lower),
    // scenario
    layer("scenario.compile_ns", "ns", Lower),
    layer("scenario.run_s_p50", "s", Lower),
    layer("scenario.run_s_max", "s", Lower),
    layer("scenario.accuracy_probe_ns", "ns", Lower),
    layer("scenario.report_json_ns", "ns", Lower),
    layer("scenario.golden_compare_ns", "ns", Lower),
    // net
    layer("net.encode_view_ns", "ns", Lower),
    layer("net.decode_view_ns", "ns", Lower),
    layer("net.encode_update_ns", "ns", Lower),
    layer("net.decode_update_ns", "ns", Lower),
    layer("net.frame_bytes_view", "bytes", Lower),
    layer("net.frame_bytes_update", "bytes", Lower),
    layer("net.probe_send_ms_p50", "ms", Lower),
    layer("net.probe_wait_ms_p50", "ms", Lower),
    layer("net.exchange_ms_p99", "ms", Lower),
    layer("net.exchange_ms_max", "ms", Lower),
    layer("net.spawn_node_ms", "ms", Lower),
    layer("net.tick_rate_ratio", "ratio", Higher),
    layer("net.retries", "count", Lower),
    layer("net.timeouts", "count", Lower),
    layer("net.send_failures", "count", Lower),
    layer("net.queue_drops", "count", Lower),
    layer("net.evictions", "count", Lower),
    layer("net.peak_queue_depth", "count", Lower),
    layer("net.threads_peak", "count", Lower),
    layer("net.cpu_s_per_node_s", "ratio", Lower),
    // obs
    layer("obs.record_span_ns", "ns", Lower),
    layer("obs.record_instant_ns", "ns", Lower),
    layer("obs.counter_add_ns", "ns", Lower),
    layer("obs.histogram_observe_ns", "ns", Lower),
    layer("obs.to_chrome_ns_per_event", "ns", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
