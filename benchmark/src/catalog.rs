//! The metric catalogue: every metric the benchmark prints, with its
//! unit, which of the two clocks it reads, and which way is better.
//!
//! `BENCHMARK.json` repeats name, unit and direction (and fixes the
//! bound of each end-to-end metric); a test keeps the two in step.
//! The clock decides how `compare` treats a metric: *virtual* and
//! *count* metrics are bit-reproducible and must be identical between
//! two runs of one seed; *host* metrics are compared within a bound.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// The modelled node's time: deterministic.
    Virtual,
    /// An exact count or a ratio of exact counts: deterministic.
    Count,
    /// What the runtime costs on this machine: noisy.
    Host,
}

impl Clock {
    pub fn exact(self) -> bool {
        !matches!(self, Clock::Host)
    }

    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Count => "count",
            Clock::Host => "host",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End-to-end (reported by the untraced pass, bounded in
    /// `BENCHMARK.json`) or per-layer (traced pass, no bound).
    pub end_to_end: bool,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        end_to_end: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        end_to_end: false,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// `virt_s` is seconds of the modelled node. It is spelled apart from
/// `s` so nothing mistakes a value that repeats exactly by design for
/// a host timing that repeats because it was never measured.
pub const METRICS: &[MetricDef] = &[
    // ── end to end ──────────────────────────────────────────────────
    e2e("setup_s", "s", Host, Lower),
    e2e("host_wall_s", "s", Host, Lower),
    e2e("ops_per_s", "1/s", Host, Higher),
    e2e("op_us_p50", "us", Host, Lower),
    e2e("op_us_p90", "us", Host, Lower),
    e2e("virtual_s", "virt_s", Virtual, Lower),
    e2e("peak_rss_mb", "MB", Host, Lower),
    // ── table-level results of the Somier workloads (virtual) ───────
    layer("virtual_speedup", "x", Virtual, Higher),
    layer("paper_err_pct", "%", Virtual, Lower),
    // ── spread-core ─────────────────────────────────────────────────
    layer("core.plan_cold_ns", "ns", Host, Lower),
    layer("core.plan_warm_ns", "ns", Host, Lower),
    layer("core.plan_hit_ratio", "ratio", Count, Higher),
    layer("core.chunks_ns", "ns", Host, Lower),
    layer("core.issue_us", "us", Host, Lower),
    // ── spread-rt ───────────────────────────────────────────────────
    layer("rt.constructs", "count", Count, Lower),
    layer("rt.chunk_tasks", "count", Count, Lower),
    layer("rt.h2d_bytes", "B", Count, Lower),
    layer("rt.d2h_bytes", "B", Count, Lower),
    layer("rt.peer_bytes", "B", Count, Lower),
    layer("rt.races", "count", Count, Lower),
    layer("rt.mem_peak_bytes", "B", Count, Lower),
    layer("rt.taskgraph_ns_per_task", "ns", Host, Lower),
    layer("rt.taskgraph_x_narrow", "x", Host, Lower),
    layer("rt.presence_ns_per_map", "ns", Host, Lower),
    layer("rt.presence_hit_ns", "ns", Host, Lower),
    layer("rt.drain_us", "us", Host, Lower),
    layer("rt.copy_bound_s", "s", Host, Lower),
    layer("rt.copy_est_s", "s", Host, Lower),
    layer("rt.op_us_p99", "us", Host, Lower),
    layer("rt.op_us_drift_pct", "%", Host, Lower),
    layer("rt.unattributed_pct", "%", Host, Lower),
    // ── spread-devices ──────────────────────────────────────────────
    layer("devices.dma_ops", "count", Count, Lower),
    layer("devices.kernel_ops", "count", Count, Lower),
    layer("devices.alloc_ns", "ns", Host, Lower),
    layer("devices.alloc_copy_gbps", "GB/s", Host, Higher),
    layer("devices.dma_ns_per_op", "ns", Host, Lower),
    layer("devices.compute_ns_per_op", "ns", Host, Lower),
    // ── spread-sim ──────────────────────────────────────────────────
    layer("sim.event_ns", "ns", Host, Lower),
    layer("sim.max_concurrent_flows", "count", Count, Lower),
    layer("sim.maxmin_ns", "ns", Host, Lower),
    layer("sim.maxmin_x_narrow", "x", Host, Lower),
    layer("sim.flow_ns", "ns", Host, Lower),
    // ── spread-teams ────────────────────────────────────────────────
    layer("teams.kernel_busy_s", "s", Host, Lower),
    layer("teams.broadcast_ns.t1", "ns", Host, Lower),
    layer("teams.broadcast_ns.t2", "ns", Host, Lower),
    layer("teams.parallel_for_melem_s.t1", "Melem/s", Host, Higher),
    layer("teams.parallel_for_melem_s.t2", "Melem/s", Host, Higher),
    layer("teams.scaling_t2", "x", Host, Higher),
    layer("storm.tt2_us_p50", "us", Host, Lower),
    // ── spread-trace ────────────────────────────────────────────────
    layer("trace.spans", "count", Count, Lower),
    layer("trace.record_ns", "ns", Host, Lower),
    layer("trace.snapshot_ms", "ms", Host, Lower),
    layer("trace.overhead_pct", "%", Host, Lower),
    // ── spread-somier ───────────────────────────────────────────────
    layer("somier.reference_s", "s", Host, Lower),
    layer("somier.host_slowdown_vs_ref", "x", Host, Lower),
    layer("somier.cell_host_s.one_buffer.1gpu", "s", Host, Lower),
    layer("somier.cell_host_s.one_buffer.2gpu", "s", Host, Lower),
    layer("somier.cell_host_s.one_buffer.4gpu", "s", Host, Lower),
    layer("somier.cell_host_s.two_buffers.2gpu", "s", Host, Lower),
    layer("somier.cell_host_s.two_buffers.4gpu", "s", Host, Lower),
    layer("somier.cell_host_s.double_buffering.2gpu", "s", Host, Lower),
    layer("somier.cell_host_s.double_buffering.4gpu", "s", Host, Lower),
    layer(
        "somier.cell_virtual_s.one_buffer.1gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    layer(
        "somier.cell_virtual_s.one_buffer.2gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    layer(
        "somier.cell_virtual_s.one_buffer.4gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    layer(
        "somier.cell_virtual_s.two_buffers.2gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    layer(
        "somier.cell_virtual_s.two_buffers.4gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    layer(
        "somier.cell_virtual_s.double_buffering.2gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    layer(
        "somier.cell_virtual_s.double_buffering.4gpu",
        "virt_s",
        Virtual,
        Lower,
    ),
    // ── the modelled node, headline rep (virtual) ───────────────────
    layer("virt.transfer_share_pct", "%", Virtual, Lower),
    layer("virt.overlap_pct", "%", Virtual, Higher),
    layer("virt.kernel_busy_s", "virt_s", Virtual, Lower),
    layer("virt.transfer_busy_s", "virt_s", Virtual, Lower),
    layer("virt.link_saturated_s", "virt_s", Virtual, Lower),
    layer("virt.idle_s", "virt_s", Virtual, Lower),
    // ── this machine ────────────────────────────────────────────────
    layer("host.memcpy_gbps", "GB/s", Host, Higher),
    layer("host.nproc", "count", Count, Higher),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        for (i, d) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|e| e.name != d.name), "{}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics with
    /// the same units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            let ours: Vec<&MetricDef> = METRICS
                .iter()
                .filter(|d| d.end_to_end == end_to_end)
                .collect();
            assert_eq!(listed.len(), ours.len(), "{key}: metric count");
            for (entry, def) in listed.iter().zip(ours) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).expect(k);
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.label(), "{}", def.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound.is_some(), end_to_end, "{}: bound", def.name);
                assert!(bound.is_none_or(|b| (0.0..=0.25).contains(&b)));
            }
        }
        let listed = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = listed
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            let why = entry.get("why").and_then(Json::as_str).expect("why");
            assert_eq!(why, w.why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
