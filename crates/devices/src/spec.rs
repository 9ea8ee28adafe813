//! Device parameter sets.

use spread_trace::SimDuration;

/// The kernel cost model of one device.
///
/// A kernel over `iters` iterations, each costing `work_per_iter_ns` of
/// single-lane device time, launched with `teams × threads` requested
/// parallelism, takes
///
/// ```text
/// launch_latency + iters * work_per_iter_ns * time_scale / min(teams*threads, max_parallelism)
/// ```
///
/// `max_parallelism` is the device's saturation point (≈ its core count):
/// requesting more parallelism than the hardware has doesn't help, which
/// is why the paper's per-device kernels scale with the *number of
/// devices* (more aggregate cores) but not with `num_teams` alone.
#[derive(Clone, Debug)]
pub struct ComputeModel {
    /// Fixed cost of launching any kernel.
    pub launch_latency: SimDuration,
    /// Parallel lanes the hardware can actually run.
    pub max_parallelism: u32,
    /// Global multiplier on per-iteration work (used to scale the
    /// simulation to paper-magnitude times; see `Topology::ctepower`).
    pub time_scale: f64,
}

impl ComputeModel {
    /// Duration of a kernel under this model.
    pub fn kernel_duration(
        &self,
        iters: u64,
        work_per_iter_ns: f64,
        teams: u32,
        threads_per_team: u32,
    ) -> SimDuration {
        let requested = (teams as u64).saturating_mul(threads_per_team as u64);
        let p = requested.clamp(1, self.max_parallelism as u64) as f64;
        let work_ns = iters as f64 * work_per_iter_ns * self.time_scale / p;
        self.launch_latency + SimDuration::from_secs_f64(work_ns / 1e9)
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            launch_latency: SimDuration::from_micros(8),
            max_parallelism: 5120,
            time_scale: 1.0,
        }
    }
}

/// Static description of one accelerator.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Human-readable name ("V100-sim").
    pub name: String,
    /// Global memory capacity in bytes.
    pub mem_bytes: u64,
    /// Per-DMA-operation launch latency (the cost of one `cudaMemcpy`
    /// call, independent of size).
    pub dma_latency: SimDuration,
    /// Kernel cost model.
    pub compute: ComputeModel,
    /// Default-stream semantics: when true, the device's H2D copies,
    /// D2H copies and kernels all serialize on one queue — the behaviour
    /// of the paper's runtime (its Figure 4 shows kernels *interleaved*
    /// with transfers, never overlapped). When false the device has
    /// independent copy engines and a compute queue ("separate streams",
    /// the ablation model).
    pub single_queue: bool,
}

impl DeviceSpec {
    /// A V100-like device with 16 GB of memory and default cost model.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "V100-sim".to_string(),
            mem_bytes: 16 * (1 << 30),
            dma_latency: SimDuration::from_micros(10),
            compute: ComputeModel::default(),
            single_queue: true,
        }
    }

    /// Override the memory capacity.
    pub fn with_mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Select default-stream (`true`) or separate-streams (`false`)
    /// engine semantics.
    pub fn with_single_queue(mut self, single_queue: bool) -> Self {
        self.single_queue = single_queue;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_duration_scales_with_parallelism() {
        let m = ComputeModel {
            launch_latency: SimDuration::ZERO,
            max_parallelism: 64,
            time_scale: 1.0,
        };
        let one = m.kernel_duration(1000, 100.0, 1, 1);
        let four = m.kernel_duration(1000, 100.0, 1, 4);
        assert_eq!(one.as_nanos(), 100_000);
        assert_eq!(four.as_nanos(), 25_000);
    }

    #[test]
    fn kernel_duration_saturates() {
        let m = ComputeModel {
            launch_latency: SimDuration::ZERO,
            max_parallelism: 8,
            time_scale: 1.0,
        };
        let at_sat = m.kernel_duration(800, 10.0, 1, 8);
        let over_sat = m.kernel_duration(800, 10.0, 4, 128);
        assert_eq!(at_sat, over_sat, "beyond-saturation parallelism is free");
        assert_eq!(at_sat.as_nanos(), 1000);
    }

    #[test]
    fn launch_latency_always_paid() {
        let m = ComputeModel {
            launch_latency: SimDuration::from_micros(5),
            max_parallelism: 8,
            time_scale: 1.0,
        };
        assert_eq!(
            m.kernel_duration(0, 100.0, 1, 1),
            SimDuration::from_micros(5)
        );
    }

    #[test]
    fn time_scale_multiplies_work_not_latency() {
        let m = ComputeModel {
            launch_latency: SimDuration::from_nanos(7),
            max_parallelism: 1,
            time_scale: 10.0,
        };
        let d = m.kernel_duration(10, 1.0, 1, 1);
        assert_eq!(d.as_nanos(), 7 + 100);
    }

    #[test]
    fn zero_parallelism_clamped() {
        let m = ComputeModel::default();
        // teams=0 would divide by zero without the clamp.
        let d = m.kernel_duration(10, 1.0, 0, 0);
        assert!(d >= m.launch_latency);
    }

    #[test]
    fn v100_preset() {
        let s = DeviceSpec::v100();
        assert_eq!(s.mem_bytes, 16 * 1024 * 1024 * 1024);
        let s2 = s.clone().with_mem_bytes(1024);
        assert_eq!(s2.mem_bytes, 1024);
        assert_eq!(s.mem_bytes, 16 * 1024 * 1024 * 1024);
    }
}
