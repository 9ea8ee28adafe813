//! Somier configuration and calibration.
//!
//! ## Scaling to the paper's experiment
//!
//! The paper runs `n = 1200` (12 grids × 1200³ × 8 B ≈ 154.5 GB ≈ 10×
//! one V100's 16 GB) for 31 time steps. We run the same *shape* scaled
//! down: the default reproduction size is `n = 120` with each device's
//! memory set to `total / MEM_RATIO` so every scheduling decision
//! (buffers per step, chunks per buffer, halos) is identical in
//! structure. A single `time_scale` then multiplies all modeled costs
//! (equivalently, divides all bandwidths) so reported virtual times land
//! in the paper's magnitude; it does not change who wins or by how much.
//!
//! ## Calibration constants
//!
//! `DESIGN.md` §2 derives the interconnect calibration (link 12 GB/s,
//! switch 14 GB/s, host bus 21 GB/s) from Table I's transfer speedups.
//! The kernel cost constants below are *fitted* so the 1-GPU run splits
//! roughly 72% transfer / 28% kernel time — the regime the paper
//! describes ("the execution time was mainly dominated by memory
//! transfers", §VI-B); they are not derived from first principles.

use spread_devices::{ComputeModel, DeviceSpec, Topology};
use spread_rt::{Runtime, RuntimeConfig};
use spread_trace::SimDuration;

/// Problem size ≈ 9.66 × one device's memory, as in the paper
/// (154.5 GB / 16 GB).
pub const MEM_RATIO: f64 = 9.66;

/// The `spread_straggler_beta(β)` Somier's straggler experiments run
/// at. Somier constructs are transfer-heavy, so the first finisher's
/// span (which sets the deadline) is mostly H2D time. The default β=4
/// would only catch extreme slowdowns; β=2 keeps the deadline sensitive
/// to compute-side lag without tripping on the transfer jitter a static
/// split actually exhibits.
pub const STRAGGLER_BETA: f64 = 2.0;

/// Per-element, at-saturation kernel costs in nanoseconds (single
/// effective lane; the Somier device model folds occupancy into these).
#[derive(Clone, Copy, Debug)]
pub struct KernelCosts {
    /// 6-neighbour spring stencil (≈ 60 flops + sqrt per node).
    pub forces: f64,
    /// `A = F/m`.
    pub accel: f64,
    /// `V += A·dt`.
    pub velocity: f64,
    /// `X += V·dt`.
    pub position: f64,
    /// Per-plane position sums.
    pub centers: f64,
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts {
            forces: 3.1,
            accel: 0.7,
            velocity: 0.7,
            position: 0.7,
            centers: 0.47,
        }
    }
}

impl KernelCosts {
    /// Every kernel `k`× as expensive: moves the calibration along the
    /// transfer-bound ↔ compute-bound axis without changing the
    /// kernels' relative weights.
    pub fn scaled(self, k: f64) -> Self {
        KernelCosts {
            forces: self.forces * k,
            accel: self.accel * k,
            velocity: self.velocity * k,
            position: self.position * k,
            centers: self.centers * k,
        }
    }
}

/// Physics constants of the spring grid.
#[derive(Clone, Copy, Debug)]
pub struct Physics {
    /// Spring stiffness.
    pub k: f64,
    /// Rest length (= lattice spacing).
    pub rest_len: f64,
    /// Node mass.
    pub mass: f64,
    /// Time step.
    pub dt: f64,
}

impl Default for Physics {
    fn default() -> Self {
        Physics {
            k: 10.0,
            rest_len: 1.0,
            mass: 1.0,
            dt: 1e-3,
        }
    }
}

/// A complete Somier experiment description.
#[derive(Clone, Debug)]
pub struct SomierConfig {
    /// Grid side (the paper: 1200; reproduction default: 120).
    pub n: usize,
    /// Time steps (the paper: 31).
    pub timesteps: usize,
    /// Problem bytes / device memory bytes.
    pub mem_ratio: f64,
    /// Global time scale applied to bandwidths, DMA latency and kernel
    /// costs (see module docs).
    pub time_scale: f64,
    /// Kernel cost constants.
    pub costs: KernelCosts,
    /// Physics constants.
    pub physics: Physics,
    /// Host threads executing kernel bodies.
    pub team_threads: usize,
    /// Record trace spans.
    pub trace: bool,
    /// Default-stream (single-queue) device semantics; see
    /// [`spread_devices::DeviceSpec::single_queue`].
    pub single_queue: bool,
    /// Per-`cudaMemcpy` launch latency in microseconds (before time
    /// scaling). 10 µs is a typical synchronous-copy call overhead.
    pub dma_latency_us: u64,
    /// Fraction of [`SomierConfig::device_mem_bytes`] the devices really
    /// get (default 1.0). The oversubscribed-memory run mode: buffer
    /// planning ([`SomierConfig::buffer_planes`]) still assumes the full
    /// figure, so below 1.0 the planned chunks genuinely exceed device
    /// capacity and only a `spread_pressure(…)` policy lets the run
    /// complete.
    pub mem_cap_frac: f64,
    /// Heterogeneous mode: `(device, factor)` multiplies one device's
    /// per-kernel compute time by `factor` (factor 2.0 ⇒ half-speed
    /// compute). Transfers are unaffected — links are shared. `None`
    /// (the default) keeps the machine uniform. This is the machine the
    /// `spread_schedule(auto)` experiments run on: a static equal split
    /// waits on the slow device every buffer, while the profile-guided
    /// schedule learns to shift iterations onto the fast ones.
    pub slow_device: Option<(usize, f64)>,
    /// Chunk granularity override, in planes. `None` (the default)
    /// keeps Listing 10's one-chunk-per-device split
    /// (`chunk = buffer / num_devices`); `Some(p)` carves each buffer
    /// into `p`-plane chunks round-robined over the devices instead —
    /// the finer granularity the pipelined implementations run at, and
    /// the regime the hot-path benchmark measures planning cost in.
    /// Physics are unaffected (chunking only changes the decomposition;
    /// halos make every chunk self-contained).
    pub chunk_planes_override: Option<usize>,
}

impl SomierConfig {
    /// The reproduction of the paper's experiment: n=120 stand-in for
    /// 1200³, 31 steps, times scaled to the paper's magnitude.
    pub fn paper() -> Self {
        SomierConfig {
            n: 120,
            timesteps: 31,
            mem_ratio: MEM_RATIO,
            // Our problem is 1000× smaller than the paper's (1200³ →
            // 120³); a scale near that (fitted to Table I's absolute
            // baseline) makes a 12 GB/s link behave like ~14 MB/s so
            // virtual times land in the paper's magnitude.
            time_scale: 845.0,
            costs: KernelCosts::default(),
            physics: Physics::default(),
            team_threads: 4,
            trace: false,
            single_queue: true,
            dma_latency_us: 10,
            mem_cap_frac: 1.0,
            slow_device: None,
            chunk_planes_override: None,
        }
    }

    /// A small configuration for tests (fast, still multi-buffer).
    pub fn test_small(n: usize, timesteps: usize) -> Self {
        SomierConfig {
            n,
            timesteps,
            mem_ratio: MEM_RATIO,
            time_scale: 1.0,
            costs: KernelCosts::default(),
            physics: Physics::default(),
            team_threads: 2,
            trace: true,
            single_queue: true,
            dma_latency_us: 10,
            mem_cap_frac: 1.0,
            slow_device: None,
            chunk_planes_override: None,
        }
    }

    /// Override the grid side.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Override the number of time steps.
    pub fn with_timesteps(mut self, t: usize) -> Self {
        self.timesteps = t;
        self
    }

    /// Enable/disable trace recording.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Select default-stream (`true`, paper-faithful) or
    /// separate-streams (`false`, ablation) device semantics.
    pub fn with_single_queue(mut self, on: bool) -> Self {
        self.single_queue = on;
        self
    }

    /// Cap every device's memory at `frac` of what the buffer planning
    /// assumes (see the field docs): the oversubscribed-memory mode for
    /// the `spread_pressure(…)` experiments.
    pub fn with_mem_cap_frac(mut self, frac: f64) -> Self {
        self.mem_cap_frac = frac.clamp(0.0, 1.0);
        self
    }

    /// Make one device's compute `factor`× slower (factor 2.0 ⇒ 0.5×
    /// throughput): the heterogeneous machine for the
    /// `spread_schedule(auto)` experiments. See
    /// [`SomierConfig::slow_device`].
    pub fn with_slow_device(mut self, device: usize, factor: f64) -> Self {
        self.slow_device = Some((device, factor.max(1.0)));
        self
    }

    /// Carve buffers into `planes`-plane chunks round-robined over the
    /// devices instead of Listing 10's one chunk per device. See
    /// [`SomierConfig::chunk_planes_override`].
    pub fn with_chunk_planes(mut self, planes: usize) -> Self {
        self.chunk_planes_override = Some(planes.max(1));
        self
    }

    /// Elements per plane (`n²`).
    pub fn plane_elems(&self) -> usize {
        self.n * self.n
    }

    /// Total problem bytes (12 grids of n³ doubles).
    pub fn total_bytes(&self) -> u64 {
        12 * (self.n as u64).pow(3) * 8
    }

    /// Bytes of one plane across all 12 grids.
    pub fn plane_bytes(&self) -> u64 {
        12 * self.plane_elems() as u64 * 8
    }

    /// Bytes of per-chunk overhead beyond the 12 grids: the 3 position
    /// grids' ±1-plane halos plus the centers partials.
    fn overhead_bytes(&self) -> u64 {
        2 * 3 * self.plane_elems() as u64 * 8 + 3 * self.n as u64 * 8
    }

    /// One device's memory (total / mem_ratio), never below what one
    /// 3-plane chunk needs.
    pub fn device_mem_bytes(&self) -> u64 {
        let raw = (self.total_bytes() as f64 / self.mem_ratio) as u64;
        raw.max(3 * self.plane_bytes() + self.overhead_bytes())
    }

    /// What a device *actually* gets: [`SomierConfig::device_mem_bytes`]
    /// times [`SomierConfig::mem_cap_frac`]. Everything that plans
    /// buffers keeps using the uncapped figure, so a fraction below 1.0
    /// oversubscribes the devices for real.
    pub fn capped_device_mem_bytes(&self) -> u64 {
        (self.device_mem_bytes() as f64 * self.mem_cap_frac) as u64
    }

    /// Planes a single device chunk can hold: the device must fit 12
    /// grids of `chunk` planes plus the halo/partials overhead.
    pub fn chunk_planes(&self) -> usize {
        let usable = self
            .device_mem_bytes()
            .saturating_sub(self.overhead_bytes());
        ((usable / self.plane_bytes()) as usize).max(1)
    }

    /// Buffer size in planes when `n_gpus` devices share the work ("the
    /// problem is split into buffers that sum up for the total amount of
    /// memory of the devices", §V-A.2). Clamped to the grid size.
    pub fn buffer_planes(&self, n_gpus: usize) -> usize {
        (self.chunk_planes() * n_gpus).min(self.n)
    }

    /// Half-buffer size (in planes) for the Two Buffers and Double
    /// Buffering implementations.
    ///
    /// The paper halves the buffer "to process two half buffers at the
    /// same time without running out of memory" (§V-B). Under
    /// default-stream semantics the pipelined implementations
    /// transiently try to hold a *third* half per device (the next
    /// half's map-in allocates while an earlier map-out is still queued
    /// behind kernels on the single device queue); the runtime's
    /// allocation backpressure absorbs that by briefly delaying the
    /// map-in, so halves are sized at a third of the device's capacity.
    pub fn half_planes(&self, n_gpus: usize) -> usize {
        let usable = (self.device_mem_bytes() / 3).saturating_sub(self.overhead_bytes());
        let half_chunk = ((usable / self.plane_bytes()) as usize).max(1);
        (half_chunk * n_gpus).min(self.n)
    }

    /// The machine for `n_gpus` devices: the CTE-POWER topology, device
    /// memory from the ratio, costs from the calibration, everything
    /// rescaled by `time_scale`.
    pub fn topology(&self, n_gpus: usize) -> Topology {
        let mut topo = Topology::ctepower(n_gpus);
        let spec = DeviceSpec {
            name: "V100-sim".into(),
            mem_bytes: self.capped_device_mem_bytes(),
            dma_latency: SimDuration::from_micros(self.dma_latency_us),
            compute: ComputeModel {
                launch_latency: SimDuration::from_micros(8),
                // Occupancy is folded into the per-element costs: the
                // KernelCosts are effective at-saturation values.
                max_parallelism: 1,
                time_scale: 1.0,
            },
            // Default-stream semantics: the paper's runtime serializes
            // every per-device operation (Figure 4). The ablation bench
            // flips this off to measure what separate streams would buy.
            single_queue: self.single_queue,
        };
        topo.devices = vec![spec; n_gpus];
        if let Some((d, factor)) = self.slow_device {
            if d < topo.devices.len() {
                topo.devices[d].compute.time_scale = factor;
            }
        }
        topo.with_time_scale(self.time_scale)
    }

    /// The runtime configuration of this experiment on `n_gpus` devices.
    /// Allocation backpressure is on: the pipelined implementations
    /// transiently over-subscribe device memory (their next halves'
    /// map-ins race the previous halves' releases), and the paper's runs
    /// clearly survived this — a pooled allocator that briefly waits
    /// models that.
    fn runtime_config(&self, n_gpus: usize) -> RuntimeConfig {
        RuntimeConfig::new(self.topology(n_gpus))
            .with_team_threads(self.team_threads)
            .with_trace(self.trace)
            .with_alloc_backpressure(true)
    }

    /// A runtime for this experiment on `n_gpus` devices.
    pub fn runtime(&self, n_gpus: usize) -> Runtime {
        Runtime::new(self.runtime_config(n_gpus))
    }

    /// Like [`SomierConfig::runtime`], with a fault plan injected — the
    /// machine for the resilience experiments.
    pub fn runtime_with_faults(&self, n_gpus: usize, plan: spread_sim::FaultPlan) -> Runtime {
        Runtime::new(self.runtime_config(n_gpus).with_fault_plan(plan))
    }

    /// Per-plane modeled kernel cost (the `work_per_iter_ns` of a kernel
    /// whose iteration is one plane).
    pub fn plane_cost(&self, per_elem_ns: f64) -> f64 {
        per_elem_ns * self.plane_elems() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = SomierConfig::paper();
        assert_eq!(c.n, 120);
        assert_eq!(c.timesteps, 31);
        // Problem ≈ 9.66× device memory.
        let ratio = c.total_bytes() as f64 / c.device_mem_bytes() as f64;
        assert!(
            (ratio - MEM_RATIO).abs() / MEM_RATIO < 0.15,
            "ratio {ratio}"
        );
        // With 1 GPU the buffer is a small fraction of the grid; with 4
        // GPUs it's 4× bigger.
        let b1 = c.buffer_planes(1);
        let b4 = c.buffer_planes(4);
        assert_eq!(b4, 4 * b1);
        assert!(b1 >= 2, "buffer must hold at least 2 planes: {b1}");
        assert!(c.n / b1 >= 5, "the paper processes many buffers per step");
    }

    #[test]
    fn chunk_fits_device_memory() {
        let c = SomierConfig::paper();
        let overhead = 2 * 3 * c.plane_elems() as u64 * 8 + 3 * c.n as u64 * 8;
        let chunk = c.chunk_planes() as u64;
        let need = chunk * c.plane_bytes() + overhead;
        assert!(need <= c.device_mem_bytes());
        // And one more plane would not fit.
        let need_more = (chunk + 1) * c.plane_bytes() + overhead;
        assert!(need_more > c.device_mem_bytes());
    }

    #[test]
    fn three_halves_fit_for_the_pipelined_versions() {
        let c = SomierConfig::paper();
        let overhead = 2 * 3 * c.plane_elems() as u64 * 8 + 3 * c.n as u64 * 8;
        let half_chunk = (c.half_planes(4) / 4) as u64;
        assert!(half_chunk >= 2, "gap rule needs half chunks of >= 2 planes");
        let need3 = 3 * (half_chunk * c.plane_bytes() + overhead);
        assert!(
            need3 <= c.device_mem_bytes(),
            "the transient third half must fit: {need3} vs {}",
            c.device_mem_bytes()
        );
    }

    #[test]
    fn small_config_multi_buffer() {
        let c = SomierConfig::test_small(24, 2);
        assert!(c.buffer_planes(1) < c.n, "still needs buffering");
        assert!(c.buffer_planes(2) >= 2);
    }

    #[test]
    fn slow_device_scales_only_that_device() {
        let c = SomierConfig::paper().with_slow_device(1, 2.0);
        let t = c.topology(3);
        assert_eq!(
            t.devices[1].compute.time_scale,
            2.0 * t.devices[0].compute.time_scale
        );
        assert_eq!(
            t.devices[2].compute.time_scale,
            t.devices[0].compute.time_scale
        );
        // Transfers are untouched: links are shared.
        assert_eq!(t.devices[1].dma_latency, t.devices[0].dma_latency);
    }

    #[test]
    fn topology_is_scaled() {
        let c = SomierConfig::paper();
        let t = c.topology(4);
        assert_eq!(t.n_devices(), 4);
        assert!((t.link_bw - 12e9 / c.time_scale).abs() < 1.0);
        assert_eq!(t.devices[0].mem_bytes, c.device_mem_bytes());
    }
}
