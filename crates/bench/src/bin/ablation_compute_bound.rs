//! Ablation (§IX): "research has to be done on problems where the
//! computation dominates the execution time over the data transfers, in
//! order to see if a double buffering implementation performs better."
//!
//! We run that experiment: Somier with the kernel cost constants scaled
//! up (compute-bound) and, orthogonally, with default-stream vs
//! separate-streams device semantics, on 2 GPUs.
//!
//! | regime | expected |
//! |---|---|
//! | transfer-bound + default stream (the paper's machine) | One Buffer wins |
//! | compute-bound + default stream | pipelining still can't overlap — near tie |
//! | compute-bound + separate streams | Double Buffering hides transfers behind kernels and wins |
//!
//! Usage: `cargo run --release -p spread-bench --bin ablation_compute_bound [--small]`

use spread_bench::markdown_table;
use spread_somier::{run_somier, SomierConfig, SomierImpl};

fn scaled(cfg: &SomierConfig, kernel_scale: f64, single_queue: bool) -> SomierConfig {
    let mut c = cfg.clone().with_single_queue(single_queue);
    c.costs = c.costs.scaled(kernel_scale);
    c
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let base = if small {
        SomierConfig::test_small(100, 2)
    } else {
        SomierConfig::paper().with_timesteps(8)
    };
    let mut rows = Vec::new();
    for (regime, kernel_scale, single_queue) in [
        ("transfer-bound, default stream (paper)", 1.0, true),
        ("compute-bound (20x), default stream", 20.0, true),
        ("compute-bound (20x), separate streams", 20.0, false),
    ] {
        let cfg = scaled(&base, kernel_scale, single_queue);
        let (one, _) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).expect("one");
        let (db, _) = run_somier(&cfg, SomierImpl::DoubleBuffering, 2).expect("db");
        rows.push(vec![
            regime.to_string(),
            one.elapsed.to_string(),
            db.elapsed.to_string(),
            format!(
                "{:+.1}%",
                100.0 * (db.elapsed.as_secs_f64() / one.elapsed.as_secs_f64() - 1.0)
            ),
        ]);
    }
    println!("\nAblation: when does Double Buffering pay off? (2 GPUs)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "regime",
                "One Buffer",
                "Double Buffering",
                "DB vs One Buffer"
            ],
            &rows
        )
    );
    println!(
        "Expected: DB loses on the paper's machine, and only wins when kernels dominate AND \
         the runtime can overlap streams — the §IX hypothesis, quantified."
    );
}
