//! # spread-bench
//!
//! The paper's evidence and every clause-family experiment as *views*:
//! library functions that run one experiment in-process and return its
//! text. [`VIEWS`] lists them; `repro` (the crate's one binary) writes
//! each to `results/<name>.txt` at paper scale, and the `--ignored`
//! test `tests/results.rs` fails when `results/` drifts from what the
//! views print. Every number a view prints is virtual time, so the
//! files are byte-reproducible. Measured results and their discussion
//! live in `EXPERIMENTS.md`, which quotes `results/`.
//!
//! | View | Reproduces |
//! |---|---|
//! | `table1` | Table I |
//! | `table2` | Table II + Figure 2 series |
//! | `figure3` | Figure 3 (a–c) |
//! | `figure4` | Figure 4 |
//! | `kernel_scaling` | §VI-A kernel-scaling claim |
//! | `ablation_chunk_size` | chunk-size sweep |
//! | `ablation_dma_latency` | §VI-B transfer-granularity effect |
//! | `ablation_schedules` | static vs dynamic vs weighted (§IX) |
//! | `ablation_depend_data` | Listing 13 `depend` vs `taskgroup` |
//! | `ablation_compute_bound` | §IX "does double buffering pay off when compute dominates?" |
//! | `adaptive` | `spread_schedule(auto)` on a heterogeneous node (DESIGN §10) |
//! | `peer` | `exchange(auto)` device-to-device halos (DESIGN §11) |
//! | `straggler` | `spread_straggler(steal\|replicate)` rescue sweep (DESIGN §13) |
//! | `integrity` | `spread_integrity(verify\|heal)` sweep (DESIGN §14) |
//! | `overlap` | `spread_overlap(depth)` pipelining sweep (DESIGN §15) |
//! | `plan_cache` | launch-plan cache replay (DESIGN §16) |
//!
//! `cargo run --release -p spread-bench --bin repro -- [--small] [view …]`
//! runs them; `cargo bench -p spread-bench` runs the wall-clock
//! micro-benchmarks of the library itself ([`micro`]).

#![warn(missing_docs)]

use std::path::Path;
use std::{fs, io};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// One table row: each cell in its `Display` form.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

mod ablation;
mod families;
pub mod micro;
mod paper;
mod table;

pub use families::plan_cache_leg;
pub use table::{markdown_table, speedup};

/// A view: runs one experiment — at a fast test size when `small` —
/// and returns the text `repro` writes to `results/<name>.txt`.
pub type View = fn(small: bool) -> String;

/// Every view, in `repro`'s order: `(name, view)`.
pub const VIEWS: &[(&str, View)] = &[
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("figure3", paper::figure3),
    ("figure4", paper::figure4),
    ("kernel_scaling", paper::kernel_scaling),
    ("ablation_chunk_size", ablation::chunk_size),
    ("ablation_dma_latency", ablation::dma_latency),
    ("ablation_schedules", ablation::schedules),
    ("ablation_depend_data", ablation::depend_data),
    ("ablation_compute_bound", ablation::compute_bound),
    ("adaptive", families::adaptive),
    ("peer", families::peer),
    ("straggler", families::straggler),
    ("integrity", families::integrity),
    ("overlap", families::overlap),
    ("plan_cache", families::plan_cache),
];

/// The committed paper-scale outputs, one `<name>.txt` per view.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Run `views` at paper scale and write each to `dir/<name>.txt`.
pub fn write_results(dir: &Path, views: &[(&str, View)]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for (name, view) in views {
        eprintln!("==> {name}");
        fs::write(dir.join(format!("{name}.txt")), view(false))?;
    }
    Ok(())
}
