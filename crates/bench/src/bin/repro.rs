//! Runs the views of `spread-bench` in-process: every paper table,
//! figure and ablation plus every clause-family experiment, or the ones
//! named on the command line.
//!
//! Usage: `cargo run --release -p spread-bench --bin repro -- [--small]
//! [view …]`. At paper scale it writes `results/<name>.txt` for each
//! view; all sixteen took 69–85 s on two shared vCPUs, and the files
//! are byte-reproducible — `cargo test --release -p spread-bench --test
//! results -- --ignored` fails when they drift. `--small` runs the
//! views at test size (≈ 24 s for all sixteen, most of it the
//! clause-family views, which have one fixed size), prints them to
//! stdout and never writes `results/`.

use std::path::Path;

use spread_bench::{write_results, View, RESULTS_DIR, VIEWS};

fn main() {
    let mut small = false;
    let mut views: Vec<(&str, View)> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--small" {
            small = true;
        } else if let Some(view) = VIEWS.iter().find(|(name, _)| *name == arg) {
            views.push(*view);
        } else {
            let names: Vec<&str> = VIEWS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "unknown view `{arg}`\nusage: repro [--small] [view ...]\nviews: {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
    if views.is_empty() {
        views = VIEWS.to_vec();
    }
    if small {
        for (_, view) in views {
            print!("{}", view(true));
        }
    } else {
        write_results(Path::new(RESULTS_DIR), &views).expect("write results/");
    }
}
