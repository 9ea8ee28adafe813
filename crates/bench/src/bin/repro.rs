//! One-shot reproduction driver: runs every table/figure/ablation
//! binary at paper scale and writes the outputs under `results/`.
//!
//! Usage: `cargo build --release -p spread-bench`, then
//! `cargo run --release -p spread-bench --bin repro [--small]`. At paper
//! scale it takes about 65 s on two vCPUs, and its outputs are
//! byte-reproducible: `git diff --exit-code results/` after a run shows
//! exactly which paper number a change moved. `--small` finishes in
//! seconds and prints to stdout; it never writes `results/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

const TARGETS: &[(&str, &[&str])] = &[
    ("table1", &[]),
    ("table2", &["--figure"]),
    ("figure3", &[]),
    ("figure4", &[]),
    ("kernel_scaling", &[]),
    ("ablation_chunk_size", &[]),
    ("ablation_dma_latency", &[]),
    ("ablation_schedules", &[]),
    ("ablation_depend_data", &[]),
    ("ablation_compute_bound", &[]),
];

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let bin_dir: PathBuf = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    if !small {
        fs::create_dir_all("results").expect("mkdir results");
    }
    let mut failures = 0;
    for (name, extra) in TARGETS {
        let mut cmd = Command::new(bin_dir.join(name));
        if small {
            cmd.arg("--small");
        }
        cmd.args(*extra);
        eprintln!("==> {name} {}", if small { "(--small)" } else { "" });
        match cmd.output() {
            Ok(out) => {
                let path = format!("results/{name}.txt");
                let mut content = out.stdout;
                if !out.status.success() {
                    failures += 1;
                    content.extend_from_slice(b"\n--- STDERR ---\n");
                    content.extend_from_slice(&out.stderr);
                    eprintln!("    FAILED ({})", out.status);
                }
                if small {
                    std::io::stdout().write_all(&content).expect("write stdout");
                } else {
                    fs::write(&path, content).expect("write result");
                    eprintln!("    -> {path}");
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!(
                    "    could not launch {name}: {e} \
                     (build all binaries first: cargo build --release -p spread-bench)"
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} target(s) failed");
        std::process::exit(1);
    }
    if !small {
        eprintln!("all reproduction targets written to results/");
    }
}
