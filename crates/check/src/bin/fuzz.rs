//! Deterministic conformance fuzzer.
//!
//! ```text
//! cargo run --release -p spread-check --bin fuzz -- \
//!     [--programs N] [--seed S] [--interleavings K] [--faults] \
//!     [--pressure] [--auto] [--peer] [--stragglers] [--integrity] [--overlap] \
//!     [--inject stencil|reduce|recovery|peer|integrity]
//! ```
//!
//! Checks `N` generated programs (seeds `mix(S, 0..N)`), each under the
//! FIFO policy plus `K − 1` seeded tie-break permutations, against the
//! sequential oracle. At most one mode flag selects the clause family
//! the generator arms and what the check demands beyond bit-identity —
//! see [`spread_check::Mode`], where each is documented once.
//! `--inject` arms a canary ([`spread_check::Fault`]); one that only its
//! own mode's programs can expose is rejected under any other mode,
//! where the run would pass vacuously. Exits non-zero on any
//! disagreement or race report, printing the failing seed so
//! `replay -- <seed>` reproduces it.

use std::process::ExitCode;

use spread_check::{fuzz, gen, pretty, CheckConfig};

fn parse_args() -> Result<(usize, u64, CheckConfig), String> {
    let (mut programs, mut seed) = (200, 1);
    let mut cfg = CheckConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if cfg.parse_arg(&flag, &mut it)? {
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--programs" => programs = value()?.parse().map_err(|e| format!("--programs: {e}"))?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    cfg.reject_inert_canary()?;
    Ok((programs, seed, cfg))
}

fn main() -> ExitCode {
    let (programs, seed, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            eprintln!(
                "usage: fuzz [--programs N] [--seed S] {}",
                CheckConfig::usage()
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "spread-check fuzz: {programs} program(s) x {} interleaving(s), seed {seed}{}{}",
        cfg.interleavings,
        cfg.mode.banner(),
        match cfg.fault {
            Some(f) => format!(", injected fault {f:?}"),
            None => String::new(),
        }
    );
    let step = (programs / 10).max(1);
    let report = fuzz(seed, programs, &cfg, |done, failed| {
        if done % step == 0 || done == programs {
            println!("  {done}/{programs} checked, {failed} failure(s)");
        }
    });
    if report.failures.is_empty() {
        println!(
            "OK: {} program(s), {} execution(s), oracle agreement everywhere, 0 races",
            report.programs, report.executions
        );
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        println!("\nFAIL seed {}: {}", f.seed, f.failure);
        println!("{}", pretty::listing(&gen::gen_program(f.seed, cfg.mode)));
        println!(
            "reproduce: cargo run -p spread-check --bin replay -- {}{}",
            f.seed,
            cfg.replay_args()
        );
    }
    println!(
        "\n{} of {} program(s) FAILED",
        report.failures.len(),
        report.programs
    );
    ExitCode::FAILURE
}
