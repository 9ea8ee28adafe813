//! Replay (and shrink) one fuzzer seed.
//!
//! ```text
//! cargo run -p spread-check --bin replay -- <seed> \
//!     [--interleavings K] [--faults] [--pressure] [--auto] [--peer] \
//!     [--stragglers] [--integrity] [--overlap] \
//!     [--inject stencil|reduce|recovery|peer|integrity]
//! ```
//!
//! Regenerates the program for `<seed>` under the given mode, prints it
//! as a paper-style listing, and re-checks it. On failure the program
//! is shrunk to a minimal counterexample (deterministically) and
//! printed again. The mode and `--inject` options are `fuzz`'s.

use std::process::ExitCode;

use spread_check::{check_seed, gen, pretty, shrink_seed, CheckConfig};

fn parse_args() -> Result<(u64, CheckConfig), String> {
    let mut seed = None;
    let mut cfg = CheckConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if cfg.parse_arg(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            s if seed.is_none() && !s.starts_with('-') => {
                seed = Some(s.parse().map_err(|e| format!("seed: {e}"))?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.reject_inert_canary()?;
    Ok((seed.ok_or("missing <seed>")?, cfg))
}

fn main() -> ExitCode {
    let (seed, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("replay: {e}");
            eprintln!("usage: replay <seed> {}", CheckConfig::usage());
            return ExitCode::from(2);
        }
    };
    let p = gen::gen_program(seed, cfg.mode);
    println!("seed {seed} generates:\n");
    println!("{}", pretty::listing(&p));
    match check_seed(seed, &cfg) {
        Ok(()) => {
            println!(
                "OK: oracle agreement under all {} interleaving(s), 0 races",
                cfg.interleavings
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("FAIL: {failure}\n");
            let (minimal, min_failure) =
                shrink_seed(seed, &cfg).expect("failing seed stays failing");
            println!("shrunk to minimal counterexample:\n");
            println!("{}", pretty::listing(&minimal));
            println!("minimal failure: {min_failure}");
            ExitCode::FAILURE
        }
    }
}
