//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run          [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F]
//! benchmark compare      A.json B.json
//! benchmark repeat-check [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! `run` executes each selected workload in a fresh child process of
//! this same executable, prints every metric as `workload metric value
//! unit`, and ends with one JSON object on the last line of standard
//! output (the last workload's). It exits non-zero if any check failed.

mod catalog;
mod json;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::{RunArgs, Scale};

const USAGE: &str = "usage:
  benchmark run          [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F]
  benchmark compare      A.json B.json
  benchmark repeat-check [--workload W] [--seed S] [--seconds N] [--trace 0|1]
workloads: somier_one_buffer somier_pipelined construct_storm depend_pipeline";

/// Options shared by `run`, `repeat-check` and the internal
/// `workload` command.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: 10,
            traced: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if workloads::find(&w).is_none() {
                        return Err(format!("unknown workload {w:?}"));
                    }
                    o.workload = Some(w);
                }
                "--seed" => {
                    o.seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?;
                }
                "--seconds" => {
                    o.seconds = match value()?.parse() {
                        Ok(s @ 1..=60) => s,
                        _ => return Err("--seconds takes a whole number from 1 to 60".into()),
                    };
                }
                "--trace" => {
                    o.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    };
                }
                "--out" => o.out = Some(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(o)
    }

    fn run_args(&self) -> RunArgs {
        RunArgs {
            seed: self.seed,
            seconds: f64::from(self.seconds),
            traced: self.traced,
            scale: Scale::Full,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match cmd.as_str() {
        "run" => Options::parse(rest).and_then(|o| report::run(&o)),
        "workload" => Options::parse(rest).and_then(|o| report::workload(&o)),
        "repeat-check" => Options::parse(rest).and_then(|o| report::repeat_check(&o)),
        "compare" => match rest {
            [a, b] => report::compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
