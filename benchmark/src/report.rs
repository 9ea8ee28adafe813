//! The commands: run workloads in child processes and print their
//! metrics, compare two result files under the benchmark's bounds,
//! and run twice and compare.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::catalog::{self, Better, MetricDef};
use crate::json::Json;
use crate::workloads::{self, Outcome, Workload, WORKLOADS};
use crate::Options;

/// Where the traced pass and `repeat-check` leave their files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// glibc's allocator, left alone, returns freed heap to the kernel and
/// faults it back in on the next map: on Somier that is a third of the
/// host time, spent in the kernel, and it varies by ±10 % from run to
/// run in a virtual machine. Pinning the two thresholds makes malloc
/// keep what it has. The child processes run under these settings, on
/// every commit alike; `README.md` says what that leaves out.
const CHILD_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "4294967295"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

/// One workload's result as the child printed it on its last line.
struct ChildResult {
    workload: &'static str,
    line: Json,
    ok: bool,
}

fn spawn(w: &Workload, o: &Options) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("workload")
        .args(["--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.traced { "1" } else { "0" }])
        .envs(CHILD_ENV)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = match text.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", text.trim_end()),
    };
    if !body.is_empty() {
        println!("{body}");
    }
    let line = Json::parse(last).map_err(|e| {
        format!(
            "{}: the child (exit {:?}) printed no result line: {e}",
            w.name,
            out.status.code()
        )
    })?;
    Ok(ChildResult {
        workload: w.name,
        line,
        ok: out.status.success(),
    })
}

/// `run`: each selected workload in a fresh child, their reports, the
/// optional result file, and the last child's JSON line last.
pub fn run(o: &Options) -> Result<bool, String> {
    let selected: Vec<&Workload> = match &o.workload {
        Some(name) => vec![workloads::find(name).expect("validated by Options::parse")],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "# target-spread benchmark: seed {} seconds {} trace {}",
        o.seed,
        o.seconds,
        u8::from(o.traced)
    );
    println!("# {}", rustc_version());
    let mut results = Vec::new();
    for w in selected {
        println!("# {}: {}", w.name, w.why);
        results.push(spawn(w, o)?);
    }
    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("seed", Json::num(o.seed as f64)),
            ("seconds", Json::num(f64::from(o.seconds))),
            ("trace", Json::num(f64::from(u8::from(o.traced)))),
            (
                "results",
                Json::obj(results.iter().map(|r| (r.workload, r.line.clone()))),
            ),
        ]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let ok = results.iter().all(|r| r.ok);
    if let Some(last) = results.last() {
        println!("{}", last.line.compact());
    }
    Ok(ok)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "rustc version unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `workload` (internal): run one workload in this process, print its
/// report and its result line.
pub fn workload(o: &Options) -> Result<bool, String> {
    let name = o
        .workload
        .as_deref()
        .ok_or("the workload command needs --workload")?;
    let w = workloads::find(name).expect("validated by Options::parse");
    let outcome = (w.run)(&o.run_args());
    print_report(w.name, &outcome);
    if o.traced {
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", w.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_json(w.name).compact()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# host spans: {}", path.display());
    }
    let (line, complete) = result_line(&outcome, o.traced);
    println!("{}", line.compact());
    Ok(complete && outcome.report.checks.failed == 0)
}

fn print_report(workload: &str, outcome: &Outcome) {
    let outcome = &outcome.report;
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    for (name, value) in outcome.metrics.iter() {
        match catalog::find(name) {
            Some(def) => println!(
                "{workload} {name} {value} {} # {}",
                def.unit,
                def.clock.label()
            ),
            None => println!("{workload} {name} {value} ? # not in the catalogue"),
        }
    }
    let c = &outcome.checks;
    println!("{workload} checks_attempted {} count", c.attempted);
    println!("{workload} checks_failed {} count", c.failed);
    println!("{workload} fail_share {} ratio", c.fail_share());
    for f in &c.failures {
        println!("# {workload}: FAILED {f}");
    }
}

/// The driver's result object: `correct`, `attempted`, `failed`, and
/// every end-to-end metric (untraced) or every per-layer metric
/// (traced). A per-layer metric that does not apply to the workload
/// reads 0; a missing end-to-end metric is a benchmark bug and makes
/// the run fail.
fn result_line(outcome: &Outcome, traced: bool) -> (Json, bool) {
    let mut complete = true;
    let mut metrics = Vec::new();
    for d in catalog::METRICS.iter().filter(|d| d.end_to_end != traced) {
        let value = outcome.report.metrics.get(d.name);
        complete &= value.is_some() || !d.end_to_end;
        let entry = Json::obj([
            ("value", Json::num(value.unwrap_or(0.0))),
            ("unit", Json::str(d.unit)),
        ]);
        metrics.push((d.name, entry));
    }
    let c = &outcome.report.checks;
    let line = Json::obj([
        ("correct", Json::Bool(c.failed == 0 && complete)),
        ("attempted", Json::num(c.attempted.max(1) as f64)),
        ("failed", Json::num(c.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    (line, complete)
}

/// The end-to-end bounds of `BENCHMARK.json`, by metric name.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = manifest_path();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name and bound".into())
        })
        .collect()
}

/// How a metric moved from A to B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical; or host metric within its bound.
    Ok,
    /// Host per-layer metric: reported, never judged.
    Info,
    /// Exact metric that differs.
    Differs,
    /// Host end-to-end metric worse by more than its bound.
    Regressed,
}

/// Judge one metric. `bound` is `Some` for end-to-end metrics.
pub fn judge(def: &MetricDef, bound: Option<f64>, a: f64, b: f64) -> Verdict {
    if def.clock.exact() {
        return if a == b {
            Verdict::Ok
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let worse_by = match def.better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A B`: exact metrics identical, host end-to-end metrics
/// within the bounds of `BENCHMARK.json`, no more failures in B.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (da, db) = (load(a)?, load(b)?);
    for key in ["seed", "trace"] {
        if da.get(key) != db.get(key) {
            return Err(format!("{a} and {b} were run with different {key}"));
        }
    }
    let bounds = bounds()?;
    let results = |d: &Json, path: &str| -> Result<Vec<(String, Json)>, String> {
        d.get("results")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| format!("{path}: no results"))
    };
    let (ra, rb) = (results(&da, a)?, results(&db, b)?);
    let mut ok = true;
    println!("workload metric A B change verdict");
    for (workload, wa) in &ra {
        let Some((_, wb)) = rb.iter().find(|(w, _)| w == workload) else {
            println!("{workload} - - - - missing-in-B");
            ok = false;
            continue;
        };
        let fails = |w: &Json| -> f64 {
            let get = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            get("failed") / get("attempted")
        };
        let (fa, fb) = (fails(wa), fails(wb));
        let fail_ok = fb <= fa;
        ok &= fail_ok;
        println!(
            "{workload} fail_share {fa} {fb} - {}",
            if fail_ok { "ok" } else { "MORE-FAILURES" }
        );
        let metrics = |w: &Json| w.get("metrics").and_then(Json::as_obj).map(<[_]>::to_vec);
        let (Some(ma), Some(mb)) = (metrics(wa), metrics(wb)) else {
            return Err(format!("{workload}: result without metrics"));
        };
        for (name, ea) in &ma {
            let value = |e: &Json| e.get("value").and_then(Json::as_f64);
            let eb = mb.iter().find(|(n, _)| n == name).map(|(_, e)| e);
            let (Some(def), Some(va), Some(vb)) =
                (catalog::find(name), value(ea), eb.and_then(value))
            else {
                println!("{workload} {name} - - - UNKNOWN-OR-MISSING");
                ok = false;
                continue;
            };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|&(_, b)| b);
            let verdict = judge(def, bound, va, vb);
            ok &= matches!(verdict, Verdict::Ok | Verdict::Info);
            let change = if va == vb {
                "=".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (vb / va - 1.0))
            };
            let verdict = match verdict {
                Verdict::Ok if def.clock.exact() => "identical".to_string(),
                Verdict::Ok => format!("within-{}%", 100.0 * bound.unwrap_or(0.0)),
                Verdict::Info => "info".to_string(),
                Verdict::Differs => format!("EXACT-{}-METRIC-DIFFERS", def.clock.label()),
                Verdict::Regressed => format!("WORSE-THAN-{}%", 100.0 * bound.unwrap_or(0.0)),
            };
            println!("{workload} {name} {va} {vb} {change} {verdict}");
        }
    }
    println!("# compare: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// `repeat-check`: the same run twice, then `compare`.
pub fn repeat_check(o: &Options) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut ok = true;
    let mut paths = Vec::new();
    for tag in ["a", "b"] {
        let path = dir.join(format!("repeat-{tag}.json"));
        let path = path.to_str().ok_or("non-UTF-8 output path")?.to_string();
        let o = Options {
            out: Some(path.clone()),
            ..o.clone()
        };
        ok &= run(&o)?;
        paths.push(path);
    }
    Ok(compare_files(&paths[0], &paths[1])? && ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanLog;
    use crate::workloads::{Checks, Metrics, Report};

    fn def(name: &str) -> &'static MetricDef {
        catalog::find(name).expect(name)
    }

    #[test]
    fn exact_metrics_must_be_identical() {
        assert_eq!(
            judge(def("virtual_s"), Some(0.05), 505.43, 505.43),
            Verdict::Ok
        );
        assert_eq!(
            judge(def("virtual_s"), Some(0.05), 505.43, 505.430001),
            Verdict::Differs
        );
        assert_eq!(
            judge(def("rt.h2d_bytes"), None, 10.0, 11.0),
            Verdict::Differs
        );
    }

    #[test]
    fn host_metrics_are_judged_in_their_worse_direction_only() {
        let wall = def("host_wall_s");
        assert_eq!(judge(wall, Some(0.10), 10.0, 10.9), Verdict::Ok);
        assert_eq!(judge(wall, Some(0.10), 10.0, 11.1), Verdict::Regressed);
        assert_eq!(judge(wall, Some(0.10), 10.0, 5.0), Verdict::Ok);
        let rate = def("ops_per_s");
        assert_eq!(judge(rate, Some(0.10), 100.0, 92.0), Verdict::Ok);
        assert_eq!(judge(rate, Some(0.10), 100.0, 90.0), Verdict::Regressed);
        assert_eq!(judge(rate, Some(0.10), 100.0, 300.0), Verdict::Ok);
        assert_eq!(judge(def("sim.event_ns"), None, 10.0, 99.0), Verdict::Info);
    }

    #[test]
    fn result_line_has_the_contract_keys_in_order() {
        let mut metrics = Metrics::default();
        for d in catalog::METRICS.iter().filter(|d| d.end_to_end) {
            metrics.set(d.name, 1.5);
        }
        let outcome = Outcome {
            report: Report {
                metrics,
                checks: Checks {
                    attempted: 7,
                    failed: 0,
                    failures: Vec::new(),
                },
                notes: Vec::new(),
            },
            spans: SpanLog::new(false),
        };
        let (line, complete) = result_line(&outcome, false);
        assert!(complete);
        let text = line.compact();
        assert!(text.starts_with(
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"},"host_wall_s":"#
        ), "{text}");
        // The traced line carries every per-layer metric, absent ones
        // as 0, and is still complete.
        let (line, complete) = result_line(&outcome, true);
        assert!(complete);
        let listed = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(
            listed.len(),
            catalog::METRICS.iter().filter(|d| !d.end_to_end).count()
        );
        // A missing end-to-end metric is not papered over.
        let empty = Outcome {
            report: Report {
                metrics: Metrics::default(),
                ..outcome.report
            },
            ..outcome
        };
        let (line, complete) = result_line(&empty, false);
        assert!(!complete);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
