//! EXPERIMENTS.md quotes the committed paper artefacts rather than
//! copying their numbers by hand: every block between a
//! `<!-- results:<name> -->` line and a `<!-- /results -->` line must
//! appear, line for line and contiguously, in `results/<name>.txt`
//! (code-fence lines aside), and every file under `results/` must be
//! quoted at least once.
//! `crates/bench/tests/results.rs` ties `results/` to the views; this
//! test ties EXPERIMENTS.md to `results/`.

use std::collections::BTreeSet;
use std::fs;

const BEGIN: &str = "<!-- results:";
const END: &str = "<!-- /results -->";

#[test]
fn experiments_md_quotes_results_verbatim() {
    let root = env!("CARGO_MANIFEST_DIR");
    let experiments = fs::read_to_string(format!("{root}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut quoted = BTreeSet::new();
    let mut problems = Vec::new();
    let mut lines = experiments.lines();
    while let Some(marker) = lines.next() {
        let Some(name) = marker
            .strip_prefix(BEGIN)
            .and_then(|m| m.strip_suffix(" -->"))
        else {
            continue;
        };
        let block: Vec<&str> = lines.by_ref().take_while(|l| *l != END).collect();
        quoted.insert(name.to_string());
        let kept: Vec<&str> = block
            .into_iter()
            .filter(|l| !l.starts_with("```"))
            .collect();
        let first = kept.iter().position(|l| !l.is_empty());
        let last = kept.iter().rposition(|l| !l.is_empty());
        let (Some(first), Some(last)) = (first, last) else {
            problems.push(format!("results:{name} quotes nothing"));
            continue;
        };
        let quote = &kept[first..=last];
        let Ok(file) = fs::read_to_string(format!("{root}/results/{name}.txt")) else {
            problems.push(format!("results:{name}: results/{name}.txt does not exist"));
            continue;
        };
        let file: Vec<&str> = file.lines().collect();
        if !file.windows(quote.len()).any(|w| w == quote) {
            let stray = quote.iter().find(|l| !file.contains(l));
            problems.push(match stray {
                Some(line) => {
                    format!("results:{name} quotes a line results/{name}.txt lacks:\n  {line}")
                }
                None => format!("results:{name}'s lines are not contiguous in results/{name}.txt"),
            });
        }
    }
    for entry in fs::read_dir(format!("{root}/results")).expect("results/") {
        let file = entry.expect("a directory entry").file_name();
        if let Some(name) = file.to_string_lossy().strip_suffix(".txt") {
            if !quoted.contains(name) {
                problems.push(format!(
                    "EXPERIMENTS.md quotes no part of results/{name}.txt"
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "EXPERIMENTS.md drifted from results/; paste the current lines between the markers:\n{}",
        problems.join("\n")
    );
}
