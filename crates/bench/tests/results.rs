//! `results/` is exactly what the views print at paper scale: a view
//! whose output moved, a view whose file was never committed, and a
//! committed file no view writes all fail here. Regenerate with
//! `cargo run --release -p spread-bench --bin repro` and commit the
//! diff, which then shows which paper number moved.

use std::fs;
use std::path::Path;

use spread_bench::{write_results, RESULTS_DIR, VIEWS};

#[test]
#[ignore = "runs every view at paper scale (~80 s in release)"]
fn results_are_what_the_views_print() {
    let fresh = std::env::temp_dir().join(format!("spread-bench-results-{}", std::process::id()));
    write_results(&fresh, VIEWS).expect("write the views");
    let committed = Path::new(RESULTS_DIR);
    let mut problems = Vec::new();
    for (name, _) in VIEWS {
        let file = format!("{name}.txt");
        let now = fs::read_to_string(fresh.join(&file)).expect("a fresh view");
        let Ok(then) = fs::read_to_string(committed.join(&file)) else {
            problems.push(format!("results/{file} is missing"));
            continue;
        };
        if let Some((i, (a, b))) = then
            .lines()
            .zip(now.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            problems.push(format!(
                "results/{file}:{} drifted\n  committed: {a}\n  view:      {b}",
                i + 1
            ));
        } else if then != now {
            problems.push(format!("results/{file} differs in length or line endings"));
        }
    }
    for entry in fs::read_dir(committed).expect("the results/ directory") {
        let file = entry.expect("a directory entry").file_name();
        let file = file.to_string_lossy();
        let stem = file.strip_suffix(".txt");
        if stem.is_some_and(|s| !VIEWS.iter().any(|(name, _)| *name == s)) {
            problems.push(format!("results/{file} is written by no view"));
        }
    }
    let _ = fs::remove_dir_all(&fresh);
    assert!(
        problems.is_empty(),
        "{}\nregenerate with `cargo run --release -p spread-bench --bin repro` and commit results/",
        problems.join("\n")
    );
}
