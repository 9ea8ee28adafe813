//! The mutation table stays applicable.
//!
//! Every `mutants/*.patch` is one deliberate bug plus the command that
//! must catch it (`# must fail: <command>`); `bash mutants/run.sh`
//! applies each row to a copy of the tree and demands that its command
//! fail. That run is slow, so this test checks only what a refactor can
//! silently break: each row still names its command, and its diff still
//! applies to the tree as it is. A row whose anchor a change moved fails
//! here, not only in the full table run.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn every_mutation_row_names_its_command_and_applies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut rows: Vec<_> = fs::read_dir(root.join("mutants"))
        .expect("the mutants/ directory")
        .map(|e| e.expect("a readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "patch"))
        .collect();
    rows.sort();
    assert!(rows.len() >= 12, "only {} mutation rows", rows.len());
    for row in &rows {
        let name = row.file_stem().unwrap().to_string_lossy();
        let text = fs::read_to_string(row).expect("a readable row");
        let command = text.lines().find_map(|l| l.strip_prefix("# must fail: "));
        assert!(
            command.is_some_and(|c| !c.trim().is_empty()),
            "{name}: no `# must fail: <command>` line"
        );
        // Stop repository discovery at the tree's own root, so a copy of
        // the tree without `.git` is checked as a plain directory.
        let out = Command::new("git")
            .args(["apply", "--check"])
            .arg(row)
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .output()
            .unwrap_or_else(|e| panic!("`git` is needed to check the mutation table: {e}"));
        assert!(
            out.status.success(),
            "{name} no longer applies to the tree:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
