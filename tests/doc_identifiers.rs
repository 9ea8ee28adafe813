//! The prose names only identifiers the source has.
//!
//! Every backticked path in DESIGN.md and README.md (`Runtime::new`,
//! `spread_core::schedule::distribute`, `Scope::{record, events}`) names
//! items that must appear in the code of some `.rs` file of the tree,
//! comments stripped: an item the code neither defines nor uses is gone.
//! A path rooted in a file (`tests/conformance.rs::a_spilled_run_…`)
//! resolves against that file alone.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a readable directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers in a file's code, every `//` comment cut off.
fn code_words(text: &str) -> HashSet<String> {
    text.lines()
        .flat_map(|l| l.split("//").next().unwrap().split(|c| !is_ident_char(c)))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// The backticked spans of a Markdown text outside fenced code blocks,
/// each with the line it starts on (a span may wrap onto the next line).
fn spans(text: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut open: Option<(usize, String)> = None;
    let mut fenced = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for (k, piece) in line.split('`').enumerate() {
            if k > 0 {
                match open.take() {
                    Some(span) => spans.push(span),
                    None => open = Some((n + 1, String::new())),
                }
            }
            if let Some((_, span)) = &mut open {
                span.push_str(piece);
            }
        }
        if let Some((_, span)) = &mut open {
            span.push('\n');
        }
    }
    spans
}

/// Each `(root, item)` a backticked span names: the text before the first
/// `::` and every identifier after a `::` (each name of a `{a, b}` list).
fn named_items(span: &str) -> Vec<(&str, &str)> {
    let Some(first) = span.find("::") else {
        return Vec::new();
    };
    let root = span[..first]
        .rsplit(|c: char| c.is_whitespace() || c == '(' || c == '[')
        .next()
        .unwrap();
    let mut items = Vec::new();
    for (at, _) in span.match_indices("::") {
        let rest = &span[at + 2..];
        let names: Vec<&str> = match rest.strip_prefix('{') {
            Some(list) => list[..list.find('}').unwrap_or(list.len())]
                .split(',')
                .collect(),
            None => vec![rest],
        };
        for name in names {
            let name = name.trim_start();
            let end = name.find(|c| !is_ident_char(c)).unwrap_or(name.len());
            items.push((root, &name[..end]));
        }
    }
    items
}

#[test]
fn every_backticked_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    let mut by_file = HashMap::new();
    let mut everywhere = HashSet::new();
    for file in files {
        let words = code_words(&fs::read_to_string(&file).expect("a readable source"));
        everywhere.extend(words.iter().cloned());
        let rel = file
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        by_file.insert(rel, words);
    }
    let mut unresolved = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("a readable doc");
        for (line, span) in spans(&text) {
            for (path_root, item) in named_items(&span) {
                let words = if path_root.ends_with(".rs") {
                    by_file.get(path_root)
                } else {
                    Some(&everywhere)
                };
                if !words.is_some_and(|w| w.contains(item)) {
                    unresolved.push(format!("{doc}:{line}: `{span}` names `{item}`"));
                }
            }
        }
    }
    assert!(
        unresolved.is_empty(),
        "doc paths that name no identifier of the source:\n{}",
        unresolved.join("\n")
    );
}
