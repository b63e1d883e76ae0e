//! Every shipped example query (`queries/*.sase`) must parse, lint
//! clean, and be what its `examples/*.rs` counterpart runs: the example
//! either loads the file or embeds the same pattern.

use cep_analyze::analyze_query_file;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Extracts the `PATTERN ... WITHIN ...` text from a Rust example source
/// (the first string literal starting with `PATTERN`).
fn pattern_in_example(source: &str) -> Option<String> {
    let start = source.find("\"PATTERN")? + 1;
    let end = start + source[start..].find('"')?;
    Some(source[start..end].to_string())
}

#[test]
fn all_example_queries_lint_clean() {
    let dir = repo_root().join("queries");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("sase") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        let (_, report) = analyze_query_file(&source)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", path.display()));
        assert!(
            report.is_clean(),
            "{} should lint clean, got:\n{report}",
            path.display()
        );
        checked += 1;
    }
    assert_eq!(checked, 8, "expected the eight shipped example queries");
}

#[test]
fn query_files_match_their_examples() {
    let root = repo_root();
    for entry in std::fs::read_dir(root.join("queries")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("sase") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let example = root.join("examples").join(format!("{stem}.rs"));
        let example_src = std::fs::read_to_string(&example)
            .unwrap_or_else(|e| panic!("{} has no example twin: {e}", path.display()));
        // An example that loads its query file runs that very pattern.
        if example_src.contains(&format!("include_str!(\"../queries/{stem}.sase\")")) {
            continue;
        }
        let embedded = pattern_in_example(&example_src)
            .unwrap_or_else(|| panic!("{} embeds no PATTERN literal", example.display()));
        let query_src = std::fs::read_to_string(&path).unwrap();
        let from_file = &query_src[query_src.find("PATTERN").unwrap()..];
        assert_eq!(
            normalize(from_file),
            normalize(&embedded),
            "{} drifted from {}",
            path.display(),
            example.display()
        );
    }
}
