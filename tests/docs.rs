//! The prose may only cite code that exists.
//!
//! DESIGN.md and README.md name functions, types and modules in
//! backticks. Every backticked `a::b[::c]` path, and every backticked
//! bare identifier of at least twelve characters (short ones are too
//! often ordinary words or placeholders), must occur as a word somewhere
//! in the sources, the benchmark package or the CI workflow — a grep, not
//! a resolver, but enough that a rename or a deletion cannot leave the
//! documents describing what is gone.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];
const SOURCES: [&str; 6] = ["crates", "src", "tests", "examples", "benchmark", ".github"];
const MIN_BARE_IDENT: usize = 12;

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Adds every identifier-shaped word of every UTF-8 file under `dir`.
fn collect_words(dir: &Path, words: &mut HashSet<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n != "target" && n != "out")
            {
                collect_words(&path, words);
            }
        } else if let Ok(text) = fs::read_to_string(&path) {
            words.extend(
                text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty())
                    .map(str::to_string),
            );
        }
    }
}

/// The inline code spans of a markdown text, fenced blocks excluded
/// (those hold shell commands and sample output, not citations).
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The words a span cites, if it is a path or a long bare identifier.
fn cited_words(span: &str) -> Vec<&str> {
    // `Owner::feedback()` and `observe(...)` cite the name before the
    // parenthesis.
    let name = span.split('(').next().unwrap_or(span);
    let segments: Vec<&str> = name.split("::").collect();
    if !segments.iter().all(|s| is_ident(s)) {
        return Vec::new();
    }
    match segments.as_slice() {
        [bare] if bare.len() < MIN_BARE_IDENT => Vec::new(),
        _ => segments,
    }
}

#[test]
fn docs_cite_only_names_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut words = HashSet::new();
    for dir in SOURCES {
        collect_words(&root.join(dir), &mut words);
    }
    assert!(
        words.contains("collect_words"),
        "the source walk found nothing"
    );

    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("document is readable");
        for span in code_spans(&text) {
            for word in cited_words(&span) {
                if !words.contains(word) {
                    missing.push(format!("{doc}: `{span}` cites `{word}`"));
                }
            }
        }
    }
    missing.sort();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "the documents cite names found nowhere under {SOURCES:?}:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn citation_rules() {
    assert_eq!(cited_words("Owner::feedback"), ["Owner", "feedback"]);
    assert_eq!(cited_words("prune_shared(&self)"), ["prune_shared"]);
    assert_eq!(cited_words("observe"), Vec::<&str>::new(), "short and bare");
    assert_eq!(
        cited_words("cargo test -q"),
        Vec::<&str>::new(),
        "a command"
    );
    assert_eq!(
        cited_words("storage::{sketch, imprint}"),
        Vec::<&str>::new()
    );
    assert_eq!(
        code_spans("a `b c`\n```\n`fenced`\n```\nd `e\nf`"),
        ["b c", "e f"]
    );
}
