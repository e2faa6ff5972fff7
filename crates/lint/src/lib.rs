//! `ads-lint`: repo-invariant static analysis, v2.
//!
//! A std-only analyzer enforcing the workspace's machine-checked
//! concurrency, robustness, and skipping-protocol conventions. v1 was
//! a line scanner; v2 lexes every file into a token stream
//! ([`lexer`]), parses function bodies into statement trees with a
//! branch-join dataflow layer ([`flow`]), and runs both the original
//! style rules (now token-exact) and five repo passes
//! ([`passes`]) over that IR. The tool stays dependency-free (the
//! offline build forbids syn/clippy plugins) and fast enough to gate
//! CI.
//!
//! Rules (see DESIGN.md "Correctness tooling" for rationale):
//!
//! | rule               | requirement                                          |
//! |--------------------|------------------------------------------------------|
//! | `ordering-comment` | every atomic `Ordering::` use carries `// ordering:` (match-pattern positions exempt) |
//! | `unwrap-invariant` | no `unwrap()`/`expect(` in non-test code unless `// invariant:`-tagged |
//! | `cast-narrowing`   | no bare `as u32`/`as usize` unless `// narrowing:`-tagged |
//! | `atomic-import`    | crates/server must import atomics via its `sync` module |
//! | `unsafe-allow`     | `allow(unsafe_code)` requires a DESIGN.md pointer    |
//! | `forbid-unsafe`    | every crate root declares `#![forbid(unsafe_code)]`  |
//!
//! Repo passes (the v2 additions):
//!
//! | pass                     | protocol it guards                              |
//! |--------------------------|-------------------------------------------------|
//! | `epoch-discipline`       | writes to what a reader decides from (zone structure; the `wants_mask` evidence) bump `mutation_epoch` on every path (else `// epoch:`) |
//! | `publication-discipline` | `publish*` fns store payload before the generation bump, nothing after |
//! | `live-mask`              | all-live liveness sources only with `// live:` outside scan.rs/the scalar oracle/tests |
//! | `lifecycle-symmetry`     | tier/layout/mask promotions cleared on split/merge/deactivate/coalesce/compact paths |
//! | `dead-surface`           | a `pub` fn/const/static/struct/enum/trait/type of a library target (a crate's `src/` minus `src/bin/` and `main.rs`) has a user outside its own file (else `// api: <user>`) |
//!
//! A dead-surface user is any mention in another file's non-test code:
//! other crates, `benchmark/`, `examples/`, binaries. Not users: code
//! under `#[cfg(test)]` or in a `tests/` directory, `use` / `pub use`
//! lines (a re-export is not a use) and comments, doc comments
//! included. A type named in the signature of a `pub` item that has a
//! user counts as used — callers reach it through that item. The
//! `// api:` tag is for what the index cannot see: a doctest-only item,
//! or a reference oracle that tests compare against.
//!
//! False-positive escape hatches, in order of preference: a
//! justification comment at the site, or a `rule path-prefix` line in
//! the allowlist file (for whole modules where the rule does not
//! apply).

#![forbid(unsafe_code)]

pub mod flow;
pub mod lexer;
pub mod passes;

use flow::TokenFile;
use lexer::{lex, TokKind};
use passes::FileScan;
use std::fmt;

/// One finding: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A source line split into executable code and comment text by the
/// line lexer: string/char literal contents are blanked out of `code`,
/// and comments (line, doc, and block) land in `comment`. The token
/// stream is the primary IR; this view remains for justification
/// markers and the test-region mask, which are inherently line
/// concepts.
#[derive(Debug, Clone)]
pub struct Line {
    pub num: usize,
    pub code: String,
    pub comment: String,
}

/// Lexes `src` into per-line (code, comment) pairs. Handles nested
/// block comments, ordinary/raw string literals, char literals, and
/// distinguishes lifetimes (`'a`) from char literals (`'a'`).
fn strip_source(src: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(u32),
        LineComment,
        Str,
        RawStr(u32),
    }
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut num = 1usize;
    let mut st = St::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut prev_code_char = ' ';
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            lines.push(Line {
                num,
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
            });
            num += 1;
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                if c == '/' && next == '/' {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = St::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    st = St::Str;
                    i += 1;
                } else if c == 'r'
                    && !prev_code_char.is_alphanumeric()
                    && prev_code_char != '_'
                    && (next == '"' || next == '#')
                {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        code.push('r');
                        code.push('"');
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else {
                        code.push(c);
                        prev_code_char = c;
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal or lifetime. A char literal closes
                    // within a few chars; a lifetime never closes.
                    if next == '\\' {
                        // Escaped char literal: skip to the closing quote.
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1;
                        }
                        code.push_str("' '");
                        i = (j + 1).min(chars.len());
                    } else if chars.get(i + 2) == Some(&'\'') {
                        code.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime: keep the tick, continue as code.
                        code.push('\'');
                        i += 1;
                    }
                    prev_code_char = '\'';
                } else {
                    code.push(c);
                    prev_code_char = c;
                    i += 1;
                }
            }
            St::LineComment => {
                comment.push(c);
                i += 1;
            }
            St::Block(depth) => {
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                if c == '*' && next == '/' {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = St::Block(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    st = St::Code;
                    prev_code_char = '"';
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        code.push('"');
                        st = St::Code;
                        prev_code_char = '"';
                        i = j;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line { num, code, comment });
    }
    lines
}

/// Marks each line that is test-only code: inside a `#[cfg(test)]` /
/// `#[test]` / `#[bench]` item (tracked by brace depth), so production
/// rules skip it.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i32 = 0;
    // Brace depths at which a test item opened; while non-empty we are
    // inside test code.
    let mut regions: Vec<i32> = Vec::new();
    let mut pending_attr = false;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if code.contains("#[cfg(test)]") || code.contains("#[test]") || code.contains("#[bench]") {
            pending_attr = true;
        }
        let mut in_test_here = !regions.is_empty() || pending_attr;
        for ch in code.chars() {
            match ch {
                '{' => {
                    if pending_attr {
                        // The attributed item's body opens here; the
                        // region lasts until depth returns to this level.
                        regions.push(depth);
                        pending_attr = false;
                        in_test_here = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last().is_some_and(|&d| depth <= d) {
                        regions.pop();
                    }
                }
                // `#[cfg(test)] use ...;` or `mod tests;` — the
                // attribute applied to a braceless item.
                ';' if pending_attr && !code.trim_start().starts_with("#[") => {
                    pending_attr = false;
                }
                _ => {}
            }
        }
        mask[idx] = in_test_here || !regions.is_empty();
    }
    mask
}

/// Per-file facts the path-sensitive rules need. Paths are
/// root-relative with forward slashes.
#[derive(Debug, Clone)]
pub struct FileCtx {
    pub path: String,
}

impl FileCtx {
    pub fn new(path: impl Into<String>) -> Self {
        FileCtx { path: path.into() }
    }

    /// Whole-file test/bench/example context: exempt from the
    /// robustness rules (panicking on bad input is fine there).
    pub(crate) fn is_test_file(&self) -> bool {
        let p = &self.path;
        p.contains("/tests/")
            || p.contains("/benches/")
            || p.contains("/examples/")
            || p.starts_with("tests/")
            || p.starts_with("benches/")
            || p.starts_with("examples/")
            || p.starts_with("crates/bench/")
    }

    /// crates/server source outside the sync indirection module.
    fn is_server_non_sync(&self) -> bool {
        self.path.starts_with("crates/server/src/") && !self.path.ends_with("/sync.rs")
    }

    /// Crate roots (lib.rs, main.rs, src/bin/*.rs) must forbid unsafe.
    fn is_crate_root(&self) -> bool {
        let p = &self.path;
        (p.starts_with("crates/") && (p.ends_with("/src/lib.rs") || p.ends_with("/src/main.rs")))
            || (p.contains("/src/bin/") && p.ends_with(".rs"))
    }
}

/// True when `lines[idx]`, one of the `window - 1` lines above it, or any
/// line of the contiguous comment block immediately above it carries
/// `marker` in a comment — i.e. the site is justified. The block rule
/// lets a multi-line justification keep its marker on the first line
/// without the fixed window cutting it off.
pub(crate) fn has_marker(lines: &[Line], idx: usize, marker: &str, window: usize) -> bool {
    let lo = idx.saturating_sub(window - 1);
    if lines[lo..=idx].iter().any(|l| l.comment.contains(marker)) {
        return true;
    }
    // Walk the attached block directly above the site: comment lines,
    // plus attribute lines (`#[allow(...)]` between a justification and
    // its site must not orphan the comment).
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code = l.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#!");
        if !code.is_empty() && !is_attr {
            return false;
        }
        if l.comment.contains(marker) {
            return true;
        }
        if l.comment.is_empty() && !is_attr {
            // A blank line ends the attached block.
            return false;
        }
    }
    false
}

const ATOMIC_ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs the whole suite — file-local rules plus the cross-file
/// lifecycle and dead-surface passes — over a set of `(ctx, source)`
/// pairs.
pub fn scan_repo(files: &[(FileCtx, String)]) -> Vec<Diagnostic> {
    let parsed: Vec<(usize, Vec<Line>, Vec<bool>, TokenFile)> = files
        .iter()
        .enumerate()
        .map(|(i, (_, src))| {
            let lines = strip_source(src);
            let mask = test_mask(&lines);
            (i, lines, mask, TokenFile::new(lex(src)))
        })
        .collect();
    let scans: Vec<FileScan<'_>> = parsed
        .iter()
        .map(|(i, lines, mask, tf)| FileScan {
            ctx: &files[*i].0,
            lines,
            mask,
            tf,
        })
        .collect();
    let mut out = Vec::new();
    for fs in &scans {
        out.extend(scan_one(fs));
    }
    passes::lifecycle_pass(&scans, &mut out);
    passes::dead_surface_pass(&scans, &mut out);
    out.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    out
}

/// The file-local rules + passes over one prepared [`FileScan`].
fn scan_one(fs: &FileScan<'_>) -> Vec<Diagnostic> {
    let ctx = fs.ctx;
    let lines = fs.lines;
    let mask = fs.mask;
    let code = &fs.tf.code;
    let mut out = Vec::new();
    let diag = |rule: &'static str, line: usize, msg: String| Diagnostic {
        rule,
        path: ctx.path.clone(),
        line,
        msg,
    };
    let masked = |line: usize| mask.get(line.saturating_sub(1)).copied().unwrap_or(false);
    let justified = |line: usize, marker: &str| {
        let idx = line.saturating_sub(1);
        idx < lines.len() && has_marker(lines, idx, marker, 3)
    };

    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = |k: usize| code.get(i + k).map(|n| n.text.as_str());
        let prev = |k: usize| i.checked_sub(k).map(|j| code[j].text.as_str());

        // ordering-comment: atomic `Ordering::Variant` uses need a
        // justification. The five variant names keep std::cmp::Ordering
        // (Less/Equal/Greater) out of scope; match-pattern positions
        // (`Ordering::Relaxed => ...`, `A | B`, the second argument of
        // `matches!`) are semantics code inspecting an ordering, not an
        // atomic access site.
        if t.text == "Ordering" && next(1) == Some("::") {
            if let Some(variant) = next(2) {
                if ATOMIC_ORDERING_VARIANTS.contains(&variant) {
                    // Inside `matches!(expr, pat)`: walk back to the
                    // unmatched `(` and check what invoked it.
                    let in_matches_macro = || {
                        let mut depth = 0i32;
                        for j in (0..i).rev().take(40) {
                            match code[j].text.as_str() {
                                ")" | "]" | "}" => depth += 1,
                                "(" | "[" | "{" if depth > 0 => depth -= 1,
                                "(" => {
                                    return j >= 2
                                        && code[j - 1].text == "!"
                                        && code[j - 2].text == "matches";
                                }
                                "[" | "{" => return false,
                                _ => {}
                            }
                        }
                        false
                    };
                    let in_pattern = matches!(next(3), Some("=>") | Some("|"))
                        || prev(1) == Some("|")
                        || in_matches_macro();
                    if !in_pattern && !justified(t.line, "ordering:") {
                        out.push(diag(
                            "ordering-comment",
                            t.line,
                            format!(
                                "`Ordering::{variant}` without an adjacent \
                                 `// ordering:` justification"
                            ),
                        ));
                    }
                }
            }
        }

        // unwrap-invariant: production code must not panic casually.
        if !ctx.is_test_file()
            && !masked(t.line)
            && prev(1) == Some(".")
            && ((t.text == "unwrap" && next(1) == Some("(") && next(2) == Some(")"))
                || (t.text == "expect" && next(1) == Some("(")))
            && !justified(t.line, "invariant:")
        {
            out.push(diag(
                "unwrap-invariant",
                t.line,
                "`unwrap()`/`expect(` in non-test code without an \
                 adjacent `// invariant:` justification"
                    .into(),
            ));
        }

        // cast-narrowing: silent truncation needs a guard note.
        if !ctx.is_test_file()
            && !masked(t.line)
            && t.text == "as"
            && matches!(next(1), Some("u32") | Some("usize"))
            && !justified(t.line, "narrowing:")
        {
            out.push(diag(
                "cast-narrowing",
                t.line,
                "bare `as u32`/`as usize` without an adjacent \
                 `// narrowing:` justification"
                    .into(),
            ));
        }

        // atomic-import: crates/server goes through its sync module so
        // the model-check build swaps in the shims everywhere at once.
        if ctx.is_server_non_sync()
            && t.text == "std"
            && next(1) == Some("::")
            && next(2) == Some("sync")
            && next(3) == Some("::")
            && next(4) == Some("atomic")
        {
            out.push(diag(
                "atomic-import",
                t.line,
                "direct `std::sync::atomic` use in crates/server; \
                 import via `crate::sync` so model checking covers it"
                    .into(),
            ));
        }

        // unsafe-allow: re-enabling unsafe needs a design rationale.
        if t.text == "allow" && next(1) == Some("(") && next(2) == Some("unsafe_code") {
            let lo = t.line.saturating_sub(2);
            let pointed = fs.tf.comment_in_lines(lo, t.line, "DESIGN.md");
            if !pointed {
                out.push(diag(
                    "unsafe-allow",
                    t.line,
                    "`allow(unsafe_code)` without a `// see DESIGN.md` pointer".into(),
                ));
            }
        }
    }

    // forbid-unsafe: crate roots must carry the attribute.
    if ctx.is_crate_root() {
        let has_forbid = code.windows(6).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && w[3].text == "forbid"
                && w[4].text == "("
                && w[5].text == "unsafe_code"
        });
        if !has_forbid {
            out.push(diag(
                "forbid-unsafe",
                1,
                "crate root missing `#![forbid(unsafe_code)]`".into(),
            ));
        }
    }

    passes::epoch_pass(fs, &mut out);
    passes::publication_pass(fs, &mut out);
    passes::live_mask_pass(fs, &mut out);
    out
}

/// The allowlist: `rule path-prefix` lines, `#` comments and blanks
/// ignored. A diagnostic is suppressed when an entry's rule matches and
/// the diagnostic's path starts with the entry's prefix.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(prefix), None) => {
                    entries.push((rule.to_string(), prefix.to_string()));
                }
                _ => {
                    return Err(format!(
                        "allowlist line {}: expected `rule path-prefix`, got {raw:?}",
                        n + 1
                    ));
                }
            }
        }
        Ok(Allowlist { entries })
    }

    pub fn permits(&self, d: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|(rule, prefix)| rule == d.rule && d.path.starts_with(prefix))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_strings_and_comments() {
        let src = "let x = \"Ordering::Relaxed .unwrap()\"; // ordering: not code\n\
                   let y = 1; /* as u32 */\n";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("Relaxed"));
        assert!(lines[0].comment.contains("ordering:"));
        assert!(!lines[1].code.contains("u32"));
        assert!(lines[1].comment.contains("as u32"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_chars() {
        let src = "let s = r#\"x.unwrap() \"quoted\" \"#;\n\
                   let c = '\"'; let l: &'static str = \"ok\";\n\
                   let esc = '\\n'; x.unwrap();\n";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("unwrap"), "{:?}", lines[0].code);
        // The double quote hidden in a char literal must not open a string.
        assert!(!lines[1].code.contains("ok"));
        // Code after an escaped char literal is still seen.
        assert!(lines[2].code.contains(".unwrap()"));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "/* outer /* inner */ still comment .unwrap() */ let x = 1;\n";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("let x = 1;"));
    }

    #[test]
    fn test_mask_tracks_cfg_test_modules() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn prod2() {}\n";
        let lines = strip_source(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }
}
