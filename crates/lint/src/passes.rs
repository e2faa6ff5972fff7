//! The five repo-specific passes.
//!
//! Each pass encodes one hand-maintained invariant of the adaptive
//! skipping system (or, for the last, of its API) as a machine check (see DESIGN.md "Correctness
//! tooling" for the protocol rationale):
//!
//! * [`epoch_pass`] — functions in `crates/core/src/adaptive/` that
//!   write reader-visible zone/tier/layout state must bump
//!   `mutation_epoch` on every path, or carry an `// epoch:` note
//!   saying why the write is reader-invisible (or whose bump covers
//!   it). Reader-visible is what a reader's walk decides from:
//!   structure, and the one piece of evidence among the statistics —
//!   whether a zone's `wasted_scans` puts its `wants_mask` answer on
//!   the other side of the threshold (`observe` tests it before and
//!   after each scan; the pass sees the structural writes, the
//!   `// epoch:` note there names the evidence). Without the bump,
//!   epoch-diffed `ShardedCell` republication skips the lane and
//!   readers serve stale metadata forever.
//! * [`publication_pass`] — in `crates/server`, a `publish*` function
//!   must store the payload **before** the generation bump and write
//!   nothing afterwards; a store after the bump lets a reader observe
//!   the new generation with a stale payload.
//! * [`live_mask_pass`] — the scan kernels are generic over a liveness
//!   source; an all-live one (the `AllLive` marker, or an all-live
//!   shorthand kernel) leaks tombstoned rows into answers wherever a
//!   delete vector is in play, so outside `scan.rs`, the `scalar`
//!   oracle and tests it needs a `// live: <why tombstone-free>` note.
//! * [`lifecycle_pass`] — promotion state (`tier`/`layout`/`mask`
//!   `Some(...)` sites) must be cleared symmetrically on the
//!   split/merge/deactivate/coalesce/compact paths: a structural
//!   transition that keeps a stale tier answers from dead metadata.
//! * [`dead_surface_pass`] — a `pub` item of a library target must have
//!   a user outside its own file: surface nobody calls is code kept for
//!   no one.

use crate::flow::{leaves, on_every_path, FnItem, TokenFile};
use crate::lexer::{Tok, TokKind, ASSIGN_OPS};
use crate::{has_marker, Diagnostic, FileCtx, Line};
use std::collections::{HashMap, HashSet};

/// Reader-visible zone-structure fields/collections: writing any of
/// these changes what a republished lane would serve. (`stats` is not
/// listed: of the statistics readers decide from `wants_mask` alone,
/// which `observe` compares before and after the scan it records.)
const EPOCH_TARGETS: [&str; 6] = ["state", "layout", "tier", "mask", "zones", "plane"];

/// Mutating methods that count as a structural write when their
/// receiver chain names an epoch target.
const EPOCH_MUTATORS: [&str; 13] = [
    "push", "insert", "remove", "splice", "drain", "truncate", "clear", "retain", "swap", "extend",
    "rebuild", "iter_mut", "take",
];

/// Methods that are a structural write regardless of receiver.
const EPOCH_ALWAYS_MUTATORS: [&str; 1] = ["drop_tier"];

/// The liveness marker that makes a generic kernel ignore tombstones.
const ALL_LIVE_MARKER: &str = "AllLive";

/// The all-live shorthand kernels of `ads_storage::scan`: correct only
/// when every row of the slice is known live.
const ALL_LIVE_KERNELS: [&str; 10] = [
    "count_in_range",
    "count_in_range_with_minmax",
    "collect_in_range",
    "fill_bitmap_in_range",
    "sum_in_range",
    "aggregate_in_range",
    "collect_in_range_with_minmax",
    "fill_bitmap_in_range_with_minmax",
    "min_max",
    "min_max_in_range",
];

/// Symbols the lifecycle pass pairs set-sites with clears for.
const LIFECYCLE_SYMBOLS: [&str; 3] = ["tier", "layout", "mask"];

/// Function-name fragments that mark a structural lifecycle path.
const LIFECYCLE_FNS: [&str; 5] = ["split", "merge", "deactivate", "coalesce", "compact"];

/// One file's lexed + line views, shared by every pass.
pub struct FileScan<'a> {
    pub ctx: &'a FileCtx,
    pub lines: &'a [Line],
    pub mask: &'a [bool],
    pub tf: &'a TokenFile,
}

impl FileScan<'_> {
    fn diag(&self, rule: &'static str, line: usize, msg: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.ctx.path.clone(),
            line,
            msg,
        }
    }

    fn line_masked(&self, line: usize) -> bool {
        self.mask
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    fn site_justified(&self, line: usize, marker: &str) -> bool {
        let idx = line.saturating_sub(1);
        idx < self.lines.len() && has_marker(self.lines, idx, marker, 3)
    }

    /// True when a comment carrying `marker` is attached to the
    /// function: anywhere in the contiguous doc/comment block directly
    /// above the header (attributes allowed between), or anywhere
    /// inside the body.
    fn fn_justified(&self, item: &FnItem, marker: &str) -> bool {
        if self
            .tf
            .comment_in_lines(item.header_line, item.end_line, marker)
        {
            return true;
        }
        // Walk the attached block above the header: comment lines and
        // attribute lines (`#[...]`), stopping at the first real code.
        let mut i = item.header_line.saturating_sub(1);
        while i > 0 {
            i -= 1;
            let Some(l) = self.lines.get(i) else { break };
            let code = l.code.trim();
            if !code.is_empty() && !code.starts_with("#[") && !code.starts_with("#!") {
                break;
            }
            if l.comment.contains(marker) {
                return true;
            }
        }
        false
    }
}

/// Whether `text` is one of the assignment operators.
fn is_assign(text: &str) -> bool {
    ASSIGN_OPS.contains(&text)
}

/// Structural-write sites in one leaf: `(line, what)` pairs.
fn leaf_writes(tf: &TokenFile, leaf: &[usize]) -> Vec<(usize, String)> {
    let code = &tf.code;
    let mut out = Vec::new();
    let has_let = leaf
        .iter()
        .any(|&p| code[p].kind == TokKind::Ident && code[p].text == "let");
    for (k, &p) in leaf.iter().enumerate() {
        let t = &code[p];
        // Assignment whose LHS names a target field/collection.
        if t.kind == TokKind::Punct && is_assign(&t.text) && !has_let {
            let lhs_hit = leaf[..k].iter().rev().take(8).find_map(|&q| {
                let u = &code[q];
                (u.kind == TokKind::Ident && EPOCH_TARGETS.contains(&u.text.as_str()))
                    .then(|| u.text.clone())
            });
            if let Some(field) = lhs_hit {
                out.push((t.line, format!("`{field}` assignment")));
            }
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = k > 0 && code[leaf[k - 1]].text == ".";
        // Mutating method on a target receiver chain.
        if prev_dot && EPOCH_ALWAYS_MUTATORS.contains(&t.text.as_str()) {
            out.push((t.line, format!("`.{}()`", t.text)));
        } else if prev_dot
            && EPOCH_MUTATORS.contains(&t.text.as_str())
            && leaf[..k.saturating_sub(1)].iter().rev().take(6).any(|&q| {
                let u = &code[q];
                u.kind == TokKind::Ident && EPOCH_TARGETS.contains(&u.text.as_str())
            })
        {
            out.push((t.line, format!("`.{}()` on zone structure", t.text)));
        }
        // `&mut` borrow of a target handed to a callee.
        if t.text == "mut" && k > 0 && code[leaf[k - 1]].text == "&" {
            let borrowed = leaf[k + 1..].iter().take(6).any(|&q| {
                let u = &code[q];
                u.kind == TokKind::Ident && EPOCH_TARGETS.contains(&u.text.as_str())
            });
            if borrowed {
                out.push((t.line, "`&mut` borrow of zone structure".into()));
            }
        }
    }
    out
}

/// Whether a leaf bumps the mutation epoch (`mutation_epoch +=` or a
/// `bump_epoch` call).
fn leaf_bumps(tf: &TokenFile, leaf: &[usize]) -> bool {
    let code = &tf.code;
    leaf.iter().enumerate().any(|(k, &p)| {
        let t = &code[p];
        t.kind == TokKind::Ident
            && (t.text == "bump_epoch"
                || (t.text == "mutation_epoch"
                    && leaf.get(k + 1).is_some_and(|&q| is_assign(&code[q].text))))
    })
}

/// Pass 1: epoch discipline over `crates/core/src/adaptive/`.
pub fn epoch_pass(fs: &FileScan<'_>, out: &mut Vec<Diagnostic>) {
    if !fs.ctx.path.starts_with("crates/core/src/adaptive/") || fs.ctx.path.ends_with("/tests.rs") {
        return;
    }
    for item in fs.tf.functions() {
        if fs.line_masked(item.header_line) {
            continue;
        }
        let mut all = Vec::new();
        leaves(&item.tree, &mut all);
        let writes: Vec<(usize, String)> = all
            .iter()
            .flat_map(|leaf| leaf_writes(fs.tf, leaf))
            .filter(|(line, _)| !fs.line_masked(*line))
            .collect();
        if writes.is_empty() {
            continue;
        }
        if on_every_path(&item.tree, &|leaf| leaf_bumps(fs.tf, leaf)) {
            continue;
        }
        if fs.fn_justified(&item, "epoch:") {
            continue;
        }
        let (first_line, what) = &writes[0];
        out.push(fs.diag(
            "epoch-discipline",
            *first_line,
            format!(
                "fn `{}` writes zone structure ({}, {} site(s)) without bumping \
                 `mutation_epoch` on every path; bump it or add an \
                 `// epoch: <why reader-invisible>` justification",
                item.name,
                what,
                writes.len()
            ),
        ));
    }
}

/// Pass 2: publication discipline over `crates/server/src/`.
pub fn publication_pass(fs: &FileScan<'_>, out: &mut Vec<Diagnostic>) {
    if !fs.ctx.path.starts_with("crates/server/src/") {
        return;
    }
    let code = &fs.tf.code;
    for item in fs.tf.functions() {
        if !item.name.starts_with("publish") || fs.line_masked(item.header_line) {
            continue;
        }
        let (start, end) = item.body;
        // Locate the generation bump: `generation` followed closely by
        // `fetch_add`/`store`.
        let bump = (start..end).find(|&i| {
            code[i].kind == TokKind::Ident
                && code[i].text == "generation"
                && (i + 1..(i + 4).min(end)).any(|j| {
                    code[j].kind == TokKind::Ident
                        && (code[j].text == "fetch_add" || code[j].text == "store")
                })
        });
        let Some(bump_at) = bump else {
            continue; // delegating publisher: no bump of its own
        };
        // Skip past the bump's own statement.
        let mut i = bump_at;
        let mut depth = 0i32;
        while i < end {
            match code[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        // Anything stored after the bump is a protocol violation.
        let mut stmt_has_let = false;
        while i < end {
            let t = &code[i];
            if t.kind == TokKind::Ident && t.text == "let" {
                stmt_has_let = true;
            }
            if t.kind == TokKind::Punct && t.text == ";" {
                stmt_has_let = false;
            }
            let is_store_call = t.kind == TokKind::Ident
                && i > 0
                && code[i - 1].text == "."
                && matches!(t.text.as_str(), "store" | "push" | "insert" | "write")
                && code.get(i + 1).is_some_and(|n| n.text == "(");
            let is_assignment = t.kind == TokKind::Punct && is_assign(&t.text) && !stmt_has_let;
            if is_store_call || is_assignment {
                out.push(fs.diag(
                    "publication-discipline",
                    t.line,
                    format!(
                        "fn `{}` writes state after the generation bump; readers \
                         acquiring the new generation may observe the old payload \
                         — store everything before the bump",
                        item.name
                    ),
                ));
                break;
            }
            i += 1;
        }
    }
}

/// Pass 3: live-mask discipline — an all-live liveness source needs a
/// `// live:` justification outside `scan.rs`, the scalar oracle and
/// tests.
pub fn live_mask_pass(fs: &FileScan<'_>, out: &mut Vec<Diagnostic>) {
    let p = &fs.ctx.path;
    let in_scope = [
        "crates/storage/src/",
        "crates/engine/src/",
        "crates/server/src/",
        "crates/core/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre));
    if !in_scope
        || p == "crates/storage/src/scan.rs"
        || p.ends_with("/tests.rs")
        || fs.ctx.is_test_file()
    {
        return;
    }
    let code = &fs.tf.code;
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident || fs.line_masked(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| code[j].text.as_str());
        let next = code.get(i + 1).map(|n| n.text.as_str());
        let what = if t.text == ALL_LIVE_MARKER {
            // An import names the marker without scanning anything:
            // walking back over path and list tokens reaches `use`.
            let in_use = code[..i]
                .iter()
                .rev()
                .take_while(|b| {
                    b.kind == TokKind::Ident || matches!(b.text.as_str(), "::" | "," | "{" | "}")
                })
                .any(|b| b.text == "use");
            if in_use {
                continue;
            }
            "liveness source"
        } else if ALL_LIVE_KERNELS.contains(&t.text.as_str()) && next == Some("(") {
            // `.min_max()` is a method on some other type; `fn min_max`
            // is a definition; `scalar::` calls ARE the oracle.
            if prev == Some(".") || prev == Some("fn") {
                continue;
            }
            if prev == Some("::") && i >= 2 && code[i - 2].text == "scalar" {
                continue;
            }
            "shorthand kernel"
        } else {
            continue;
        };
        if fs.site_justified(t.line, "live:") {
            continue;
        }
        out.push(fs.diag(
            "live-mask",
            t.line,
            format!(
                "all-live {what} `{}` outside the scan kernels; deleted rows leak \
                 into the answer unless every row is live — pass the delete \
                 vector or add `// live: <why tombstone-free>`",
                t.text
            ),
        ));
    }
}

/// Pass 4: lifecycle symmetry across `crates/core/src/adaptive/`.
///
/// Cross-file: set-sites (tier/layout/mask promotion) are collected
/// over the whole directory, then every structural lifecycle function
/// must clear (or guard, or justify) each promoted symbol.
pub fn lifecycle_pass(files: &[FileScan<'_>], out: &mut Vec<Diagnostic>) {
    let adaptive: Vec<&FileScan<'_>> = files
        .iter()
        .filter(|fs| {
            fs.ctx.path.starts_with("crates/core/src/adaptive/")
                && !fs.ctx.path.ends_with("/tests.rs")
        })
        .collect();
    if adaptive.is_empty() {
        return;
    }
    // Which symbols are ever promoted?
    let mut promoted: Vec<&str> = Vec::new();
    for fs in &adaptive {
        let code = &fs.tf.code;
        for i in 0..code.len() {
            let t = &code[i];
            if t.kind != TokKind::Ident
                || !LIFECYCLE_SYMBOLS.contains(&t.text.as_str())
                || fs.line_masked(t.line)
            {
                continue;
            }
            if code.get(i + 1).is_none_or(|n| n.text != "=") {
                continue;
            }
            let rhs_promotes = (i + 2..(i + 6).min(code.len()))
                .any(|j| matches!(code[j].text.as_str(), "Some" | "Reorganized"));
            if rhs_promotes && !promoted.contains(&t.text.as_str()) {
                // narrowing the borrow: LIFECYCLE_SYMBOLS entries are
                // 'static, re-find the static str.
                if let Some(s) = LIFECYCLE_SYMBOLS.iter().find(|s| **s == t.text) {
                    promoted.push(s);
                }
            }
        }
    }
    if promoted.is_empty() {
        return;
    }
    for fs in &adaptive {
        for item in fs.tf.functions() {
            let lname = item.name.to_lowercase();
            if !LIFECYCLE_FNS.iter().any(|f| lname.contains(f)) || fs.line_masked(item.header_line)
            {
                continue;
            }
            // Only structural transitions owe clears: a read-only
            // helper that merely *decides* (should_split etc.) writes
            // nothing.
            let mut all = Vec::new();
            leaves(&item.tree, &mut all);
            let writes_structure = all.iter().any(|leaf| !leaf_writes(fs.tf, leaf).is_empty());
            if !writes_structure {
                continue;
            }
            if fs.fn_justified(&item, "lifecycle:") {
                continue;
            }
            let code = &fs.tf.code;
            let (start, end) = item.body;
            for sym in &promoted {
                let cleared = (start..end).any(|i| {
                    let t = &code[i];
                    if t.kind != TokKind::Ident {
                        return false;
                    }
                    // `drop_tier()` clears the tier; `is_reorganized`
                    // guards mean the layout case is explicitly routed.
                    if *sym == "tier" && t.text == "drop_tier" {
                        return true;
                    }
                    if *sym == "layout" && t.text == "is_reorganized" {
                        return true;
                    }
                    if t.text != *sym {
                        return false;
                    }
                    // `sym = None` / `sym = ZoneLayout::Flat`,
                    // struct-literal `sym: None` / `sym: ZoneLayout::Flat`,
                    // or `sym.take()`.
                    let next = code.get(i + 1).map(|n| n.text.as_str());
                    if next == Some(".") && code.get(i + 2).is_some_and(|n| n.text == "take") {
                        return true;
                    }
                    if next == Some("=") || next == Some(":") {
                        return (i + 2..(i + 6).min(end))
                            .any(|j| matches!(code[j].text.as_str(), "None" | "Flat"));
                    }
                    false
                });
                if !cleared {
                    out.push(fs.diag(
                        "lifecycle-symmetry",
                        item.header_line,
                        format!(
                            "lifecycle fn `{}` transitions zone structure but never \
                             clears `{sym}` (promoted elsewhere in this directory); \
                             clear it, guard it, or add `// lifecycle: <why>`",
                            item.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Item kinds after `pub` that the dead-surface pass tracks.
const SURFACE_KINDS: [&str; 7] = ["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Keywords whose next identifier is a definition, not a use.
const DEF_KEYWORDS: [&str; 9] = [
    "fn", "const", "static", "struct", "enum", "trait", "type", "mod", "union",
];

/// One `pub` item of a library target.
struct SurfaceItem<'a> {
    file: usize,
    kind: &'a str,
    name: &'a str,
    line: usize,
    /// Identifiers of its signature (a fn up to its body; a type, const
    /// or trait through its body): what a caller reaches through it.
    sig: Vec<&'a str>,
    /// Carries an `// api: <user>` tag.
    tagged: bool,
}

/// Library-target source: a crate's `src/` minus `src/bin/` and
/// `main.rs`. (`benchmark/` is a separate package: a user, not surface.)
fn is_library_source(path: &str) -> bool {
    (path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/")))
        && !path.contains("/bin/")
        && !path.ends_with("/main.rs")
}

/// Identifiers from the item keyword at `kw` to the end of its
/// signature: a fn's body `{`, or the `;` / closing `}` of anything else.
fn signature(code: &[Tok], kw: usize) -> Vec<&str> {
    let is_fn = code[kw].text == "fn";
    let mut depth = 0i32;
    let mut sig = Vec::new();
    for t in &code[kw + 1..] {
        match t.text.as_str() {
            "{" if depth == 0 && is_fn => break,
            ";" if depth == 0 => break,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            name if t.kind == TokKind::Ident => sig.push(name),
            _ => {}
        }
    }
    sig
}

/// The files a `#[cfg(test)] mod name;` declaration in `fs` pulls in.
fn test_module_files(fs: &FileScan<'_>) -> Vec<String> {
    let code = &fs.tf.code;
    let p = fs.ctx.path.as_str();
    let dir = match p.rsplit_once('/') {
        Some((dir, "mod.rs" | "lib.rs" | "main.rs")) => dir.to_string(),
        _ => p.trim_end_matches(".rs").to_string(),
    };
    let mut out = Vec::new();
    for w in code.windows(3) {
        if w[0].text == "mod" && w[2].text == ";" && fs.line_masked(w[0].line) {
            out.push(format!("{dir}/{}.rs", w[1].text));
            out.push(format!("{dir}/{}/mod.rs", w[1].text));
        }
    }
    out
}

/// Pass 5: dead public surface, repo-wide.
///
/// One name index covers every file outside `tests/` directories and
/// `#[cfg(test)]` code (test-only module files included), with `use` /
/// `pub use` declarations, comments and definition names left out. A
/// `pub` fn/const/static/struct/enum/trait/type of a library target is a
/// finding when its name is in no other file's index — unless a type is
/// named in the signature of a `pub` item that is not itself a finding
/// (the returned type is how callers reach it), or the item carries an
/// `// api: <user>` tag for a user the index cannot see (a doctest, or a
/// reference oracle other crates' tests compare against).
pub fn dead_surface_pass(files: &[FileScan<'_>], out: &mut Vec<Diagnostic>) {
    let test_modules: HashSet<String> = files.iter().flat_map(test_module_files).collect();
    let mut users: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut items: Vec<SurfaceItem<'_>> = Vec::new();
    for (f, fs) in files.iter().enumerate() {
        let p = fs.ctx.path.as_str();
        if p.starts_with("tests/") || p.contains("/tests/") || test_modules.contains(p) {
            continue;
        }
        let code = &fs.tf.code;
        let library = is_library_source(p);
        let mut in_use = false;
        for (k, t) in code.iter().enumerate() {
            if t.kind != TokKind::Ident {
                in_use &= t.text != ";";
                continue;
            }
            in_use |= t.text == "use";
            if in_use || fs.line_masked(t.line) {
                continue;
            }
            let prev = k.checked_sub(1).map(|j| code[j].text.as_str());
            if prev.is_some_and(|p| DEF_KEYWORDS.contains(&p)) {
                continue;
            }
            let files = users.entry(t.text.as_str()).or_default();
            if files.last() != Some(&f) {
                files.push(f);
            }
            // `pub [const|async|unsafe] <kind> <name>`; `pub(crate)` and
            // `pub mod` are not surface.
            if !library || t.text != "pub" {
                continue;
            }
            let Some(kw) = (k + 1..code.len().min(k + 4)).find(|&j| {
                SURFACE_KINDS.contains(&code[j].text.as_str())
                    && code
                        .get(j + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text != "fn")
            }) else {
                continue;
            };
            if code[k + 1..kw].iter().any(|q| q.text == "(") {
                continue;
            }
            items.push(SurfaceItem {
                file: f,
                kind: &code[kw].text,
                name: &code[kw + 1].text,
                line: t.line,
                sig: signature(code, kw),
                tagged: fs.site_justified(t.line, "api:"),
            });
        }
    }
    let mut live: Vec<bool> = items
        .iter()
        .map(|it| {
            it.tagged
                || users
                    .get(it.name)
                    .is_some_and(|fs| fs.iter().any(|&f| f != it.file))
        })
        .collect();
    // Reach through the signatures of live items until nothing changes.
    loop {
        let reached: HashSet<&str> = items
            .iter()
            .zip(&live)
            .filter(|(_, &l)| l)
            .flat_map(|(it, _)| it.sig.iter().copied())
            .collect();
        let mut changed = false;
        for (it, l) in items.iter().zip(live.iter_mut()) {
            if !*l && reached.contains(it.name) {
                *l = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (it, _) in items.iter().zip(&live).filter(|(_, &l)| !l) {
        out.push(files[it.file].diag(
            "dead-surface",
            it.line,
            format!(
                "pub {} `{}` has no user outside this file (tests, `use` lines and \
                 comments do not count); delete it, narrow it, or tag it `// api: <user>`",
                it.kind, it.name
            ),
        ));
    }
}
