//! Fixture tests for every ads-lint rule: each fixture is an inline
//! source string scanned through the public API, with positive cases
//! (the rule fires at the right line) and negative cases (justified or
//! out-of-scope code stays clean).

use ads_lint::{scan_file, scan_repo, strip_source, test_mask, Allowlist, Diagnostic, FileCtx};

fn rules_at(diags: &[Diagnostic]) -> Vec<(&'static str, usize)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

fn scan(path: &str, src: &str) -> Vec<Diagnostic> {
    scan_file(&FileCtx::new(path), src)
}

/// Diagnostics of one rule only — pass fixtures often trip a second
/// rule on purpose (an unjustified write is usually also an epoch
/// finding), and each test asserts on its own pass.
fn only(diags: Vec<Diagnostic>, rule: &str) -> Vec<(String, usize)> {
    diags
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.path, d.line))
        .collect()
}

// ---------------------------------------------------------------- lexer

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

// ------------------------------------------------------ ordering-comment

#[test]
fn ordering_comment_fires_without_justification() {
    let src = "use std::sync::atomic::Ordering;\n\
               fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
    let diags = scan("crates/core/src/x.rs", src);
    assert_eq!(rules_at(&diags), vec![("ordering-comment", 2)]);
}

#[test]
fn ordering_comment_accepts_adjacent_marker() {
    let src = "fn f(a: &AtomicU64) {\n\
                   // ordering: Acquire — pairs with publish().\n\
                   a.load(Ordering::Acquire);\n\
               }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn ordering_comment_ignores_cmp_ordering() {
    let src = "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }\n\
               fn g(o: Ordering) { matches!(o, Ordering::Equal); }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn ordering_comment_applies_to_test_code_too() {
    // Concurrency tests document their orderings like production code.
    let src = "#[cfg(test)]\nmod tests {\n fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}\n";
    let diags = scan("crates/core/src/x.rs", src);
    assert_eq!(rules_at(&diags), vec![("ordering-comment", 3)]);
}

// ------------------------------------------------------ unwrap-invariant

#[test]
fn unwrap_fires_in_production_code() {
    let src = "fn f() { x.unwrap(); }\nfn g() { y.expect(\"m\"); }\n";
    let diags = scan("crates/core/src/x.rs", src);
    assert_eq!(
        rules_at(&diags),
        vec![("unwrap-invariant", 1), ("unwrap-invariant", 2)]
    );
}

#[test]
fn unwrap_accepts_invariant_tag() {
    let src = "fn f() {\n\
                   // invariant: the queue is non-empty after push above.\n\
                   x.unwrap();\n\
               }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn unwrap_exempt_in_tests_benches_examples() {
    let src = "fn f() { x.unwrap(); }\n";
    for path in [
        "crates/core/tests/t.rs",
        "tests/integration.rs",
        "examples/demo.rs",
        "crates/bench/src/report.rs",
    ] {
        assert!(scan(path, src).is_empty(), "{path} should be exempt");
    }
}

#[test]
fn unwrap_exempt_inside_cfg_test_module() {
    let src = "fn prod() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { x.unwrap(); }\n\
               }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

// -------------------------------------------------------- cast-narrowing

#[test]
fn cast_narrowing_fires_on_bare_casts() {
    let src = "fn f(x: u64) -> u32 { x as u32 }\nfn g(x: u64) -> usize { x as usize }\n";
    let diags = scan("crates/core/src/x.rs", src);
    assert_eq!(
        rules_at(&diags),
        vec![("cast-narrowing", 1), ("cast-narrowing", 2)]
    );
}

#[test]
fn cast_narrowing_accepts_marker_and_ignores_widening() {
    let src = "fn f(x: u64) -> u32 {\n\
                   // narrowing: x < u32::MAX by the block-size bound.\n\
                   x as u32\n\
               }\n\
               fn g(x: u32) -> u64 { x as u64 }\n\
               fn h() { let alias = x; }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn cast_narrowing_needs_token_boundary() {
    // `alias u32`-style substrings and identifiers ending in `as` must
    // not match.
    let src = "fn f() { let canvas_u32 = 1; bias_usize(); }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

// --------------------------------------------------------- atomic-import

#[test]
fn atomic_import_fires_only_in_server_outside_sync() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n";
    let diags = scan("crates/server/src/stats.rs", src);
    assert_eq!(rules_at(&diags), vec![("atomic-import", 1)]);
    assert!(scan("crates/server/src/sync.rs", src).is_empty());
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- unsafe rules

#[test]
fn unsafe_allow_needs_design_pointer() {
    let bad = "#![allow(unsafe_code)]\n";
    let diags = scan("crates/core/src/x.rs", bad);
    assert_eq!(rules_at(&diags), vec![("unsafe-allow", 1)]);

    let good = "// SIMD intrinsics; see DESIGN.md \"unsafe policy\".\n#![allow(unsafe_code)]\n";
    assert!(scan("crates/core/src/x.rs", good).is_empty());
}

#[test]
fn forbid_unsafe_required_in_crate_roots() {
    let bare = "pub fn f() {}\n";
    for root in [
        "crates/core/src/lib.rs",
        "crates/cli/src/main.rs",
        "crates/bench/src/bin/harness.rs",
    ] {
        let diags = scan(root, bare);
        assert_eq!(rules_at(&diags), vec![("forbid-unsafe", 1)], "{root}");
    }
    // Non-root modules don't need the attribute.
    assert!(scan("crates/core/src/scan.rs", bare).is_empty());
    // Roots that carry it are clean.
    let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(scan("crates/core/src/lib.rs", good).is_empty());
}

// ------------------------------------------------------------- allowlist

#[test]
fn allowlist_suppresses_by_rule_and_prefix() {
    let allow = Allowlist::parse(
        "# kernel modules may narrow under block-size guards\n\
         cast-narrowing crates/storage/\n\
         \n\
         ordering-comment crates/check/src/\n",
    )
    .unwrap();
    assert_eq!(allow.len(), 2);

    let hit = |rule, path: &str| Diagnostic {
        rule,
        path: path.into(),
        line: 1,
        msg: String::new(),
    };
    assert!(allow.permits(&hit("cast-narrowing", "crates/storage/src/scan.rs")));
    // Different rule, same path: not suppressed.
    assert!(!allow.permits(&hit("unwrap-invariant", "crates/storage/src/scan.rs")));
    // Same rule, different path: not suppressed.
    assert!(!allow.permits(&hit("cast-narrowing", "crates/server/src/stats.rs")));
}

#[test]
fn allowlist_rejects_malformed_lines() {
    assert!(Allowlist::parse("just-one-field\n").is_err());
    assert!(Allowlist::parse("rule path extra-field\n").is_err());
}

// ------------------------------------------------------ epoch-discipline

const ADAPTIVE: &str = "crates/core/src/adaptive/x.rs";

#[test]
fn epoch_fires_on_seeded_missing_bump() {
    // Seeded protocol bug: a structural write with no epoch bump means
    // the sharded republication diff never sees the change.
    let src = "impl M {\n\
                   fn grow(&mut self) {\n\
                       self.zones.push(z);\n\
                   }\n\
               }\n";
    let diags = only(scan(ADAPTIVE, src), "epoch-discipline");
    assert_eq!(diags, vec![(ADAPTIVE.to_string(), 3)]);
}

#[test]
fn epoch_accepts_unconditional_bump() {
    let src = "impl M {\n\
                   fn grow(&mut self) {\n\
                       self.zones.push(z);\n\
                       self.mutation_epoch += 1;\n\
                   }\n\
               }\n";
    assert!(only(scan(ADAPTIVE, src), "epoch-discipline").is_empty());
}

#[test]
fn epoch_fires_on_seeded_conditional_bump() {
    // The bump exists but only on one path: the dataflow join must
    // still flag the function.
    let src = "impl M {\n\
                   fn grow(&mut self, big: bool) {\n\
                       self.zones.push(z);\n\
                       if big {\n\
                           self.mutation_epoch += 1;\n\
                       }\n\
                   }\n\
               }\n";
    let diags = only(scan(ADAPTIVE, src), "epoch-discipline");
    assert_eq!(diags, vec![(ADAPTIVE.to_string(), 3)]);
}

#[test]
fn epoch_joins_exhaustive_branches() {
    // A bump in BOTH arms of an if/else covers every path.
    let src = "impl M {\n\
                   fn grow(&mut self, big: bool) {\n\
                       self.zones.push(z);\n\
                       if big {\n\
                           self.mutation_epoch += 1;\n\
                       } else {\n\
                           self.bump_epoch();\n\
                       }\n\
                   }\n\
               }\n";
    assert!(only(scan(ADAPTIVE, src), "epoch-discipline").is_empty());
}

#[test]
fn epoch_accepts_doc_justification() {
    let src = "impl M {\n\
                   /// epoch: constructor — not reader-reachable yet.\n\
                   fn with_zones(&mut self) {\n\
                       self.zones.push(z);\n\
                   }\n\
               }\n";
    assert!(only(scan(ADAPTIVE, src), "epoch-discipline").is_empty());
}

#[test]
fn epoch_out_of_scope_elsewhere() {
    let src = "fn grow(&mut self) { self.zones.push(z); }\n";
    assert!(only(scan("crates/engine/src/x.rs", src), "epoch-discipline").is_empty());
    assert!(only(
        scan("crates/core/src/adaptive/tests.rs", src),
        "epoch-discipline"
    )
    .is_empty());
}

// ------------------------------------------------ publication-discipline

const SERVER: &str = "crates/server/src/publish.rs";

#[test]
fn publication_fires_on_seeded_store_after_bump() {
    // Seeded protocol bug: the payload store lands after the
    // generation bump, so a reader acquiring the new generation can
    // read the old payload.
    let src = "fn publish_map(&self) {\n\
                   self.generation.store(2);\n\
                   self.slot.store(p);\n\
               }\n";
    let diags = only(scan(SERVER, src), "publication-discipline");
    assert_eq!(diags, vec![(SERVER.to_string(), 3)]);
}

#[test]
fn publication_accepts_store_before_bump() {
    let src = "fn publish_map(&self) {\n\
                   self.slot.store(p);\n\
                   self.generation.store(2);\n\
               }\n";
    assert!(only(scan(SERVER, src), "publication-discipline").is_empty());
}

#[test]
fn publication_allows_reads_and_lets_after_bump() {
    // Local bindings and pure reads after the bump publish nothing.
    let src = "fn publish_map(&self) {\n\
                   self.slot.store(p);\n\
                   self.generation.fetch_add(1);\n\
                   let published = self.slot.len();\n\
                   trace(published);\n\
               }\n";
    assert!(only(scan(SERVER, src), "publication-discipline").is_empty());
}

#[test]
fn publication_scopes_to_publish_fns_in_server() {
    let src = "fn rotate(&self) {\n\
                   self.generation.store(2);\n\
                   self.slot.store(p);\n\
               }\n";
    // Not a publish* fn: out of scope.
    assert!(only(scan(SERVER, src), "publication-discipline").is_empty());
    // publish* fn outside crates/server: out of scope.
    let pub_src = "fn publish_map(&self) {\n\
                       self.generation.store(2);\n\
                       self.slot.store(p);\n\
                   }\n";
    assert!(only(
        scan("crates/engine/src/x.rs", pub_src),
        "publication-discipline"
    )
    .is_empty());
}

// --------------------------------------------------------------- live-mask

const ENGINE: &str = "crates/engine/src/x.rs";

#[test]
fn live_mask_fires_on_seeded_all_live_source() {
    // Seeded protocol bug: a scan that hard-wires the all-live source on
    // a path that can carry tombstones silently counts dead rows —
    // whether through the marker or through a shorthand kernel, with
    // a by-product or lean.
    let src = "use ads_storage::scan::{\n    self, AllLive,\n};\n\
               fn f(data: &[i64], dv: &DeleteVector) {\n\
                   let a = scan::count(data, lo, hi, AllLive, 0, &mut bounds);\n\
                   let b = scan::count(data, lo, hi, dv, 0, &mut NoByProduct);\n\
                   let c = count_in_range(data, lo, hi);\n\
                   let d = scan::sum(data, lo, hi, AllLive, 0, &mut NoByProduct);\n\
                   let e = sum_in_range(data, lo, hi);\n\
               }\n";
    let diags = only(scan(ENGINE, src), "live-mask");
    assert_eq!(
        diags,
        [5, 7, 8, 9].map(|line| (ENGINE.to_string(), line)),
        "the (wrapped) import and the vector-carrying call are clean"
    );
}

#[test]
fn live_mask_accepts_justification() {
    let src = "fn f(data: &[i64]) {\n\
                   // live: data is freshly generated — no delete vector.\n\
                   let c = count_in_range(data, lo, hi);\n\
                   match masks[s] {\n\
                       Some(dv) => scan_item(data, dv),\n\
                       // live: the lane has no tombstone.\n\
                       None => scan_item(data, AllLive),\n\
                   }\n\
               }\n";
    assert!(only(scan(ENGINE, src), "live-mask").is_empty());
}

#[test]
fn live_mask_skips_methods_definitions_and_oracle() {
    // `payload.min_max()` is a method on another type, `fn min_max` is
    // a definition, and `scalar::` calls ARE the ground-truth oracle.
    let src = "fn min_max(c: &[i64]) -> (i64, i64) { todo() }\n\
               fn g(payload: &P) {\n\
                   let b = payload.min_max();\n\
                   let c = scalar::count_in_range(d, lo, hi);\n\
               }\n";
    assert!(only(scan(ENGINE, src), "live-mask").is_empty());
}

#[test]
fn live_mask_out_of_scope_in_kernels_and_tests() {
    let src = "fn f(data: &[i64]) {\n\
                   let c = count_in_range(data, lo, hi);\n\
                   let d = count(data, lo, hi, AllLive, 0, &mut NoByProduct);\n\
               }\n";
    // The kernel module itself defines and composes these.
    assert!(only(scan("crates/storage/src/scan.rs", src), "live-mask").is_empty());
    assert!(only(scan("crates/engine/tests/t.rs", src), "live-mask").is_empty());
    assert!(only(scan("crates/core/src/adaptive/tests.rs", src), "live-mask").is_empty());
}

// ------------------------------------------------------ lifecycle-symmetry

fn scan_pair(a: (&str, &str), b: (&str, &str)) -> Vec<Diagnostic> {
    scan_repo(&[
        (FileCtx::new(a.0), a.1.to_string()),
        (FileCtx::new(b.0), b.1.to_string()),
    ])
}

const PROMOTER: &str = "crates/core/src/adaptive/tier.rs";
const LIFECYCLE: &str = "crates/core/src/adaptive/maintenance.rs";

// A promotion site (with its epoch bump, so only the pass under test
// fires) shared by the lifecycle fixtures below.
const PROMOTE_SRC: &str = "fn promote(&mut self) {\n\
                               zone.tier = Some(t);\n\
                               self.mutation_epoch += 1;\n\
                           }\n";

#[test]
fn lifecycle_fires_on_seeded_missing_clear() {
    // Seeded protocol bug: merge restructures zones but leaves the
    // promoted tier of the absorbed zone dangling.
    let merge = "fn merge_zones(&mut self) {\n\
                     self.zones.remove(i);\n\
                     self.mutation_epoch += 1;\n\
                 }\n";
    let diags = only(
        scan_pair((PROMOTER, PROMOTE_SRC), (LIFECYCLE, merge)),
        "lifecycle-symmetry",
    );
    assert_eq!(diags, vec![(LIFECYCLE.to_string(), 1)]);
}

#[test]
fn lifecycle_accepts_clear_take_or_drop() {
    for clear in [
        "zone.tier = None;",
        "zone.tier.take();",
        "zone.drop_tier();",
    ] {
        let merge = format!(
            "fn merge_zones(&mut self) {{\n\
                 {clear}\n\
                 self.zones.remove(i);\n\
                 self.mutation_epoch += 1;\n\
             }}\n"
        );
        let diags = only(
            scan_pair((PROMOTER, PROMOTE_SRC), (LIFECYCLE, &merge)),
            "lifecycle-symmetry",
        );
        assert!(diags.is_empty(), "{clear} should count as a clear");
    }
}

#[test]
fn lifecycle_accepts_justification() {
    let merge = "/// lifecycle: only Dead zones merge; tier cleared at death.\n\
                 fn merge_zones(&mut self) {\n\
                     self.zones.remove(i);\n\
                     self.mutation_epoch += 1;\n\
                 }\n";
    assert!(only(
        scan_pair((PROMOTER, PROMOTE_SRC), (LIFECYCLE, merge)),
        "lifecycle-symmetry"
    )
    .is_empty());
}

#[test]
fn lifecycle_exempts_read_only_deciders() {
    // `should_split` matches a lifecycle name but writes nothing.
    let decider = "fn should_split(&self) -> bool {\n\
                       self.zones.len() > 1\n\
                   }\n";
    assert!(only(
        scan_pair((PROMOTER, PROMOTE_SRC), (LIFECYCLE, decider)),
        "lifecycle-symmetry"
    )
    .is_empty());
}

#[test]
fn lifecycle_silent_without_promotions() {
    // No file promotes: lifecycle fns owe nothing.
    let merge = "fn merge_zones(&mut self) {\n\
                     self.zones.remove(i);\n\
                     self.mutation_epoch += 1;\n\
                 }\n";
    let plain = "fn observe(&mut self) { self.n += 1; }\n";
    assert!(only(
        scan_pair((PROMOTER, plain), (LIFECYCLE, merge)),
        "lifecycle-symmetry"
    )
    .is_empty());
}

// -------------------------------------------- token-matcher regressions

#[test]
fn ordering_comment_exempts_matches_macro() {
    // `matches!(ord, Ordering::SeqCst)` inspects an ordering value —
    // it IS a match pattern, not an atomic access site.
    let src = "fn f(ord: Ordering) -> bool { matches!(ord, Ordering::SeqCst) }\n";
    assert!(scan("crates/check/src/x.rs", src).is_empty());
}

#[test]
fn marker_survives_intervening_attribute() {
    // An `#[allow(...)]` between the justification and its site must
    // not orphan the comment.
    let src = "fn f(a: &AtomicU64) {\n\
                   // ordering: Relaxed — single unobserved cell.\n\
                   #[allow(clippy::redundant_closure_call)]\n\
                   (cb)(a.load(Ordering::Relaxed));\n\
               }\n";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
}

// ------------------------------------------------------------ end-to-end

#[test]
fn scan_reports_diagnostics_in_line_order_with_display_format() {
    let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::Release); }\n\
               fn g() { x.unwrap(); }\n";
    let diags = scan("crates/core/src/x.rs", src);
    assert_eq!(
        rules_at(&diags),
        vec![("ordering-comment", 1), ("unwrap-invariant", 2)]
    );
    assert_eq!(
        diags[0].to_string(),
        "crates/core/src/x.rs:1: [ordering-comment] `Ordering::Release` \
         without an adjacent `// ordering:` justification"
    );
}
