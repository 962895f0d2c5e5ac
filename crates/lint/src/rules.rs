//! The lint rules and their scopes.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L000 | an `allow` pragma that is malformed, unjustified, or suppresses nothing |
//! | L008 | no per-row `Datum` materialization in kernel hot paths — `ic_exec::kernels` itself plus every fn **call-graph-reachable** from a kernel |
//! | L009 | no retry loop can re-enter on an error it did not classify (`is_retryable`/`is_failover_retryable`) |
//! | L011 | observability-name registry: every metric/event name literal appears in OBSERVABILITY.md and vice versa |
//! | L012 | no heap allocation reachable from kernel inner loops (the kernels-bench reuse contract) |
//!
//! The unwrap, hasher, std-map and wall-clock bans (the former L001–L004
//! and L007) are clippy settings: `crates/clippy.toml` and the lint levels
//! at each crate root (LINTS.md). The former L006, L010 and L009's
//! classifier half are types rustc checks: operators buffer input only
//! through `ic_exec::operators::LeasedBatches`, the column layout is private
//! to `ic_common::col`, `IcError`'s one classifier is an exhaustive match
//! under `#[deny(clippy::wildcard_enum_match_arm)]`, and the lock order that
//! was L005 is two kinds of lock in `ic_common::sync`.
//!
//! L008/L012's hot-path classification is *semantic*: the engine parses every
//! file into items ([`crate::parser`]), builds a workspace symbol table
//! ([`crate::symbols`]) and call graph ([`crate::callgraph`]), and marks as
//! hot everything reachable from the kernel plane
//! (`crates/exec/src/kernels.rs`, `crates/common/src/eval.rs`). A helper in
//! any crate called from a kernel is policed like the kernel itself.
//!
//! Any rule can be suppressed per-site with a pragma that must carry a
//! justification:
//!
//! ```text
//! // ic-lint: allow(L012) because the invariant X makes this safe
//! ```
//!
//! The pragma covers its own line and the next line. A pragma without a
//! justification (no `because ...`), or one that suppresses no finding, is
//! itself a violation (`L000`).

use crate::callgraph::CallGraph;
use crate::dataflow;
use crate::parser::{parse_tokens, ParsedFile};
use crate::symbols::SymbolTable;
use crate::tokenizer::{strip_test_regions, tokenize, Comment, Tok, TokKind};
use std::collections::{HashMap, HashSet};

pub const RULES: [&str; 5] = ["L000", "L008", "L009", "L011", "L012"];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {} {}", self.path, self.line, self.rule, self.message)
    }
}

/// A finding suppressed by a pragma, kept for `--verbose` reporting.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub violation: Violation,
    pub justification: String,
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub suppressed: Vec<Suppressed>,
    pub files_scanned: usize,
}

/// One source file handed to the engine. `path` should be workspace-relative
/// with forward slashes — rule scoping is derived from it.
#[derive(Debug, Clone)]
pub struct FileInput {
    pub path: String,
    pub source: String,
}

/// The observability-name registry (L011), parsed from OBSERVABILITY.md:
/// every backticked dotted lowercase name, with the line it appears on.
#[derive(Debug, Clone, Default)]
pub struct ObsDoc {
    pub path: String,
    pub names: Vec<(String, u32)>,
}

impl ObsDoc {
    pub fn parse(path: &str, content: &str) -> ObsDoc {
        let mut names = Vec::new();
        let mut seen = HashSet::new();
        for (idx, line) in content.lines().enumerate() {
            for (si, seg) in line.split('`').enumerate() {
                // Odd segments are inside backticks.
                if si % 2 == 1 && is_metric_name(seg) && seen.insert(seg.to_string()) {
                    names.push((seg.to_string(), idx as u32 + 1));
                }
            }
        }
        ObsDoc { path: path.to_string(), names }
    }

    fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|(n, _)| n == name)
    }
}

/// A dotted lowercase metric/event name: `seg(.seg)+` where each segment is
/// `[a-z0-9_]+` and the first starts with a letter.
fn is_metric_name(s: &str) -> bool {
    if !s.contains('.') {
        return false;
    }
    let mut first = true;
    for part in s.split('.') {
        if part.is_empty() {
            return false;
        }
        let c0 = part.chars().next().unwrap();
        if first && !c0.is_ascii_lowercase() {
            return false;
        }
        if !part.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        first = false;
    }
    true
}

/// Engine options beyond the file list.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// The L011 registry. When absent, L011 is skipped entirely.
    pub obs_doc: Option<ObsDoc>,
    /// Also report registry names never used in code (the reverse direction
    /// of L011). Only meaningful for full-workspace scans.
    pub check_obs_unused: bool,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
struct FileCtx {
    /// Crate directory name under `crates/` (e.g. "net"), if any.
    krate: Option<String>,
    /// True for non-test production code (`src/`, not `tests/`/`benches/`).
    is_src: bool,
}

fn classify(path: &str) -> FileCtx {
    let p = path.replace('\\', "/");
    let mut krate = None;
    let mut is_src = false;
    if let Some(rest) = p.strip_prefix("crates/") {
        if let Some((name, tail)) = rest.split_once('/') {
            krate = Some(name.to_string());
            is_src = tail.starts_with("src/");
        }
    } else if p.starts_with("src/") {
        krate = Some("root".to_string());
        is_src = true;
    }
    FileCtx { krate, is_src }
}

fn in_scope(rule: &str, ctx: &FileCtx, path: &str) -> bool {
    let krate = match &ctx.krate {
        Some(k) => k.as_str(),
        None => return false,
    };
    if krate == "lint" {
        return false; // the tool does not police itself
    }
    // Every rule polices production code only.
    ctx.is_src && (rule != "L008" || is_kernel_plane(path))
}

/// Pragmas parsed from a file's line comments.
#[derive(Debug, Default)]
struct Pragmas {
    /// (rule, line) pairs covered by an `allow` pragma, with justification.
    allows: Vec<(String, u32, String)>,
    /// Malformed pragmas (missing justification / unknown rule).
    errors: Vec<(u32, String)>,
}

fn parse_pragmas(comments: &[Comment]) -> Pragmas {
    let mut out = Pragmas::default();
    for c in comments {
        let Some(pos) = c.text.find("ic-lint:") else { continue };
        let body = c.text[pos + "ic-lint:".len()..].trim();
        let Some(args) = body.strip_prefix("allow") else {
            out.errors.push((c.line, format!("unknown ic-lint directive: '{body}'")));
            continue;
        };
        let args = args.trim_start();
        let Some(close) = args.find(')') else {
            out.errors.push((c.line, "malformed allow pragma: missing ')'".into()));
            continue;
        };
        let rules_part = args
            .strip_prefix('(')
            .map(|s| &s[..close.saturating_sub(1)])
            .unwrap_or("");
        let tail = args[close + 1..].trim();
        let justification = match tail.strip_prefix("because") {
            Some(j) if !j.trim().is_empty() => j.trim().to_string(),
            _ => {
                out.errors.push((
                    c.line,
                    "allow pragma requires a justification: `// ic-lint: allow(L00x) because ...`"
                        .into(),
                ));
                continue;
            }
        };
        for rule in rules_part.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            if !RULES.contains(&rule) {
                out.errors.push((c.line, format!("unknown rule '{rule}' in allow pragma")));
                continue;
            }
            out.allows.push((rule.to_string(), c.line, justification.clone()));
        }
    }
    out
}

impl Pragmas {
    /// Index of the `allows` entry covering `rule` at `line` (pragma on the
    /// same or the preceding line).
    fn allowed(&self, rule: &str, line: u32) -> Option<usize> {
        self.allows.iter().position(|(r, l, _)| r == rule && (*l == line || l + 1 == line))
    }
}

/// The vectorized plane: the exec kernels and the expression evaluator every
/// `Filter`/`Project` batch goes through. Their fns are the kernel roots of
/// L008/L012 and are themselves held to both rules.
fn is_kernel_plane(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("crates/exec/src/kernels.rs") || p.ends_with("crates/common/src/eval.rs")
}

fn is_operators_file(path: &str) -> bool {
    path.replace('\\', "/").ends_with("crates/exec/src/operators.rs")
}

/// The columnar data layer itself — where the row/Datum shims are *defined*,
/// so calling them there is the implementation, not a leak.
fn is_data_layer(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("crates/common/src/col.rs")
        || p.ends_with("crates/common/src/datum.rs")
        || p.ends_with("crates/common/src/row.rs")
}

/// Lint a set of files; rules are scoped by each file's path.
pub fn lint_files(files: &[FileInput]) -> Report {
    lint_files_with(files, &LintOptions::default())
}

/// Lint with options (observability registry, reverse-doc checking).
pub fn lint_files_with(files: &[FileInput], opts: &LintOptions) -> Report {
    let mut report = Report::default();

    // ---- Phase 1: parse every non-lint file into items. ----
    struct Entry {
        ctx: FileCtx,
        parsed: ParsedFile,
        pragmas: Pragmas,
    }
    let mut entries: Vec<Entry> = Vec::new();
    for f in files {
        let ctx = classify(&f.path);
        report.files_scanned += 1;
        if ctx.krate.as_deref() == Some("lint") {
            // The tool does not police itself (its sources and docs quote
            // the very patterns the rules ban).
            continue;
        }
        let (all_toks, comments) = tokenize(&f.source);
        let toks = strip_test_regions(&all_toks);
        let parsed = parse_tokens(&f.path, toks, comments);
        let pragmas = parse_pragmas(&parsed.comments);
        entries.push(Entry { ctx, parsed, pragmas });
    }

    // ---- Phase 2: symbol table, call graph, hot sets. ----
    let parsed_files: Vec<&ParsedFile> = entries.iter().map(|e| &e.parsed).collect();
    let syms = SymbolTable::build_refs(&parsed_files);
    let graph = CallGraph::build_refs(&parsed_files, &syms);

    let kernel_roots: Vec<usize> =
        (0..syms.fns.len()).filter(|&id| is_kernel_plane(&syms.fns[id].path)).collect();
    let l008_hot = graph.reachable(&kernel_roots);
    let loop_hot = graph.loop_hot(&kernel_roots);

    // fn ids per parsed-file index.
    let mut fns_of_file: HashMap<usize, Vec<usize>> = HashMap::new();
    for (id, sym) in syms.fns.iter().enumerate() {
        fns_of_file.entry(sym.file).or_default().push(id);
    }

    // ---- Phase 3: per-file findings. ----
    let mut obs_names_used: HashSet<String> = HashSet::new();

    for (fi, e) in entries.iter().enumerate() {
        let path = &e.parsed.path;
        let ctx = &e.ctx;
        let toks = &e.parsed.toks;
        for (line, msg) in &e.pragmas.errors {
            report.violations.push(Violation {
                rule: "L000",
                path: path.clone(),
                line: *line,
                message: msg.clone(),
            });
        }

        let mut findings: Vec<(&'static str, u32, String)> = Vec::new();
        // Findings from per-fn semantic passes carry the enclosing fn's
        // signature line: a pragma above the `fn` covers the whole body.
        let mut fn_findings: Vec<(&'static str, u32, String, u32)> = Vec::new();
        if in_scope("L008", ctx, path) {
            findings.extend(rule_l008(toks));
        }

        // --- Semantic passes over this file's fns. ---
        let file_fn_ids: &[usize] = fns_of_file.get(&fi).map(|v| v.as_slice()).unwrap_or(&[]);
        for &id in file_fn_ids {
            let f = &e.parsed.fns[syms.fns[id].fn_idx];
            let Some(body) = f.body else { continue };

            // L008 via reachability: hot fns outside the kernel plane (scanned
            // whole above), except the data layer (defines the shims) and
            // the operator boundary.
            if ctx.is_src
                && l008_hot.contains(&id)
                && !is_kernel_plane(path)
                && !is_data_layer(path)
                && !is_operators_file(path)
            {
                for (_, line, msg) in rule_l008(&toks[body.0..body.1]) {
                    fn_findings.push((
                        "L008",
                        line,
                        format!("{msg} [fn `{}` is reachable from a kernel]", f.name),
                        f.line,
                    ));
                }
            }
            // L009: retry loops must classify before re-entering.
            if in_scope("L009", ctx, path) {
                for (line, msg) in dataflow::retry_loop_findings(toks, body) {
                    fn_findings.push(("L009", line, msg, f.line));
                }
            }
            // L012: allocations in kernel loops, and anywhere in loop-hot fns.
            if ctx.is_src {
                if is_kernel_plane(path) {
                    for lr in dataflow::loop_ranges(toks, body) {
                        for (line, what) in dataflow::alloc_sites(toks, lr) {
                            fn_findings.push((
                                "L012",
                                line,
                                format!("{what} inside a kernel inner loop (fn `{}`)", f.name),
                                f.line,
                            ));
                        }
                    }
                } else if loop_hot.contains(&id) {
                    for (line, what) in dataflow::alloc_sites(toks, body) {
                        fn_findings.push((
                            "L012",
                            line,
                            format!(
                                "{what} in fn `{}`, which runs per-element under a kernel loop",
                                f.name
                            ),
                            f.line,
                        ));
                    }
                }
            }
        }

        // L011 forward: metric/event name literals must be in the registry.
        if let Some(doc) = &opts.obs_doc {
            if in_scope("L011", ctx, path) {
                for (name, line) in metric_name_literals(toks) {
                    obs_names_used.insert(name.clone());
                    if !doc.contains(&name) {
                        findings.push((
                            "L011",
                            line,
                            format!(
                                "metric/event name \"{name}\" is not documented in {}; \
                                 register it or fix the drift",
                                doc.path
                            ),
                        ));
                    }
                }
            }
        }

        let mut all: Vec<(&'static str, u32, String, Option<u32>)> =
            findings.into_iter().map(|(r, l, m)| (r, l, m, None)).collect();
        all.extend(fn_findings.into_iter().map(|(r, l, m, fl)| (r, l, m, Some(fl))));
        let mut used = vec![false; e.pragmas.allows.len()];
        for (rule, line, message, fn_line) in all {
            let v = Violation { rule, path: path.clone(), line, message };
            let allow = e
                .pragmas
                .allowed(rule, line)
                .or_else(|| fn_line.and_then(|fl| e.pragmas.allowed(rule, fl)));
            match allow {
                Some(k) => {
                    used[k] = true;
                    let justification = e.pragmas.allows[k].2.clone();
                    report.suppressed.push(Suppressed { violation: v, justification });
                }
                None => report.violations.push(v),
            }
        }
        // An allow that suppresses nothing is stale: the code it excused
        // changed, and it would silently excuse the next finding there.
        for ((rule, line, _), _) in e.pragmas.allows.iter().zip(&used).filter(|(_, u)| !**u) {
            report.violations.push(Violation {
                rule: "L000",
                path: path.clone(),
                line: *line,
                message: format!("allow({rule}) pragma suppresses no {rule} finding; delete it"),
            });
        }
    }

    // ---- Phase 4: cross-file rules. ----
    // L011 reverse: registry names never emitted by any scanned file.
    if opts.check_obs_unused {
        if let Some(doc) = &opts.obs_doc {
            for (name, line) in &doc.names {
                if !obs_names_used.contains(name) {
                    report.violations.push(Violation {
                        rule: "L011",
                        path: doc.path.clone(),
                        line: *line,
                        message: format!(
                            "registry name `{name}` is not emitted anywhere in the scanned \
                             code; remove it from the doc or restore the instrumentation"
                        ),
                    });
                }
            }
        }
    }
    report
}

/// String literals passed as the first argument of a metric/event/span
/// call: `.counter("a.b", ...)`, `.gauge(`, `.histogram(`, `.event(`,
/// `.span(`, `.child(`.
fn metric_name_literals(toks: &[Tok]) -> Vec<(String, u32)> {
    const SINKS: [&str; 6] = ["counter", "gauge", "histogram", "event", "span", "child"];
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && SINKS.contains(&t.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(lit) = toks.get(i + 3).filter(|t| t.kind == TokKind::Lit) {
                if is_metric_name(&lit.text) {
                    out.push((lit.text.clone(), lit.line));
                }
            }
        }
    }
    out
}

/// L008: per-row `Datum` materialization in the columnar kernels. The whole
/// point of `ic_exec::kernels` is that its inner loops are typed per-column
/// sweeps; a stray `datum_at`/`to_rows` call re-boxes every value into an
/// enum and quietly reverts the loop to row-at-a-time cost. Row shims belong
/// in the operators (scan boundary, final rowset), not here. The few
/// legitimate per-group (not per-row) materializations carry pragmas.
fn rule_l008(toks: &[Tok]) -> Vec<(&'static str, u32, String)> {
    const BANNED: [&str; 6] = [
        "datum_at",
        "row_at",
        "to_rows",
        "from_rows",
        "from_typed_rows",
        "push_datum",
    ];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && BANNED.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            out.push((
                "L008",
                t.line,
                format!(
                    "per-row `{}` in a kernel hot loop boxes a Datum per row; keep kernels \
                     as typed per-column loops (row shims live in the operators)",
                    t.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Report {
        lint_files(&[FileInput { path: path.into(), source: src.into() }])
    }

    #[test]
    fn pragma_requires_justification() {
        let src = "// ic-lint: allow(L008)\nfn f(b: &ColumnBatch) { let d = b.col(0).datum_at(i); }";
        let r = lint_one("crates/exec/src/kernels.rs", src);
        // Both the malformed pragma and the (unsuppressed) finding fire.
        assert!(r.violations.iter().any(|v| v.rule == "L000"));
        assert!(r.violations.iter().any(|v| v.rule == "L008"));
    }

    #[test]
    fn l008_flags_row_datums_in_kernels_only() {
        let src = "fn f(b: &ColumnBatch) { let d = b.col(0).datum_at(i); let rs = b.to_rows(); }";
        let r = lint_one("crates/exec/src/kernels.rs", src);
        assert_eq!(r.violations.iter().filter(|v| v.rule == "L008").count(), 2);
        // A justified pragma suppresses, keeping the why.
        let ok = "// ic-lint: allow(L008) because group keys materialize once per group\n\
                  fn f(b: &ColumnBatch) { keys.push(b.col(0).datum_at(i)); }";
        let r = lint_one("crates/exec/src/kernels.rs", ok);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
        // Row shims in the operators (and everywhere else) are fine.
        assert!(lint_one("crates/exec/src/operators.rs", src).violations.is_empty());
        assert!(lint_one("crates/exec/tests/kernel_props.rs", src).violations.is_empty());
        // A bare ident without a call (doc text, field name) does not fire.
        let bare = "struct S { to_rows: u32 }";
        assert!(lint_one("crates/exec/src/kernels.rs", bare).violations.is_empty());
    }

    #[test]
    fn l008_reachability_extends_beyond_kernels() {
        let kernel = FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: "pub fn agg_sweep(n: usize) { for i in 0..n { agg_step(i); } }".into(),
        };
        let helper = FileInput {
            path: "crates/common/src/agg.rs".into(),
            source: "pub fn agg_step(i: usize) { let d = col.datum_at(i); }".into(),
        };
        let r = lint_files(&[kernel, helper]);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "L008" && v.path.contains("agg.rs")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn l009_retry_loop_soundness() {
        let bad = "fn q() -> IcResult<u32> { let mut attempt = 0; loop { attempt += 1;\n\
                   match run() { Ok(v) => return Ok(v), Err(e) => { last = Some(e); } } } }";
        let r = lint_one("crates/core/src/cluster.rs", bad);
        assert!(r.violations.iter().any(|v| v.rule == "L009"), "{:?}", r.violations);

        let good = "fn q() -> IcResult<u32> { let mut attempt = 0; loop { attempt += 1;\n\
                    match run() { Ok(v) => return Ok(v),\n\
                    Err(e) if e.is_failover_retryable() => { chain.push(e); }\n\
                    Err(e) => return Err(e), } } }";
        let r = lint_one("crates/core/src/cluster.rs", good);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn l009_classifier_exhaustiveness() {
        // L009 trusts any guard that calls a retry classifier; that the
        // classifiers cover every variant is the compiler's half. Both retry
        // predicates must read `IcError`'s one classifier — the match under
        // `deny(clippy::wildcard_enum_match_arm)` that `clippy_config.rs`
        // checks — so no guard consults a hand-kept variant list.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../common/src/error.rs");
        let file = crate::parser::parse_file(path, &std::fs::read_to_string(path).unwrap());
        for name in ["is_retryable", "is_failover_retryable"] {
            assert!(dataflow::CLASSIFIERS.contains(&name), "L009 does not accept {name} as a guard");
            let f = file.fns.iter().find(|f| f.name == name && f.impl_type.as_deref() == Some("IcError"));
            let (start, end) = f.and_then(|f| f.body).unwrap_or_else(|| panic!("no IcError::{name}"));
            let body = &file.toks[start..end];
            assert!(body.iter().any(|t| t.is_ident("retry_class")), "IcError::{name} bypasses retry_class");
        }
    }

    #[test]
    fn l011_names_must_match_registry() {
        let doc = ObsDoc::parse("OBSERVABILITY.md", "Metrics: `exec.op.rows` and `net.fault`.");
        let opts = LintOptions { obs_doc: Some(doc.clone()), check_obs_unused: false };
        let src = "fn f(m: &Metrics, s: &SpanGuard) { m.counter(\"exec.op.rows\", 1); s.child(\"exec.op.bogus\", \"plan\"); }";
        let r = lint_files_with(
            &[FileInput { path: "crates/exec/src/operators.rs".into(), source: src.into() }],
            &opts,
        );
        let l11: Vec<_> = r.violations.iter().filter(|v| v.rule == "L011").collect();
        assert_eq!(l11.len(), 1, "{:?}", r.violations);
        assert!(l11[0].message.contains("exec.op.bogus"));

        // Reverse direction: `net.fault` is documented but never emitted.
        let opts = LintOptions { obs_doc: Some(doc), check_obs_unused: true };
        let src_ok = "fn f(m: &Metrics) { m.counter(\"exec.op.rows\", 1); }";
        let r = lint_files_with(
            &[FileInput { path: "crates/exec/src/operators.rs".into(), source: src_ok.into() }],
            &opts,
        );
        let l11: Vec<_> = r.violations.iter().filter(|v| v.rule == "L011").collect();
        assert_eq!(l11.len(), 1, "{:?}", r.violations);
        assert!(l11[0].message.contains("net.fault"));
        assert_eq!(l11[0].path, "OBSERVABILITY.md");
    }

    #[test]
    fn l012_allocations_in_kernel_loops() {
        let bad = "pub fn sweep(n: usize) { for i in 0..n { let s = x.to_string(); } }";
        let r = lint_one("crates/exec/src/kernels.rs", bad);
        assert!(r.violations.iter().any(|v| v.rule == "L012"), "{:?}", r.violations);
        // Outside loops, allocation in a kernel fn is setup, not per-element.
        let ok = "pub fn sweep(n: usize) { let mut out = Vec::with_capacity(n); for i in 0..n { out.push(i); } }";
        assert!(lint_one("crates/exec/src/kernels.rs", ok).violations.is_empty());
    }

    #[test]
    fn l012_loop_hot_propagates_through_calls() {
        let kernel = FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: "pub fn sweep(n: usize) { for i in 0..n { hot_helper(i); } }".into(),
        };
        let helper = FileInput {
            path: "crates/common/src/col.rs".into(),
            source: "pub fn hot_helper(i: usize) { let v = vec![0u8; i]; }".into(),
        };
        let r = lint_files(&[kernel, helper]);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "L012" && v.path.contains("col.rs") && v.message.contains("per-element")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
            // b.datum_at(i) in a comment
            fn f() { let s = "buffered_rows and b.to_rows() and vec![0]"; }
        "#;
        let r = lint_one("crates/exec/src/kernels.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
