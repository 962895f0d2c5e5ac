//! Integration tests: every seeded fixture trips exactly its rule, and the
//! real workspace is clean under `--deny-all` semantics. L006, L010 and
//! L005's write-lock order are carried by types now; their fixtures are
//! crates rustc must reject.

mod support;

use ic_lint::{lint_files, lint_files_with, lint_workspace, FileInput, LintOptions, ObsDoc};
use std::path::Path;
use support::{diagnostics, trips};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).expect("fixture readable")
}

/// Feed a fixture through the engine under a virtual in-scope path.
fn lint_as(virtual_path: &str, fixture_name: &str) -> ic_lint::Report {
    lint_files(&[FileInput { path: virtual_path.into(), source: fixture(fixture_name) }])
}

/// L006's invariant is a type: an operator keeps input batches only through
/// `LeasedBatches::push`, which takes the query's control block, so a batch
/// kept without charging the query's lease does not compile.
#[test]
fn fixture_l006_buffer_counter_fails() {
    let (got, stderr) = diagnostics("type_fixture", &["leased.rs"], &["common", "exec"], &["check"]);
    assert_eq!(got, trips("type_fixture", "leased.rs"), "{stderr}");
    assert_eq!(got.len(), 1, "{got:?}");
}

/// L005's lock order is two kinds of lock (`ic_common::sync`): a
/// partition's write lock is private to `ic_storage::table`, so outside it
/// the only way to take one is `write_set`, which orders every lock of the
/// set (E0616 for the field, E0624 for the accessor).
#[test]
fn fixture_write_lock_by_hand_fails() {
    let (got, stderr) = diagnostics("type_fixture", &["write_set.rs"], &["storage"], &["check"]);
    assert_eq!(got, trips("type_fixture", "write_set.rs"), "{stderr}");
    assert_eq!(got.len(), 2, "{got:?}");
}

#[test]
fn fixture_l008_per_row_datum_fails() {
    let r = lint_as("crates/exec/src/kernels.rs", "l008_datum.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L008").collect();
    // `datum_at` + `to_rows` fire; the pragma-covered `from_rows` is
    // suppressed and the #[cfg(test)] `to_rows` is exempt.
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert!(r.suppressed[0].justification.contains("fixture"));
}

#[test]
fn fixture_evaluator_is_a_kernel_root() {
    // A per-row fallback in eval.rs trips L008 twice (`datum_at`,
    // `push_datum`) and L012 once (`vec!` per row); the pragma'd per-row
    // callback is suppressed; `eval_arm`'s set-up `collect`, reached from
    // the loop over CASE arms, is not a finding — roots are policed loop by
    // loop.
    let r = lint_as("crates/common/src/eval.rs", "l008_eval_fallback.rs");
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L008").count(), 2, "{:?}", r.violations);
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L012").count(), 1, "{:?}", r.violations);
    assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    assert!(r.suppressed[0].justification.contains("per-row callback"));

    // Anywhere else in ic-common the same source is out of scope, and its
    // pragma suppresses nothing.
    let r = lint_as("crates/common/src/agg.rs", "l008_eval_fallback.rs");
    assert_only_unused_pragmas(&r);

    // And a helper the evaluator calls per row is as hot as one a kernel
    // calls: L008 and L012 follow the call graph out of eval.rs.
    let r = lint_files(&[
        FileInput { path: "crates/common/src/eval.rs".into(), source: fixture("reach_kernel.rs") },
        FileInput { path: "crates/plan/src/helper.rs".into(), source: fixture("reach_helper.rs") },
    ]);
    for rule in ["L008", "L012"] {
        assert!(
            r.violations.iter().any(|v| v.rule == rule && v.path.contains("helper.rs")),
            "{rule}: {:?}",
            r.violations
        );
    }
}

#[test]
fn fixture_l009_retry_fails_red_then_green() {
    let r = lint_as("crates/common/src/fixture.rs", "l009_retry.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L009").collect();
    // One unguarded loop; the guarded one is clean.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("retry loop"), "{hits:?}");
    // Green half: the pragma'd copy of the same loop is suppressed — and
    // stripping the pragma makes it fail again.
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    let stripped = fixture("l009_retry.rs").replace("// ic-lint: allow(L009)", "//");
    let r = lint_files(&[FileInput { path: "crates/common/src/fixture.rs".into(), source: stripped }]);
    assert_eq!(
        r.violations.iter().filter(|v| v.message.contains("retry loop")).count(),
        2,
        "{:?}",
        r.violations
    );
}

/// L010's invariant is module privacy: outside `ic_common::col` the storage
/// enum and `Column`'s buffers cannot be named (E0603, E0616) or built
/// (E0451, a crate of its own because rustc's privacy pass runs only on a
/// crate without other errors), while a read through a typed view compiles.
#[test]
fn fixture_l010_indexing_fails_red_then_green() {
    for (root, red) in [("column.rs", 2), ("privacy.rs", 1)] {
        let (got, stderr) = diagnostics("type_fixture", &[root], &["common"], &["check"]);
        assert_eq!(got, trips("type_fixture", root), "{stderr}");
        assert_eq!(got.len(), red, "{got:?}");
    }
}

#[test]
fn fixture_l011_obsnames_fails_red_then_green() {
    let doc = ObsDoc::parse(
        "OBSERVABILITY.md",
        "Registered: `exec.fixture.documented` and `exec.fixture.orphan`.",
    );
    let input = |source: String| {
        vec![FileInput { path: "crates/exec/src/fixture.rs".into(), source }]
    };
    let opts = LintOptions { obs_doc: Some(doc.clone()), check_obs_unused: true };
    let r = lint_files_with(&input(fixture("l011_obsnames.rs")), &opts);
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L011").collect();
    // Forward: `exec.fixture.rogue` is unregistered. Reverse: the registry
    // entry `exec.fixture.orphan` is never emitted (reported at the doc).
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert!(hits.iter().any(|v| v.message.contains("rogue")));
    assert!(hits.iter().any(|v| v.message.contains("orphan") && v.path == "OBSERVABILITY.md"));
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);

    let stripped = fixture("l011_obsnames.rs").replace("// ic-lint: allow(L011)", "//");
    let r = lint_files_with(&input(stripped), &opts);
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L011").count(), 3);
}

#[test]
fn fixture_l012_alloc_fails_red_then_green() {
    let r = lint_as("crates/exec/src/kernels.rs", "l012_alloc.rs");
    let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == "L012").collect();
    // vec! + format! in the loop; the with_capacity outside loops is fine.
    assert_eq!(hits.len(), 2, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);

    let stripped = fixture("l012_alloc.rs").replace("// ic-lint: allow(L012)", "//");
    let r = lint_files(&[FileInput { path: "crates/exec/src/kernels.rs".into(), source: stripped }]);
    assert_eq!(r.violations.iter().filter(|v| v.rule == "L012").count(), 3);
}

#[test]
fn fixture_reachability_flags_cold_file_helper() {
    // Together: the helper in crates/plan (out of every path scope) is
    // reachable from the kernel loop, so its datum_at and format! both
    // fire — each message naming the reachability route.
    let both = vec![
        FileInput {
            path: "crates/exec/src/kernels.rs".into(),
            source: fixture("reach_kernel.rs"),
        },
        FileInput { path: "crates/plan/src/helper.rs".into(), source: fixture("reach_helper.rs") },
    ];
    let r = lint_files(&both);
    let at_helper: Vec<_> =
        r.violations.iter().filter(|v| v.path.contains("helper.rs")).collect();
    assert!(
        at_helper.iter().any(|v| v.rule == "L008" && v.message.contains("reachable")),
        "{:?}",
        r.violations
    );
    assert!(
        at_helper.iter().any(|v| v.rule == "L012" && v.message.contains("per-element")),
        "{:?}",
        r.violations
    );

    // Alone, the helper sits outside every scope: nothing fires.
    let r = lint_files(&[FileInput {
        path: "crates/plan/src/helper.rs".into(),
        source: fixture("reach_helper.rs"),
    }]);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

/// Out of a rule's scope its finding never fires, so the fixture's pragma
/// for it suppresses nothing: L000 reports it, and nothing else fires.
fn assert_only_unused_pragmas(r: &ic_lint::Report) {
    assert!(
        r.violations.iter().all(|v| v.rule == "L000" && v.message.contains("suppresses no")),
        "{:?}",
        r.violations
    );
}

#[test]
fn fixtures_out_of_scope_paths_pass() {
    // The same sources are fine where the rules don't apply.
    for (path, fixture_name) in [
        ("crates/exec/src/operators.rs", "l008_datum.rs"),
        ("crates/exec/tests/fixture.rs", "l008_datum.rs"),
    ] {
        assert_only_unused_pragmas(&lint_as(path, fixture_name));
    }
}

#[test]
fn pragma_suppresses_with_justification() {
    let src = "// ic-lint: allow(L012) because the scratch buffer is sized once per batch\n\
               pub fn f(n: usize) { for i in 0..n { let v = vec![0u8; i]; } }";
    let r = lint_files(&[FileInput { path: "crates/exec/src/kernels.rs".into(), source: src.into() }]);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1);
    assert!(r.suppressed[0].justification.contains("sized once per batch"));
}

#[test]
fn unused_pragma_fails_red_then_green() {
    // Red: L012's pragma sits over a loop that allocates nothing, so it is
    // stale.
    let src = "// ic-lint: allow(L012) because the scratch buffer is sized once per batch\n\
               pub fn f(n: usize) { for i in 0..n { sum += i; } }";
    let r = lint_files(&[FileInput { path: "crates/exec/src/kernels.rs".into(), source: src.into() }]);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    assert_eq!((r.violations[0].rule, r.violations[0].line), ("L000", 1));
    // Green: over the allocation it names, the same pragma is used.
    let src = src.replace("sum += i;", "let v = vec![0u8; i];");
    let r = lint_files(&[FileInput { path: "crates/exec/src/kernels.rs".into(), source: src }]);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 1);
}

#[test]
fn workspace_is_clean() {
    // The invariant the CI step enforces, also enforced under `cargo test`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
    let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(msgs.is_empty(), "workspace lint violations:\n{}", msgs.join("\n"));
}
