//! The clippy settings, each with a red case: the unwrap, hasher, std-map,
//! wall-clock and lock bans and the error classifier's wildcard ban
//! (`crates/clippy.toml` plus the lint levels at each crate root and on
//! `IcError::retry_class`). The test builds the clippy fixture crate and
//! checks that it raises exactly the lints its red file marks with
//! `// trips:` — and nothing on the green file. The type-carried
//! invariants' red cases are rustc errors, which stop clippy's late lints;
//! they are in `lint_rules.rs`, next to the rules they replaced.

mod support;

use support::{diagnostics, fixture_dir, repo, trips};

#[test]
fn clippy_config_rejects_every_ban_and_accepts_the_green_cases() {
    let fixture = "clippy_fixture";
    let args = ["clippy", "--all-targets"];
    // The lib and its test build report the same diagnostics.
    let (got, stderr) = diagnostics(fixture, &["lib.rs", "red.rs"], &["common"], &args);
    assert_eq!(got, trips(fixture, "red.rs"), "{stderr}");

    // Every crate root under crates/ but the linter's own declares the
    // fixture's lint levels.
    let repo = repo();
    let lib = std::fs::read_to_string(fixture_dir(fixture).join("lib.rs")).unwrap();
    let levels: Vec<&str> = lib.lines().filter(|l| l.starts_with("#![deny(")).collect();
    let mut roots = vec![repo.join("crates/fuzz/src/main.rs")];
    for entry in std::fs::read_dir(repo.join("crates")).unwrap() {
        let root = entry.unwrap().path().join("src/lib.rs");
        if root.is_file() && !root.starts_with(repo.join("crates/lint")) {
            roots.push(root);
        }
    }
    assert!(roots.len() > 10, "{roots:?}");
    for root in roots {
        let src = std::fs::read_to_string(&root).unwrap();
        assert!(levels.iter().all(|l| src.contains(l)), "{} lacks {levels:?}", root.display());
    }

    // The error classifier denies the wildcard arm the red file trips.
    let error = std::fs::read_to_string(repo.join("crates/common/src/error.rs")).unwrap();
    let classifier = "#[deny(clippy::wildcard_enum_match_arm)]\n    fn retry_class(&self)";
    assert!(error.contains(classifier), "IcError::retry_class lacks its wildcard ban");
}
