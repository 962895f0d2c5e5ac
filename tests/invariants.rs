//! The workspace invariants no single crate's build states, each with a red
//! case:
//!
//! - the clippy settings (`crates/clippy.toml` plus the lint levels at each
//!   crate root and on `IcError::retry_class`) reject every ban on a fixture
//!   crate, and every crate root declares the levels;
//! - the invariants a type carries are fixture crates rustc must reject;
//! - every metric, event and span name the engine emits is documented in
//!   OBSERVABILITY.md, and every name documented there is emitted;
//! - the kernel plane calls no row-at-a-time accessor, and the evaluator
//!   gathers no rows;
//! - the key order has one owner: only `ic_common::col` names key words or
//!   a second key equality;
//! - only the driver pool starts a thread in `crates/exec/src`.
//!
//! The fixture crates live under `tests/invariants/`; each is copied out of
//! the source tree, built against the engine crates, and its diagnostics
//! compared with what its `// trips:` markers ask for. LINTS.md lists where
//! every invariant is checked.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// (lint or error code, file, line) of a diagnostic.
type Diagnostics = BTreeSet<(String, String, usize)>;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_dir(name: &str) -> PathBuf {
    repo().join("tests/invariants").join(name)
}

/// The JSON scalar right after the first `key` in `s`.
fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let start = s.find(key)? + key.len();
    Some(&s[start..start + s[start..].find(['"', ','])?])
}

/// Copy `files` of fixture `name` into a crate rooted at `files[0]` that
/// depends on the engine crates `deps`, run `cargo <args>` on it, and
/// return the diagnostics raised in its files plus cargo's stderr. Every
/// fixture crate shares one target directory, so the engine crates are
/// checked once.
fn diagnostics(name: &str, files: &[&str], deps: &[&str], args: &[&str]) -> (Diagnostics, String) {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let krate = format!("{name}_{}", files[0].trim_end_matches(".rs"));
    let dir = tmp.join(&krate);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    for f in files {
        std::fs::copy(fixture_dir(name).join(f), dir.join("src").join(f)).unwrap();
    }
    let deps: String = deps
        .iter()
        .map(|d| format!("ic-{d} = {{ path = {:?} }}\n", repo().join("crates").join(d)))
        .collect();
    let manifest = format!(
        "[package]\nname = \"{}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         [lib]\npath = \"src/{}\"\n[dependencies]\n{deps}[workspace]\n",
        krate.replace('_', "-"),
        files[0]
    );
    std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(args)
        .args(["--offline", "--message-format=json"])
        .env("CLIPPY_CONF_DIR", repo().join("crates"))
        .env("CARGO_TARGET_DIR", tmp.join("fixtures_target"))
        .current_dir(&dir)
        .output()
        .unwrap();
    let mut got = BTreeSet::new();
    for msg in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(code) = field(msg, r#""code":{"code":""#) else { continue };
        // A message's own spans come last before its code, after its children's.
        let spans = &msg[msg[..msg.find(r#""code":{"#).unwrap()].rfind(r#""spans":["#).unwrap()..];
        let file = field(spans, r#""file_name":""#).unwrap();
        let line = field(spans, r#""line_start":"#).unwrap();
        if let Some(file) = file.strip_prefix("src/") {
            got.insert((code.to_string(), file.to_string(), line.parse::<usize>().unwrap()));
        }
    }
    (got, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// What the `// trips:` markers of fixture `name`'s `file` ask for.
fn trips(name: &str, file: &str) -> Diagnostics {
    let src = std::fs::read_to_string(fixture_dir(name).join(file)).unwrap();
    (src.lines().enumerate())
        .filter_map(|(i, l)| Some((i + 1, l.split_once("// trips: ")?.1)))
        .flat_map(|(n, codes)| codes.split(' ').map(move |c| (c.to_string(), file.to_string(), n)))
        .collect()
}

/// The clippy settings, each with a red case: the unwrap, hasher, std-map,
/// wall-clock and lock bans, the suppression rules and the error
/// classifier's wildcard ban. The fixture crate must raise exactly the lints
/// its red file marks — and nothing on the green file.
#[test]
fn clippy_config_rejects_every_ban_and_accepts_the_green_cases() {
    let fixture = "clippy_fixture";
    let args = ["clippy", "--all-targets"];
    // The lib and its test build report the same diagnostics.
    let (got, stderr) = diagnostics(fixture, &["lib.rs", "red.rs"], &["common"], &args);
    assert_eq!(got, trips(fixture, "red.rs"), "{stderr}");

    // Every crate root under crates/ declares the fixture's lint levels.
    let lib = std::fs::read_to_string(fixture_dir(fixture).join("lib.rs")).unwrap();
    let levels: Vec<&str> = lib.lines().filter(|l| l.starts_with("#![deny(")).collect();
    let mut roots = vec![repo().join("crates/fuzz/src/main.rs")];
    for entry in std::fs::read_dir(repo().join("crates")).unwrap() {
        let root = entry.unwrap().path().join("src/lib.rs");
        if root.is_file() {
            roots.push(root);
        }
    }
    assert!(roots.len() > 10, "{roots:?}");
    for root in roots {
        let src = std::fs::read_to_string(&root).unwrap();
        assert!(levels.iter().all(|l| src.contains(l)), "{} lacks {levels:?}", root.display());
    }

    // The error classifier denies the wildcard arm the red file trips.
    let error = std::fs::read_to_string(repo().join("crates/common/src/error.rs")).unwrap();
    let classifier = "#[deny(clippy::wildcard_enum_match_arm)]\n    fn retry_class(&self)";
    assert!(error.contains(classifier), "IcError::retry_class lacks its wildcard ban");
}

/// An operator keeps input batches only through `LeasedBatches::push`,
/// which takes the query's control block, so a batch kept without charging
/// the query's lease does not compile.
#[test]
fn fixture_l006_buffer_counter_fails() {
    let (got, stderr) = diagnostics("type_fixture", &["leased.rs"], &["common", "exec"], &["check"]);
    assert_eq!(got, trips("type_fixture", "leased.rs"), "{stderr}");
    assert_eq!(got.len(), 1, "{got:?}");
}

/// A partition's write lock is private to `ic_storage::table`, so outside
/// it the only way to take one is `write_set`, which orders every lock of
/// the set (E0616 for the field, E0624 for the accessor).
#[test]
fn fixture_write_lock_by_hand_fails() {
    let (got, stderr) = diagnostics("type_fixture", &["write_set.rs"], &["storage"], &["check"]);
    assert_eq!(got, trips("type_fixture", "write_set.rs"), "{stderr}");
    assert_eq!(got.len(), 2, "{got:?}");
}

/// Outside `ic_common::col` the storage enum and `Column`'s buffers cannot
/// be named (E0603, E0616) or built (E0451, a crate of its own because
/// rustc's privacy pass runs only on a crate without other errors), while a
/// read through a typed view compiles.
#[test]
fn fixture_l010_indexing_fails_red_then_green() {
    for (root, red) in [("column.rs", 2), ("privacy.rs", 1)] {
        let (got, stderr) = diagnostics("type_fixture", &[root], &["common"], &["check"]);
        assert_eq!(got, trips("type_fixture", root), "{stderr}");
        assert_eq!(got.len(), red, "{got:?}");
    }
}

/// The non-test part of `path` (relative to the repo): its lines up to the
/// first `#[cfg(test)]`, with every `//` line blanked so line numbers hold.
fn non_test(path: &str) -> String {
    let src = std::fs::read_to_string(repo().join(path)).unwrap();
    let lines = src.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
    lines.map(|l| if l.trim_start().starts_with("//") { "" } else { l }).collect::<Vec<_>>().join("\n")
}

fn line_of(src: &str, at: usize) -> usize {
    src[..at].matches('\n').count() + 1
}

/// `crates/*/src/**/*.rs`, relative to the repo, in order.
fn engine_sources() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for entry in std::fs::read_dir(repo().join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    files.sort();
    files.iter().map(|f| f.strip_prefix(repo()).unwrap().to_string_lossy().into_owned()).collect()
}

/// A metric, event or span name: dotted lowercase, `seg(.seg)+`, each
/// segment `[a-z0-9_]+` and the first starting with a letter.
fn is_obs_name(s: &str) -> bool {
    s.contains('.')
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.split('.').all(|seg| {
            !seg.is_empty() && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// (name, line) of every name literal `src` passes first to a metric,
/// event or span call.
fn emitted(src: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    for sink in [".counter(", ".gauge(", ".histogram(", ".event(", ".span(", ".child("] {
        for (at, _) in src.match_indices(sink) {
            let arg = src[at + sink.len()..].trim_start();
            let Some(lit) = arg.strip_prefix('"') else { continue };
            let name = &lit[..lit.find('"').unwrap_or(0)];
            if is_obs_name(name) {
                out.push((name, line_of(src, at)));
            }
        }
    }
    out
}

/// Names are checked both ways: one emitted but undocumented is drift in
/// the code, one documented but never emitted is drift in the doc.
#[test]
fn obs_names_match_the_registry_both_ways() {
    let doc = std::fs::read_to_string(repo().join("OBSERVABILITY.md")).unwrap();
    // Odd segments of a line split on backticks are inside them.
    let documented: Vec<(&str, usize)> = (doc.lines().enumerate())
        .flat_map(|(i, l)| l.split('`').skip(1).step_by(2).map(move |s| (s, i + 1)))
        .filter(|(s, _)| is_obs_name(s))
        .collect();
    let mut names = BTreeSet::new();
    let mut drift = Vec::new();
    for path in engine_sources() {
        let src = non_test(&path);
        for (name, line) in emitted(&src) {
            names.insert(name.to_string());
            if !documented.iter().any(|(d, _)| *d == name) {
                drift.push(format!("{path}:{line}: `{name}` is emitted but not in OBSERVABILITY.md"));
            }
        }
    }
    for (name, line) in &documented {
        if !names.contains(*name) {
            drift.push(format!("OBSERVABILITY.md:{line}: `{name}` is documented but nothing emits it"));
        }
    }
    assert!(names.len() > 30, "the scan found only {names:?}");
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

/// The row-at-a-time accessors: each boxes a `Datum` per value.
const ROW_ACCESSORS: [&str; 6] =
    ["datum_at", "row_at", "to_rows", "from_rows", "from_typed_rows", "push_datum"];

/// (name, line) of every call in `src` of one of `names`.
fn calls<'a>(src: &str, names: &[&'a str]) -> Vec<(&'a str, usize)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for &name in names {
        for (at, _) in src.match_indices(&format!("{name}(")) {
            if !src[..at].ends_with(ident) {
                out.push((name, line_of(src, at)));
            }
        }
    }
    out
}

/// The kernels and the expression evaluator are typed per-column loops: a
/// row accessor there re-boxes every value and reverts the loop to
/// row-at-a-time cost. Row shims belong at the operator boundary.
#[test]
fn kernel_plane_calls_no_row_accessor() {
    let src = "let r = b.to_rows();\nx.push_datum(d);";
    assert_eq!(calls(src, &ROW_ACCESSORS), [("to_rows", 1), ("push_datum", 2)]);
    for path in ["crates/exec/src/kernels.rs", "crates/common/src/eval.rs"] {
        let calls = calls(&non_test(path), &ROW_ACCESSORS);
        assert!(calls.is_empty(), "{path}: row accessors at {calls:?}");
    }
}

/// The evaluator answers in its batch's physical row space: it reads input
/// columns in place and writes computed ones at the rows it covers, so it
/// never gathers rows into a second index space.
#[test]
fn evaluator_has_one_index_space() {
    let gathers = ["take", "select_logical", "gather"];
    assert_eq!(calls("c.take(&sel);\nb.gather()", &gathers), [("take", 1), ("gather", 2)]);
    let path = "crates/common/src/eval.rs";
    let calls = calls(&non_test(path), &gathers);
    assert!(calls.is_empty(), "{path}: gathers at {calls:?}");
}

/// (name, line) of every identifier in `src` that is one of `names`.
fn mentions<'a>(src: &str, names: &[&'a str]) -> Vec<(&'a str, usize)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for &name in names {
        for (at, _) in src.match_indices(name) {
            if !src[..at].ends_with(ident) && !src[at + name.len()..].starts_with(ident) {
                out.push((name, line_of(src, at)));
            }
        }
    }
    out
}

/// Every key kernel compares keys through the one key order of
/// `ic_common::col` (`KeyView`, `OwnedKeys`), whose key equality is the
/// order's tie: no other engine source names the key words, their encoder
/// or a second key equality.
#[test]
fn key_order_has_one_owner() {
    let names = ["KeyWords", "key_words", "eq_at"];
    let src = "let w: KeyWords = b.key_words(&k);\nc.eq_at(i, d, j); key_words_asc(); my_eq_at()";
    assert_eq!(mentions(src, &names), [("KeyWords", 1), ("key_words", 1), ("eq_at", 2)]);
    for path in engine_sources() {
        if path == "crates/common/src/col.rs" {
            continue;
        }
        let found = mentions(&non_test(&path), &names);
        assert!(found.is_empty(), "{path}: names the key order's internals at {found:?}");
    }
}

/// Fragment drivers run on the driver pool's reused threads, so a query
/// starts no thread of its own: in the non-test part of `crates/exec/src`,
/// only the pool names a way to start one.
#[test]
fn only_the_driver_pool_starts_threads() {
    let starts = ["thread::spawn", "thread::scope", "thread::Builder"];
    let src = "std::thread::scope(|s| s.spawn(f));\nthread::Builder::new(); my_thread::spawn_all()";
    assert_eq!(mentions(src, &starts), [("thread::scope", 1), ("thread::Builder", 2)]);
    let pool = "crates/exec/src/driver_pool.rs";
    assert!(!mentions(&non_test(pool), &starts).is_empty(), "{pool} starts no thread");
    for path in engine_sources() {
        if path.starts_with("crates/exec/src/") && path != pool {
            let found = mentions(&non_test(&path), &starts);
            assert!(found.is_empty(), "{path}: starts a thread at {found:?}; run it on the driver pool");
        }
    }
}
