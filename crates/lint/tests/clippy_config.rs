//! The unwrap, hasher, std-map and wall-clock bans are clippy settings
//! (`crates/clippy.toml` plus the lint levels at each crate root). This runs
//! `cargo clippy` with that configuration over a fixture crate, copied out of
//! the source tree, and checks that it raises exactly the lints the red file
//! marks with `// trips:` and nothing on the green file.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The JSON scalar right after the first `key` in `s`.
fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let start = s.find(key)? + key.len();
    Some(&s[start..start + s[start..].find(['"', ','])?])
}

#[test]
fn clippy_config_rejects_every_ban_and_accepts_the_green_cases() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy_fixture");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_fixture");
    std::fs::create_dir_all(dir.join("src")).unwrap();
    for f in ["lib.rs", "red.rs"] {
        std::fs::copy(fixture.join(f), dir.join("src").join(f)).unwrap();
    }
    let common = repo.join("crates/common");
    let manifest = format!(
        "[package]\nname = \"clippy-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         [dependencies]\nic-common = {{ path = {common:?} }}\n[workspace]\n"
    );
    std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["clippy", "--offline", "--all-targets", "--message-format=json"])
        .env("CLIPPY_CONF_DIR", repo.join("crates"))
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .current_dir(&dir)
        .output()
        .unwrap();

    // (lint, file, line) of every diagnostic primary in the fixture; the
    // lib and its test build report the same ones.
    let mut got = BTreeSet::new();
    for msg in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(lint) = field(msg, r#""code":{"code":""#) else { continue };
        // A message's own spans come last before its code, after its children's.
        let spans = &msg[msg[..msg.find(r#""code":{"#).unwrap()].rfind(r#""spans":["#).unwrap()..];
        let file = field(spans, r#""file_name":""#).unwrap();
        let line = field(spans, r#""line_start":"#).unwrap();
        if let Some(file) = file.strip_prefix("src/") {
            got.insert((lint.to_string(), file.to_string(), line.parse::<usize>().unwrap()));
        }
    }
    let red = std::fs::read_to_string(fixture.join("red.rs")).unwrap();
    let want: BTreeSet<_> = (red.lines().enumerate())
        .filter_map(|(i, l)| Some((i + 1, l.split_once("// trips: ")?.1)))
        .flat_map(|(n, lints)| lints.split(' ').map(move |l| (l.to_string(), "red.rs".into(), n)))
        .collect();
    assert_eq!(got, want, "{}", String::from_utf8_lossy(&out.stderr));

    // Every crate root under crates/ but the linter's own declares the
    // fixture's lint levels.
    let lib = std::fs::read_to_string(fixture.join("lib.rs")).unwrap();
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
}
