//! The fixture-crate harness shared by the tests whose red cases are
//! compiler diagnostics: it copies a fixture crate out of the source tree,
//! builds it against the engine crates, and compares the lints or errors
//! raised with what the fixture's `// trips:` markers ask for.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// (lint or error code, file, line) of a diagnostic.
pub type Diagnostics = BTreeSet<(String, String, usize)>;

pub fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

pub fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join(name)
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
pub fn diagnostics(name: &str, files: &[&str], deps: &[&str], args: &[&str]) -> (Diagnostics, String) {
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
pub fn trips(name: &str, file: &str) -> Diagnostics {
    let src = std::fs::read_to_string(fixture_dir(name).join(file)).unwrap();
    (src.lines().enumerate())
        .filter_map(|(i, l)| Some((i + 1, l.split_once("// trips: ")?.1)))
        .flat_map(|(n, codes)| codes.split(' ').map(move |c| (c.to_string(), file.to_string(), n)))
        .collect()
}
