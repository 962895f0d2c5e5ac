//! `ic-lint` — workspace invariant checker.
//!
//! A std-only tokenizer, item-level parser, workspace symbol table and
//! cross-crate call graph, with a rule engine enforcing the project
//! invariants neither rustc nor clippy can express — L008, L009's retry
//! loops, L011 and L012 (see [`rules`] for the catalogue and pragma
//! syntax, and LINTS.md for the rationale of each rule and for the ones
//! clippy and the type system enforce). The crate
//! deliberately has zero dependencies so it builds before — and
//! independently of — everything it checks.

#![expect(clippy::disallowed_types, reason = "ic-lint is std-only so it builds before the crates it checks; ic_common's Fx maps are out of reach")]

pub mod callgraph;
pub mod dataflow;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod tokenizer;

pub use rules::{
    lint_files, lint_files_with, FileInput, LintOptions, ObsDoc, Report, Violation,
};

use std::path::{Path, PathBuf};

/// Discover and lint every production source file under `root` (a workspace
/// root): `crates/*/src/**/*.rs` and the root crate's `src/*.rs`. Test,
/// bench and vendored code are out of scope by construction.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();

    let mut inputs = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push(FileInput { path: rel, source: std::fs::read_to_string(&f)? });
    }

    // The observability-name registry (L011). A workspace scan sees every
    // emission site, so the reverse direction (documented-but-never-emitted)
    // is checked too.
    let mut opts = LintOptions::default();
    let obs_path = root.join("OBSERVABILITY.md");
    if obs_path.is_file() {
        let content = std::fs::read_to_string(&obs_path)?;
        opts.obs_doc = Some(ObsDoc::parse("OBSERVABILITY.md", &content));
        opts.check_obs_unused = true;
    }
    Ok(lint_files_with(&inputs, &opts))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
