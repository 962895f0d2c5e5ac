//! Cross-crate call graph over the workspace symbol table. Call sites are
//! extracted lexically from each fn body and resolved against the symbol
//! table: `Type::name(` resolves through the impl index, bare `name(`
//! through free fns, and `.name(` only when the method name is unique
//! workspace-wide (the documented approximation — we have no types).
//! Each site records whether it sits inside a `for`/`while`/`loop` body,
//! which drives the L012 loop-hot propagation.

use crate::dataflow::loop_ranges;
use crate::parser::ParsedFile;
use crate::symbols::SymbolTable;
use crate::tokenizer::TokKind;
use std::collections::HashSet;

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub caller: usize,
    pub callee: usize,
    pub line: u32,
    /// The call sits inside a loop body of the caller.
    pub in_loop: bool,
}

#[derive(Debug, Default)]
pub struct CallGraph {
    pub sites: Vec<CallSite>,
    /// fn id → indices into `sites` where it is the caller.
    pub out_edges: Vec<Vec<usize>>,
}

/// Keywords that look like `ident (` but are not calls.
const NOT_CALLS: [&str; 11] =
    ["if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "Some"];

impl CallGraph {
    pub fn build(files: &[ParsedFile], syms: &SymbolTable) -> CallGraph {
        let refs: Vec<&ParsedFile> = files.iter().collect();
        Self::build_refs(&refs, syms)
    }

    /// Same as [`CallGraph::build`], over borrowed files.
    pub fn build_refs(files: &[&ParsedFile], syms: &SymbolTable) -> CallGraph {
        let mut g = CallGraph { sites: Vec::new(), out_edges: vec![Vec::new(); syms.fns.len()] };
        for (id, sym) in syms.fns.iter().enumerate() {
            let file = files[sym.file];
            let f = &file.fns[sym.fn_idx];
            let Some((body_start, body_end)) = f.body else { continue };
            // Exclude sub-ranges that belong to nested fn items — their
            // calls are attributed to the nested fn's own symbol.
            let nested: Vec<(usize, usize)> = file
                .fns
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != sym.fn_idx)
                .filter_map(|(_, other)| other.body)
                .filter(|&(s, e)| s > body_start && e <= body_end)
                .collect();
            let loops = loop_ranges(&file.toks, (body_start, body_end));
            let toks = &file.toks;
            let mut i = body_start;
            while i < body_end {
                if nested.iter().any(|&(s, _)| s == i) {
                    // Jump over the nested fn body entirely.
                    let (_, e) = *nested.iter().find(|&&(s, _)| s == i).unwrap();
                    i = e;
                    continue;
                }
                let t = &toks[i];
                if t.kind == TokKind::Ident
                    && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
                    && !NOT_CALLS.contains(&t.text.as_str())
                {
                    let prev_dot = toks.get(i.wrapping_sub(1)).is_some_and(|a| a.is_punct('.'));
                    let prev_qual = i >= 2
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':');
                    let resolved = if prev_qual {
                        // `Seg::name(` — the segment before `::`.
                        let seg = toks
                            .get(i.wrapping_sub(3))
                            .filter(|s| s.kind == TokKind::Ident)
                            .map(|s| s.text.as_str());
                        match seg {
                            Some(ty) => syms
                                .resolve_qualified(ty, &t.text)
                                .or_else(|| syms.resolve_free(&t.text)),
                            None => syms.resolve_free(&t.text),
                        }
                    } else if prev_dot {
                        syms.resolve_method(&t.text)
                    } else {
                        syms.resolve_free(&t.text)
                    };
                    if let Some(callee) = resolved {
                        if callee != id {
                            let in_loop = loops.iter().any(|&(s, e)| i > s && i < e);
                            g.out_edges[id].push(g.sites.len());
                            g.sites.push(CallSite { caller: id, callee, line: t.line, in_loop });
                        }
                    }
                }
                i += 1;
            }
        }
        g
    }

    /// All fn ids reachable from `roots` (inclusive) over call edges.
    pub fn reachable(&self, roots: &[usize]) -> HashSet<usize> {
        let mut seen: HashSet<usize> = roots.iter().copied().collect();
        let mut stack: Vec<usize> = roots.to_vec();
        while let Some(f) = stack.pop() {
            for &s in &self.out_edges[f] {
                let callee = self.sites[s].callee;
                if seen.insert(callee) {
                    stack.push(callee);
                }
            }
        }
        seen
    }

    /// Fns whose bodies execute per-element under some kernel root: callees
    /// of in-loop call sites in root fns, closed under *all* outgoing calls
    /// (once a fn runs per element, everything it calls does too).
    ///
    /// Roots themselves never join the set: a kernel-plane fn is policed
    /// loop by loop (L012 flags allocations inside its own loops), and the
    /// plane has loops that are not per-element — the expression evaluator
    /// walks CASE arms and IN-list items, re-entering itself once per arm.
    /// Treating a root called from such a loop as a per-element helper would
    /// make every set-up allocation of the whole plane a finding.
    pub fn loop_hot(&self, roots: &[usize]) -> HashSet<usize> {
        let root_set: HashSet<usize> = roots.iter().copied().collect();
        let mut hot: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = Vec::new();
        for &r in roots {
            for &s in &self.out_edges[r] {
                let site = &self.sites[s];
                if site.in_loop && !root_set.contains(&site.callee) && hot.insert(site.callee) {
                    stack.push(site.callee);
                }
            }
        }
        while let Some(f) = stack.pop() {
            for &s in &self.out_edges[f] {
                let callee = self.sites[s].callee;
                if !root_set.contains(&callee) && hot.insert(callee) {
                    stack.push(callee);
                }
            }
        }
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn build(srcs: &[(&str, &str)]) -> (Vec<ParsedFile>, SymbolTable, CallGraph) {
        let files: Vec<ParsedFile> =
            srcs.iter().map(|(p, s)| parse_file(p, s)).collect();
        let syms = SymbolTable::build(&files);
        let g = CallGraph::build(&files, &syms);
        (files, syms, g)
    }

    #[test]
    fn cross_crate_resolution_and_reachability() {
        let (_, syms, g) = build(&[
            (
                "crates/exec/src/kernels.rs",
                "pub fn gather_join(out: &mut O) { for i in 0..n { helper_step(i); } }",
            ),
            (
                "crates/plan/src/util.rs",
                "pub fn helper_step(i: usize) { deep(i); } fn deep(_i: usize) {}",
            ),
        ]);
        let root = syms.by_name["gather_join"][0];
        let reach = g.reachable(&[root]);
        assert!(reach.contains(&syms.by_name["helper_step"][0]));
        assert!(reach.contains(&syms.by_name["deep"][0]));
        // helper_step was called in a loop → it and deep are loop-hot.
        let hot = g.loop_hot(&[root]);
        assert!(hot.contains(&syms.by_name["helper_step"][0]));
        assert!(hot.contains(&syms.by_name["deep"][0]));
    }

    #[test]
    fn roots_called_from_loops_are_not_loop_hot() {
        let (_, syms, g) = build(&[(
            "crates/common/src/eval.rs",
            "fn case(arms: &[E]) { for a in arms { eval_val(a); scatter(a); } } \
             fn eval_val(a: &E) { narrow(a); } fn narrow(a: &E) {} fn scatter(a: &E) { narrow(a); }",
        )]);
        let id = |n: &str| syms.by_name[n][0];
        // `eval_val` and `narrow` are roots; `scatter` is a helper.
        let hot = g.loop_hot(&[id("case"), id("eval_val"), id("narrow")]);
        assert_eq!(hot, HashSet::from([id("scatter")]));
    }

    #[test]
    fn qualified_and_method_calls_resolve() {
        let (_, syms, g) = build(&[
            (
                "crates/exec/src/a.rs",
                "fn caller(t: &ColJoinTable) { ColJoinTable::probe(t); t.finish_build(); }",
            ),
            (
                "crates/exec/src/b.rs",
                "impl ColJoinTable { pub fn probe(&self) {} pub fn finish_build(&self) {} }",
            ),
        ]);
        let root = syms.by_name["caller"][0];
        let reach = g.reachable(&[root]);
        assert!(reach.contains(&syms.by_name["probe"][0]));
        assert!(reach.contains(&syms.by_name["finish_build"][0]));
    }

    #[test]
    fn ambiguous_methods_unresolved_and_calls_outside_loops_not_hot() {
        let (_, syms, g) = build(&[
            ("crates/a/src/x.rs", "impl A { pub fn go(&self) {} } fn root(a: &A) { a.go(); }"),
            ("crates/b/src/y.rs", "impl B { pub fn go(&self) {} }"),
        ]);
        let root = syms.by_name["root"][0];
        // `.go()` is ambiguous: two methods named go → unresolved.
        assert_eq!(g.reachable(&[root]).len(), 1);
        assert!(g.loop_hot(&[root]).is_empty());
    }
}
