//! Intra-procedural dataflow facts over a function's token range: where its
//! loops are, whether an error-handling loop can retry without consulting
//! the retryable/terminal classifier, and where heap allocations happen.
//! All analyses are lexical — no types, which keeps them honest about
//! their limits (documented in DESIGN.md).

use crate::tokenizer::{Tok, TokKind};

/// Half-open token ranges of `for`/`while`/`loop` bodies inside `range`
/// (including nested loops; ranges may overlap).
pub fn loop_ranges(toks: &[Tok], range: (usize, usize)) -> Vec<(usize, usize)> {
    let (start, end) = range;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "for" | "while" | "loop")
            && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('\''))
        {
            // Find the body `{` at group depth 0 (skips `while let ... =`,
            // the iterator expression of `for`, etc.).
            let mut j = i + 1;
            let mut group = 0i32;
            while j < end {
                let s = &toks[j];
                if s.is_punct('(') || s.is_punct('[') {
                    group += 1;
                } else if s.is_punct(')') || s.is_punct(']') {
                    group -= 1;
                } else if s.is_punct('{') && group == 0 {
                    let close = crate::parser::skip_braced_toks(toks, j);
                    out.push((j, close.min(end)));
                    break;
                } else if s.is_punct(';') && group == 0 {
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Skip a parenthesized group starting at `i` (`(`); returns index past `)`.
fn skip_group(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

pub(crate) const CLASSIFIERS: [&str; 3] = ["is_retryable", "is_failover_retryable", "is_planner_failure"];
const RETRY_VOCAB: [&str; 5] = ["attempt", "attempts", "retry", "retries", "backoff"];

/// L009: inside retry loops, every `Err` arm that can fall through
/// to the next iteration must consult a retryable/terminal classifier —
/// either in a match guard (`Err(e) if e.is_failover_retryable() => ...`)
/// or inside the arm body. Arms that terminate (`return`/`break`/`?`/
/// `panic!`) are exempt. Loops without retry vocabulary (no `attempt`/
/// `retry`/`backoff` idents and no classifier call) are not retry loops —
/// e.g. drain loops that merely collect errors — and are skipped.
pub fn retry_loop_findings(toks: &[Tok], range: (usize, usize)) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (ls, le) in loop_ranges(toks, range) {
        let body = &toks[ls..le];
        let is_retry_loop = body.iter().any(|t| {
            t.kind == TokKind::Ident
                && (RETRY_VOCAB.contains(&t.text.as_str())
                    || CLASSIFIERS.contains(&t.text.as_str()))
        });
        if !is_retry_loop {
            continue;
        }
        let mut i = ls;
        while i < le {
            if toks[i].is_ident("Err") && toks.get(i + 1).is_some_and(|a| a.is_punct('(')) {
                let pat_close = skip_group(toks, i + 1, le);
                let mut j = pat_close;
                let mut guard_ok = false;
                let mut is_arm = false;
                if toks.get(j).is_some_and(|a| a.is_ident("if")) {
                    // Optional match guard: `Err(e) if <guard> => ...`.
                    let g0 = j + 1;
                    while j < le {
                        if toks[j].is_punct('=')
                            && toks.get(j + 1).is_some_and(|a| a.is_punct('>'))
                        {
                            guard_ok = toks[g0..j].iter().any(|t| {
                                t.kind == TokKind::Ident
                                    && CLASSIFIERS.contains(&t.text.as_str())
                            });
                            is_arm = true;
                            j += 2;
                            break;
                        }
                        if toks[j].is_punct('{') || toks[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                } else if toks.get(j).is_some_and(|a| a.is_punct('='))
                    && toks.get(j + 1).is_some_and(|a| a.is_punct('>'))
                {
                    is_arm = true;
                    j += 2;
                } else if toks.get(i.wrapping_sub(1)).is_some_and(|a| a.is_ident("let")) {
                    // `if let Err(e) = expr { block }` / `while let ...`.
                    let mut k = pat_close;
                    let mut group = 0i32;
                    while k < le {
                        let s = &toks[k];
                        if s.is_punct('(') || s.is_punct('[') {
                            group += 1;
                        } else if s.is_punct(')') || s.is_punct(']') {
                            group -= 1;
                        } else if s.is_punct('{') && group == 0 {
                            is_arm = true;
                            j = k;
                            break;
                        } else if s.is_punct(';') && group == 0 {
                            break;
                        }
                        k += 1;
                    }
                }
                if is_arm && !guard_ok {
                    // Arm body: braced block or expression up to `,` at
                    // depth 0 (or end of loop body).
                    let (bs, be) = if toks.get(j).is_some_and(|a| a.is_punct('{')) {
                        (j, crate::parser::skip_braced_toks(toks, j).min(le))
                    } else {
                        let mut k = j;
                        let mut depth = 0i32;
                        while k < le {
                            let s = &toks[k];
                            if s.is_punct('(') || s.is_punct('[') || s.is_punct('{') {
                                depth += 1;
                            } else if s.is_punct(')') || s.is_punct(']') || s.is_punct('}') {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            } else if s.is_punct(',') && depth == 0 {
                                break;
                            }
                            k += 1;
                        }
                        (j, k)
                    };
                    let arm = &toks[bs..be];
                    let terminates = arm.iter().any(|t| {
                        (t.kind == TokKind::Ident
                            && matches!(
                                t.text.as_str(),
                                "return" | "break" | "panic" | "unreachable" | "unimplemented"
                            ))
                            || t.is_punct('?')
                    });
                    let classified = arm.iter().any(|t| {
                        t.kind == TokKind::Ident && CLASSIFIERS.contains(&t.text.as_str())
                    });
                    if !terminates && !classified {
                        out.push((
                            toks[i].line,
                            "retry loop can re-enter on an unclassified error: gate this \
                             `Err` arm on is_retryable()/is_failover_retryable() or \
                             terminate it"
                                .to_string(),
                        ));
                    }
                    i = be.max(i + 1);
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// Heap-allocating constructs recognized by L012. Returns (line, what).
pub fn alloc_sites(toks: &[Tok], range: (usize, usize)) -> Vec<(u32, String)> {
    let (start, end) = range;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let next_bang = toks.get(i + 1).is_some_and(|a| a.is_punct('!'));
            let qualified = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && toks.get(i + 2).is_some_and(|a| a.is_punct(':'));
            let after_dot = toks.get(i.wrapping_sub(1)).is_some_and(|a| a.is_punct('.'));
            let called = toks.get(i + 1).is_some_and(|a| a.is_punct('('));
            match t.text.as_str() {
                "vec" | "format" if next_bang => {
                    out.push((t.line, format!("{}! allocates", t.text)));
                }
                "Vec" | "Box" | "String" | "HashMap" | "HashSet" | "BTreeMap" | "VecDeque"
                    if qualified =>
                {
                    if let Some(m) = toks.get(i + 3).filter(|m| m.kind == TokKind::Ident) {
                        if matches!(m.text.as_str(), "new" | "with_capacity" | "from") {
                            out.push((t.line, format!("{}::{} allocates", t.text, m.text)));
                        }
                    }
                }
                "with_capacity" if after_dot && called => {
                    out.push((t.line, "with_capacity allocates".to_string()));
                }
                "to_vec" | "to_string" | "to_owned" | "collect" if after_dot && called => {
                    out.push((t.line, format!("{} allocates", t.text)));
                }
                _ => {}
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).0
    }

    #[test]
    fn loops_found() {
        let t = toks("fn f() { loop { x(); } for i in 0..n { y(); } while a { z(); } }");
        let r = loop_ranges(&t, (0, t.len()));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn retry_loop_guarded_is_clean() {
        let t = toks(
            "loop { match run(attempt) { Ok(v) => return Ok(v), \
             Err(e) if e.is_failover_retryable() => { chain.push(e); } \
             Err(e) => return Err(e), } }",
        );
        assert!(retry_loop_findings(&t, (0, t.len())).is_empty());
    }

    #[test]
    fn retry_loop_unguarded_flagged() {
        let t = toks(
            "loop { attempt += 1; match run() { Ok(v) => return Ok(v), \
             Err(e) => { last = e; } } }",
        );
        assert_eq!(retry_loop_findings(&t, (0, t.len())).len(), 1);
    }

    #[test]
    fn drain_loop_not_a_retry_loop() {
        let t = toks("loop { match rx.recv() { Ok(v) => sink.push(v), Err(e) => { log(e); } } }");
        assert!(retry_loop_findings(&t, (0, t.len())).is_empty());
    }

    #[test]
    fn allocs_found() {
        let t = toks("let a = Vec::new(); let b = vec![0; n]; let c = xs.to_vec(); d.collect()");
        let sites = alloc_sites(&t, (0, t.len()));
        assert_eq!(sites.len(), 4);
    }
}
