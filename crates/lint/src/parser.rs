//! Item-level parser on top of the tokenizer: extracts `fn` items (with
//! their enclosing `impl`/`trait` type and exact body spans) and `use`
//! paths. This is deliberately *not* a
//! full Rust grammar — it recognizes item heads and brace structure, which
//! is enough to build a workspace symbol table and call graph while staying
//! std-only and tolerant of code the rules have never seen.
//!
//! Limits (documented in DESIGN.md): generics are skipped by angle counting
//! (`->` arrows are recognized so return types do not unbalance the count),
//! macro bodies are scanned as ordinary token soup, and nested `fn` items
//! are recorded as their own entries whose spans sit inside the outer fn.

use crate::tokenizer::{strip_test_regions, tokenize, Comment, Tok, TokKind};

/// One `fn` item. `body` is the half-open token range of the body *including*
/// both braces; `span` is the matching half-open char range into the source.
/// Trait-method declarations without a body have `body == None`.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl` type or `trait` name, if any.
    pub impl_type: Option<String>,
    pub line: u32,
    /// Token range of the body: `toks[body.0]` is `{`, `toks[body.1 - 1]`
    /// is the matching `}`.
    pub body: Option<(usize, usize)>,
    /// Char span of the body including braces.
    pub span: Option<(u32, u32)>,
}

#[derive(Debug, Clone)]
pub struct UseItem {
    /// Path segments, `::`-split; glob and brace groups are flattened into
    /// the leaf position (e.g. `use a::{b, c};` yields two items).
    pub segments: Vec<String>,
    pub line: u32,
}

/// A parsed file: the (test-stripped) token stream plus extracted items.
#[derive(Debug)]
pub struct ParsedFile {
    pub path: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseItem>,
}

/// Tokenize, strip `#[cfg(test)]` regions, and parse items.
pub fn parse_file(path: &str, source: &str) -> ParsedFile {
    let (toks, comments) = tokenize(source);
    let toks = strip_test_regions(&toks);
    parse_tokens(path, toks, comments)
}

/// Parse items from an already-tokenized stream.
pub fn parse_tokens(path: &str, toks: Vec<Tok>, comments: Vec<Comment>) -> ParsedFile {
    let mut fns = Vec::new();
    let mut uses = Vec::new();

    // Stack of enclosing impl/trait blocks: (type name, brace depth at which
    // the block's `{` was opened). Popped when depth returns to that value.
    let mut ctx: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    let n = toks.len();

    while i < n {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while ctx.last().is_some_and(|c| c.1 >= depth) {
                ctx.pop();
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" | "trait" => {
                let (name, open) = impl_head(&toks, i);
                match open {
                    Some(open) => {
                        ctx.push((name.unwrap_or_default(), depth));
                        depth += 1;
                        i = open + 1;
                    }
                    // `impl Foo;`-style (shouldn't happen) or EOF: bail past.
                    None => i += 1,
                }
            }
            "fn" => {
                let name = match toks.get(i + 1) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let impl_type = ctx.last().map(|c| c.0.clone()).filter(|s| !s.is_empty());
                let line = t.line;
                // Scan the signature to the body `{` or a `;` (trait decl).
                let mut j = i + 2;
                let mut group = 0i32;
                let mut body = None;
                while j < n {
                    let s = &toks[j];
                    if s.is_punct('(') || s.is_punct('[') {
                        group += 1;
                    } else if s.is_punct(')') || s.is_punct(']') {
                        group -= 1;
                    } else if s.is_punct('{') && group == 0 {
                        let close = skip_braced_toks(&toks, j);
                        body = Some((j, close));
                        break;
                    } else if s.is_punct(';') && group == 0 {
                        break;
                    }
                    j += 1;
                }
                let span = body
                    .map(|(open, close)| (toks[open].pos, toks[close.saturating_sub(1)].end));
                fns.push(FnItem { name, impl_type, line, body, span });
                // Continue scanning *inside* the body so nested items (and
                // the impl-context bookkeeping) stay consistent.
                match body {
                    Some((open, _)) => {
                        depth += 1;
                        i = open + 1;
                    }
                    None => i = j.min(n),
                }
            }
            "use" => {
                let (items, next) = parse_use(&toks, i);
                uses.extend(items);
                i = next;
            }
            _ => i += 1,
        }
    }

    ParsedFile { path: path.to_string(), toks, comments, fns, uses }
}

/// Parse an `impl`/`trait` head starting at the keyword. Returns the
/// self-type name (last ident at angle-depth 0 before `{`/`where`, taken
/// after `for` when present) and the index of the opening `{`.
fn impl_head(toks: &[Tok], kw: usize) -> (Option<String>, Option<usize>) {
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    let mut j = kw + 1;
    let mut in_where = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') && angle <= 0 {
            return (name, Some(j));
        }
        if t.is_punct(';') && angle <= 0 {
            return (name, None);
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` in bounds like `Fn() -> R` is an arrow, not a close.
            if !toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) {
                angle -= 1;
            }
        } else if t.kind == TokKind::Ident && angle == 0 {
            match t.text.as_str() {
                "for" => name = None, // the self-type follows `for`
                "where" => in_where = true,
                "dyn" | "as" => {}
                _ if !in_where => name = Some(t.text.clone()),
                _ => {}
            }
        }
        j += 1;
    }
    (name, None)
}

/// Parse a `use` item starting at the keyword; flattens `{a, b}` groups.
/// Returns the items and the index just past the terminating `;`.
fn parse_use(toks: &[Tok], kw: usize) -> (Vec<UseItem>, usize) {
    let line = toks[kw].line;
    let mut prefix: Vec<String> = Vec::new();
    let mut items = Vec::new();
    let mut group_base: Vec<Vec<String>> = Vec::new();
    let mut j = kw + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(';') {
            j += 1;
            break;
        }
        if t.kind == TokKind::Ident && t.text != "as" {
            prefix.push(t.text.clone());
        } else if t.is_punct('{') {
            group_base.push(prefix.clone());
        } else if t.is_punct(',') || t.is_punct('}') {
            if !prefix.is_empty() {
                items.push(UseItem { segments: prefix.clone(), line });
            }
            if t.is_punct('}') {
                group_base.pop();
                prefix = Vec::new();
            } else {
                prefix = group_base.last().cloned().unwrap_or_default();
            }
        } else if t.is_punct('*') {
            prefix.push("*".to_string());
        }
        j += 1;
    }
    if !prefix.is_empty() {
        items.push(UseItem { segments: prefix, line });
    }
    (items, j)
}

/// Skip a braced group starting at `i` (`{`); returns index past the `}`.
pub fn skip_braced_toks(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_and_method_fns() {
        let src = r#"
            fn free(a: u32) -> u32 { a + 1 }
            impl ColumnBatch {
                pub fn num_rows(&self) -> usize { self.rows }
                fn helper() {}
            }
            impl fmt::Display for IcError {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, "x") }
            }
            trait RowSource {
                fn next_batch(&mut self) -> Option<u32>;
                fn size_hint(&self) -> u32 { 0 }
            }
        "#;
        let p = parse_file("x.rs", src);
        let names: Vec<(String, Option<String>)> =
            p.fns.iter().map(|f| (f.name.clone(), f.impl_type.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("num_rows".into(), Some("ColumnBatch".into())),
                ("helper".into(), Some("ColumnBatch".into())),
                ("fmt".into(), Some("IcError".into())),
                ("next_batch".into(), Some("RowSource".into())),
                ("size_hint".into(), Some("RowSource".into())),
            ]
        );
        // Trait decl without body.
        assert!(p.fns[4].body.is_none());
        assert!(p.fns[5].body.is_some());
    }

    #[test]
    fn impl_head_with_generics_and_arrows() {
        let src = "impl<'a, F: Fn(usize) -> bool> Filter<F> { fn go(&self) {} }";
        let p = parse_file("x.rs", src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Filter"));
    }

    #[test]
    fn body_spans_cover_braces() {
        let src = "fn f() { g(); }";
        let p = parse_file("x.rs", src);
        let (a, b) = p.fns[0].span.unwrap();
        let chars: Vec<char> = src.chars().collect();
        let body: String = chars[a as usize..b as usize].iter().collect();
        assert_eq!(body, "{ g(); }");
    }

    #[test]
    fn use_items_flatten_groups() {
        let src = "use ic_common::{col::ColumnBatch, error::IcError};\nuse std::fmt;";
        let p = parse_file("x.rs", src);
        let segs: Vec<Vec<String>> = p.uses.iter().map(|u| u.segments.clone()).collect();
        assert_eq!(
            segs,
            vec![
                vec!["ic_common", "col", "ColumnBatch"],
                vec!["ic_common", "error", "IcError"],
                vec!["std", "fmt"],
            ]
            .into_iter()
            .map(|v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<_>>())
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_fn_recorded_inside_outer() {
        let src = "fn outer() { fn inner() {} inner(); }";
        let p = parse_file("x.rs", src);
        assert_eq!(p.fns.len(), 2);
        let (oa, ob) = p.fns[0].span.unwrap();
        let (ia, ib) = p.fns[1].span.unwrap();
        assert!(oa < ia && ib <= ob);
    }
}
