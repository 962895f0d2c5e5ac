//! Property tests for the item parser: generate random well-formed Rust-ish
//! sources from a grammar of items, then check the round-trip invariants —
//! every generated fn is found under the right impl type, every recorded
//! body is a balanced brace range whose char span reproduces the body text
//! exactly, and distinct fn body spans never partially overlap (they are
//! disjoint or properly nested). Together these mean the spans cover each
//! fn body's bytes exactly once at every nesting level, which is what the
//! per-fn semantic rules (L008, L009, L012) rely on when they slice token
//! ranges.

use ic_lint::parser::parse_file;
use proptest::prelude::*;

/// Lowercase identifier distinct from keywords used in the templates.
/// (The vendored proptest shim supports single `[class]{lo,hi}` patterns
/// only, so identifiers are composed from two parts.)
fn ident() -> impl Strategy<Value = String> {
    ("[a-z]{1,1}", "[a-z0-9_]{0,6}")
        .prop_map(|(head, tail)| format!("{head}{tail}"))
        .prop_filter("not a template keyword", |s| {
            !matches!(
                s.as_str(),
                "fn" | "impl" | "struct" | "enum" | "use" | "let" | "for" | "in" | "if"
                    | "else" | "while" | "loop" | "match" | "pub" | "mut" | "ref" | "move"
                    | "trait" | "where" | "dyn" | "as" | "return"
            )
        })
}

fn type_name() -> impl Strategy<Value = String> {
    ("[A-Z]{1,1}", "[a-z0-9]{0,6}").prop_map(|(head, tail)| format!("{head}{tail}"))
}

/// A statement for a fn body — may introduce nested brace groups, strings
/// with brace characters, and calls.
fn stmt() -> impl Strategy<Value = String> {
    prop_oneof![
        ident().prop_map(|f| format!("{f}();")),
        (ident(), ident()).prop_map(|(a, b)| format!("let {a} = {b}(1, 2);")),
        (ident(), ident()).prop_map(|(c, f)| format!("if {c} {{ {f}(); }}")),
        (ident(), ident()).prop_map(|(v, f)| format!("for {v} in 0..8 {{ {f}({v}); }}")),
        ident().prop_map(|s| format!("let {s} = \"braces {{ in }} a string\";")),
        Just("/* a comment with fn and { braces */".to_string()),
    ]
}

fn fn_body() -> impl Strategy<Value = String> {
    proptest::collection::vec(stmt(), 0..4).prop_map(|stmts| stmts.join(" "))
}

/// One generated item, plus the fn names it contributes:
/// (source text, vec of (fn name, impl type)).
#[derive(Debug, Clone)]
struct GenItem {
    src: String,
    fns: Vec<(String, Option<String>)>,
}

fn item() -> impl Strategy<Value = GenItem> {
    prop_oneof![
        // Free fn.
        (ident(), fn_body()).prop_map(|(name, body)| GenItem {
            src: format!("pub fn {name}(x: u32) -> u32 {{ {body} }}"),
            fns: vec![(name, None)],
        }),
        // Impl block with two methods.
        (type_name(), ident(), ident(), fn_body()).prop_map(|(ty, m1, m2, body)| {
            let src = format!(
                "impl {ty} {{ pub fn {m1}(&self) {{ {body} }} fn {m2}(&mut self, k: usize) {{ }} }}"
            );
            GenItem { src, fns: vec![(m1, Some(ty.clone())), (m2, Some(ty))] }
        }),
        // Struct + use contribute no fns but exercise the item scanner.
        (type_name(), ident()).prop_map(|(ty, f)| GenItem {
            src: format!("pub struct {ty} {{ {f}: u64 }}"),
            fns: vec![],
        }),
        (ident(), ident()).prop_map(|(a, b)| GenItem {
            src: format!("use {a}::{b};"),
            fns: vec![],
        }),
        // Fn containing a nested fn.
        (ident(), ident(), fn_body()).prop_map(|(outer, inner, body)| GenItem {
            src: format!("fn {outer}() {{ fn {inner}() {{ {body} }} {inner}(); }}"),
            fns: vec![(outer, None), (inner, None)],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn parse_round_trip(items in proptest::collection::vec(item(), 1..8)) {
        let src: String =
            items.iter().map(|i| i.src.as_str()).collect::<Vec<_>>().join("\n");
        let parsed = parse_file("crates/x/src/gen.rs", &src);
        let chars: Vec<char> = src.chars().collect();

        // Every generated fn is found, under the right impl type. Names may
        // repeat across items; count generated occurrences <= parsed ones.
        for (name, impl_ty) in items.iter().flat_map(|i| i.fns.iter()) {
            let want = items
                .iter()
                .flat_map(|i| i.fns.iter())
                .filter(|(n, t)| n == name && t == impl_ty)
                .count();
            let got = parsed
                .fns
                .iter()
                .filter(|f| &f.name == name && f.impl_type.as_deref() == impl_ty.as_deref())
                .count();
            prop_assert_eq!(got, want, "fn {} under {:?}", name, impl_ty);
        }

        for f in &parsed.fns {
            let (Some((bs, be)), Some((ca, cb))) = (f.body, f.span) else { continue };
            // Token range: starts at `{`, ends just past its matching `}`.
            prop_assert!(parsed.toks[bs].is_punct('{'));
            prop_assert!(parsed.toks[be - 1].is_punct('}'));
            let mut depth = 0i64;
            for t in &parsed.toks[bs..be] {
                if t.is_punct('{') { depth += 1 }
                if t.is_punct('}') { depth -= 1 }
                prop_assert!(depth >= 0);
            }
            prop_assert_eq!(depth, 0, "unbalanced body for {}", &f.name);
            // Char span reproduces the body text exactly: starts with `{`,
            // ends with `}`, and its brace balance is zero ignoring strings
            // and comments (which the tokenizer already skipped).
            let text: String = chars[ca as usize..cb as usize].iter().collect();
            prop_assert!(text.starts_with('{') && text.ends_with('}'), "span text {:?}", text);
        }

        // Distinct body spans never partially overlap: for the per-fn rules
        // each source byte belongs to exactly one fn at each nesting level.
        let spans: Vec<(u32, u32)> = parsed.fns.iter().filter_map(|f| f.span).collect();
        for (i, &(a1, b1)) in spans.iter().enumerate() {
            for &(a2, b2) in spans.iter().skip(i + 1) {
                let disjoint = b1 <= a2 || b2 <= a1;
                let nested = (a1 < a2 && b2 <= b1) || (a2 < a1 && b1 <= b2);
                prop_assert!(
                    disjoint || nested,
                    "partially overlapping fn spans ({a1},{b1}) vs ({a2},{b2})"
                );
            }
        }
    }
}
