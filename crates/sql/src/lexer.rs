//! SQL tokenizer.

use ic_common::{IcError, IcResult};

/// A lexical token. Identifiers and keywords are folded to lowercase.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Ident(String),
    Number(String),
    String(String),
    /// Punctuation and operators.
    Sym(&'static str),
    Eof,
}

impl Token {
    /// The keyword/identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenize an SQL string.
pub fn lex(input: &str) -> IcResult<Vec<Token>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if chars.get(i + 1) == Some(&'-') => {
                // line comment
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '\'' => {
                // string literal with '' escaping
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                        None => return Err(IcError::Parse("unterminated string literal".into())),
                    }
                }
                out.push(Token::String(s));
            }
            c if c.is_ascii_digit()
                || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                // An exponent (`e`, an optional sign, digits) belongs to the
                // number; an `e` without digits after it starts a word.
                if matches!(chars.get(i), Some('e' | 'E')) {
                    let digits = i + 1 + matches!(chars.get(i + 1), Some('+' | '-')) as usize;
                    if chars.get(digits).is_some_and(char::is_ascii_digit) {
                        i = digits;
                        while i < chars.len() && chars[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                out.push(Token::Number(chars[start..i].iter().collect()));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
                {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                out.push(Token::Ident(word.to_ascii_lowercase()));
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Sym("<="));
                    i += 2;
                } else if chars.get(i + 1) == Some(&'>') {
                    out.push(Token::Sym("<>"));
                    i += 2;
                } else {
                    out.push(Token::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Sym(">="));
                    i += 2;
                } else {
                    out.push(Token::Sym(">"));
                    i += 1;
                }
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token::Sym("<>"));
                i += 2;
            }
            '=' | '+' | '-' | '*' | '/' | '(' | ')' | ',' | '.' | ';' => {
                let sym = match c {
                    '=' => "=",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    ';' => ";",
                    _ => unreachable!(),
                };
                out.push(Token::Sym(sym));
                i += 1;
            }
            other => return Err(IcError::Parse(format!("unexpected character '{other}'"))),
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let t = lex("SELECT a.b, 1.5 FROM t WHERE x <> 'it''s'").unwrap();
        assert_eq!(t[0], Token::Ident("select".into()));
        assert_eq!(t[1], Token::Ident("a".into()));
        assert_eq!(t[2], Token::Sym("."));
        assert_eq!(t[5], Token::Number("1.5".into()));
        assert!(t.contains(&Token::Sym("<>")));
        assert!(t.contains(&Token::String("it's".into())));
        assert_eq!(*t.last().unwrap(), Token::Eof);
    }

    #[test]
    fn comments_skipped() {
        let t = lex("select 1 -- comment here\n, 2").unwrap();
        assert_eq!(t.len(), 5); // select, 1, ',', 2, eof
    }

    #[test]
    fn comparison_operators() {
        let t = lex("a <= b >= c != d < e > f = g").unwrap();
        let syms: Vec<_> = t
            .iter()
            .filter_map(|t| match t {
                Token::Sym(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec!["<=", ">=", "<>", "<", ">", "="]);
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ? b").is_err());
    }

    #[test]
    fn leading_dot_number() {
        let t = lex("x > .07").unwrap();
        assert!(t.contains(&Token::Number(".07".into())));
    }

    /// An exponent is part of its number, with or without a sign; an `e`
    /// with no digits after it is not.
    #[test]
    fn exponent_numbers() {
        for n in ["1e308", "2.5E-3", "1e+2", ".5e1"] {
            assert_eq!(lex(n).unwrap(), [Token::Number(n.into()), Token::Eof], "{n}");
        }
        let t = lex("1e x 2e+ 3E").unwrap();
        let want = [
            Token::Number("1".into()),
            Token::Ident("e".into()),
            Token::Ident("x".into()),
            Token::Number("2".into()),
            Token::Ident("e".into()),
            Token::Sym("+"),
            Token::Number("3".into()),
            Token::Ident("e".into()),
            Token::Eof,
        ];
        assert_eq!(t, want);
    }
}
