//! Hand-written lexer for the kernel mini-language.

use slp_ir::ScalarType;

use crate::error::{ParseError, Result};
use crate::token::{Spanned, Token};

/// Tokenizes `src`, returning the token stream terminated by
/// [`Token::Eof`].
///
/// Comments run from `//` to end of line. Whitespace separates tokens.
///
/// # Errors
///
/// Returns a [`ParseError`] on unknown characters or malformed numeric
/// literals.
pub fn lex(src: &str) -> Result<Vec<Spanned>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Spanned>> {
        let _ = self.src;
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                out.push(Spanned {
                    token: Token::Eof,
                    line,
                    col,
                });
                return Ok(out);
            };
            let token = match c {
                '{' => self.single(Token::LBrace),
                '}' => self.single(Token::RBrace),
                '[' => self.single(Token::LBracket),
                ']' => self.single(Token::RBracket),
                '(' => self.single(Token::LParen),
                ')' => self.single(Token::RParen),
                ':' => self.single(Token::Colon),
                ';' => self.single(Token::Semi),
                ',' => self.single(Token::Comma),
                '=' if self.peek2() == Some('=') => self.double(Token::EqEq),
                '=' => self.single(Token::Eq),
                '<' if self.peek2() == Some('=') => self.double(Token::Le),
                '<' => self.single(Token::Lt),
                '>' if self.peek2() == Some('=') => self.double(Token::Ge),
                '>' => self.single(Token::Gt),
                '!' if self.peek2() == Some('=') => self.double(Token::Ne),
                '+' => self.single(Token::Plus),
                '-' => self.single(Token::Minus),
                '*' => self.single(Token::Star),
                '/' => self.single(Token::Slash),
                '.' if self.peek2() == Some('.') => {
                    self.bump();
                    self.bump();
                    Token::DotDot
                }
                '"' => self.string(line, col)?,
                c if c.is_ascii_digit() => self.number(line, col)?,
                c if c.is_ascii_alphabetic() || c == '_' => self.ident(),
                other => {
                    return Err(ParseError::new(
                        format!("unexpected character '{other}'"),
                        line,
                        col,
                    ))
                }
            };
            out.push(Spanned { token, line, col });
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn single(&mut self, t: Token) -> Token {
        self.bump();
        t
    }

    fn double(&mut self, t: Token) -> Token {
        self.bump();
        self.bump();
        t
    }

    fn string(&mut self, line: u32, col: u32) -> Result<Token> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(Token::Str(s)),
                Some(c) => s.push(c),
                None => return Err(ParseError::new("unterminated string", line, col)),
            }
        }
    }

    fn number(&mut self, line: u32, col: u32) -> Result<Token> {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // A '.' followed by a digit makes it a float; '..' is a range.
        if self.peek() == Some('.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            s.push('.');
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    s.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            s.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| ParseError::new(format!("bad float literal '{s}'"), line, col))
        } else {
            s.parse::<i64>()
                .map(Token::Int)
                .map_err(|_| ParseError::new(format!("bad integer literal '{s}'"), line, col))
        }
    }

    fn ident(&mut self) -> Token {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // Allow '.' in identifiers only when followed by alnum
                // (unroll-renamed scalars like `t.u1` round-trip).
                if c == '.' && !self.peek2().is_some_and(|n| n.is_ascii_alphanumeric()) {
                    break;
                }
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match s.as_str() {
            "kernel" => Token::Kernel,
            "array" => Token::Array,
            "scalar" => Token::Scalar,
            "const" => Token::Const,
            "for" => Token::For,
            "in" => Token::In,
            "step" => Token::Step,
            "if" => Token::If,
            "else" => Token::Else,
            "f32" => Token::Type(ScalarType::F32),
            "f64" => Token::Type(ScalarType::F64),
            "i8" => Token::Type(ScalarType::I8),
            "i16" => Token::Type(ScalarType::I16),
            "i32" => Token::Type(ScalarType::I32),
            "i64" => Token::Type(ScalarType::I64),
            _ => Token::Ident(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("kernel foo array f64"),
            vec![
                Token::Kernel,
                Token::Ident("foo".into()),
                Token::Array,
                Token::Type(ScalarType::F64),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers_ranges_and_floats() {
        assert_eq!(
            toks("0..16 2.5 3"),
            vec![
                Token::Int(0),
                Token::DotDot,
                Token::Int(16),
                Token::Float(2.5),
                Token::Int(3),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment\n b"),
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn punctuation() {
        assert_eq!(
            toks("A[i] = a * b;"),
            vec![
                Token::Ident("A".into()),
                Token::LBracket,
                Token::Ident("i".into()),
                Token::RBracket,
                Token::Eq,
                Token::Ident("a".into()),
                Token::Star,
                Token::Ident("b".into()),
                Token::Semi,
                Token::Eof
            ]
        );
    }

    #[test]
    fn string_literals() {
        assert_eq!(
            toks("\"lbm kernel\""),
            vec![Token::Str("lbm kernel".into()), Token::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn positions_are_tracked() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn unknown_char_is_an_error() {
        let e = lex("a @ b").unwrap_err();
        assert!(e.message().contains("unexpected character"));
        assert!(e.to_string().starts_with("1:3: "));
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("a < b <= c > d >= e == f != g"),
            vec![
                Token::Ident("a".into()),
                Token::Lt,
                Token::Ident("b".into()),
                Token::Le,
                Token::Ident("c".into()),
                Token::Gt,
                Token::Ident("d".into()),
                Token::Ge,
                Token::Ident("e".into()),
                Token::EqEq,
                Token::Ident("f".into()),
                Token::Ne,
                Token::Ident("g".into()),
                Token::Eof
            ]
        );
        // '==' must not lex as two assignments.
        assert_eq!(toks("=="), vec![Token::EqEq, Token::Eof]);
        // A bare '!' is still an error.
        let e = lex("a ! b").unwrap_err();
        assert!(e.message().contains("unexpected character"));
    }

    #[test]
    fn if_else_keywords_and_prefixed_identifiers() {
        assert_eq!(
            toks("if else iffy elsewhere selector select"),
            vec![
                Token::If,
                Token::Else,
                Token::Ident("iffy".into()),
                Token::Ident("elsewhere".into()),
                // `select` is contextual (call syntax only), never a
                // keyword, so both stay identifiers.
                Token::Ident("selector".into()),
                Token::Ident("select".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn dotted_idents() {
        assert_eq!(toks("t.u1"), vec![Token::Ident("t.u1".into()), Token::Eof]);
    }

    #[test]
    fn overflowing_integer_literal_is_a_typed_error() {
        let e = lex("99999999999999999999999").unwrap_err();
        assert!(e.message().contains("bad integer literal"), "{e}");
    }

    #[test]
    fn non_ascii_bytes_are_typed_errors() {
        for src in ["λ = 1.0;", "a = \u{1F600};", "ke\u{0301}rnel k {}"] {
            let e = lex(src).unwrap_err();
            assert!(e.message().contains("unexpected character"), "{src}: {e}");
        }
        // Non-ASCII inside a string literal is fine.
        assert!(lex("\"kérnel λ\"").is_ok());
    }

    #[test]
    fn pathological_punctuation_terminates() {
        // A trailing '.' (no second '.') is an error, not a hang.
        assert!(lex("a = 1.").is_err());
        assert!(lex(".").is_err());
        // Deeply repeated trivia/comments terminate.
        let long = "// c\n".repeat(10_000);
        assert!(lex(&long).is_ok());
    }
}
