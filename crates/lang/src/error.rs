//! Frontend errors.

use std::error::Error;
use std::fmt;

/// An error produced while lexing, parsing or lowering a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    message: String,
    line: u32,
    col: u32,
}

impl ParseError {
    /// Creates an error at the given 1-based source position.
    pub fn new(message: impl Into<String>, line: u32, col: u32) -> Self {
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    /// The human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl ParseError {
    /// Renders the error with the offending source line and a caret:
    ///
    /// ```text
    /// error: expected ';', found '}'
    ///   --> 3:27
    ///    |
    ///  3 |     for i in 0..8 { x = A[i] }
    ///    |                           ^
    /// ```
    ///
    /// Positions the frontend could not attribute (line 0) render without
    /// the excerpt.
    pub fn render(&self, src: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "error: {}\n  --> {}:{}\n",
            self.message, self.line, self.col
        );
        if self.line >= 1 {
            if let Some(text) = src.lines().nth(self.line as usize - 1) {
                let gutter = self.line.to_string();
                let pad = " ".repeat(gutter.len());
                let _ = writeln!(out, " {pad} |");
                let _ = writeln!(out, " {gutter} | {text}");
                let caret_col = (self.col as usize).saturating_sub(1).min(text.len());
                let _ = writeln!(out, " {pad} | {}^", " ".repeat(caret_col));
            }
        }
        out
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

/// Result alias for frontend operations.
pub type Result<T> = std::result::Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ParseError::new("unexpected token", 3, 7);
        assert_eq!(e.to_string(), "3:7: unexpected token");
        assert_eq!(e.line(), 3);
    }

    #[test]
    fn render_points_at_the_offending_column() {
        let src = "kernel k {\n    scalar a: f64;\n    a = ;\n}";
        let e = ParseError::new("expected operand, found ';'", 3, 9);
        let rendered = e.render(src);
        assert!(rendered.contains("error: expected operand"), "{rendered}");
        assert!(rendered.contains(" 3 |     a = ;"), "{rendered}");
        let caret_line = rendered.lines().last().expect("caret line");
        assert_eq!(caret_line.find('^'), Some(5 + 8), "{rendered}");
    }

    #[test]
    fn render_survives_out_of_range_positions() {
        let e = ParseError::new("boom", 99, 1);
        let rendered = e.render("one line");
        assert!(rendered.contains("error: boom"));
        let e0 = ParseError::new("no position", 0, 0);
        assert!(e0.render("x").contains("no position"));
    }
}
