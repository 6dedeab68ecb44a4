//! The classifier expression language.
//!
//! "Each classifier is a list of declarative statements of the form
//! `A ← B`, where A is an arithmetic calculation and B is a Boolean
//! condition. Both clauses use nodes in a g-tree as arguments"
//! (Section 3.4, Figure 5). This module parses that surface syntax into
//! the relational [`Expr`] AST, which is how classifiers later compile to
//! relational plans and ETL components (Hypothesis #3: the language is
//! "equivalent in expressive power to conjunctive queries with union").
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! rule    := expr '<-' expr
//! expr    := and ( OR and )*
//! and     := not ( AND not )*
//! not     := NOT not | cmp
//! cmp     := add ( ('='|'<>'|'<'|'<='|'>'|'>=') add )?
//!          | add IS [NOT] ANSWERED            -- enablement-aware null test
//!          | add IS [NOT] NULL
//!          | add IN '(' literal (',' literal)* ')'
//! add     := mul ( ('+'|'-') mul )*
//! mul     := unary ( ('*'|'/') unary )*
//! unary   := '-' unary | primary
//! primary := literal | identifier | '(' expr ')'
//! literal := INT | FLOAT | 'text' | TRUE | FALSE | NULL | DATE 'YYYY-MM-DD'
//! ```

use guava_relational::expr::{BinOp, Expr};
use guava_relational::value::Value;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn tokens(mut self) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let c = self.bytes[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'(' | b')' | b',' | b'+' | b'*' | b'/' | b'=' => {
                    self.pos += 1;
                    let s = match c {
                        b'(' => "(",
                        b')' => ")",
                        b',' => ",",
                        b'+' => "+",
                        b'*' => "*",
                        b'/' => "/",
                        _ => "=",
                    };
                    out.push((Tok::Sym(s), start));
                }
                b'-' => {
                    self.pos += 1;
                    out.push((Tok::Sym("-"), start));
                }
                b'<' => {
                    self.pos += 1;
                    let sym = match self.bytes.get(self.pos) {
                        Some(b'-') => {
                            self.pos += 1;
                            "<-"
                        }
                        Some(b'=') => {
                            self.pos += 1;
                            "<="
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            "<>"
                        }
                        _ => "<",
                    };
                    out.push((Tok::Sym(sym), start));
                }
                b'>' => {
                    self.pos += 1;
                    let sym = if self.bytes.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        ">="
                    } else {
                        ">"
                    };
                    out.push((Tok::Sym(sym), start));
                }
                // The paper typesets `←` and `≤`/`≥`; accept the unicode
                // arrows analysts might paste from it.
                0xE2 => {
                    let rest = &self.src[self.pos..];
                    if let Some(stripped) = rest.strip_prefix('\u{2190}') {
                        self.pos += rest.len() - stripped.len();
                        out.push((Tok::Sym("<-"), start));
                    } else if let Some(stripped) = rest.strip_prefix('\u{2264}') {
                        self.pos += rest.len() - stripped.len();
                        out.push((Tok::Sym("<="), start));
                    } else if let Some(stripped) = rest.strip_prefix('\u{2265}') {
                        self.pos += rest.len() - stripped.len();
                        out.push((Tok::Sym(">="), start));
                    } else {
                        return Err(self.error("unexpected character"));
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    let mut s = String::new();
                    loop {
                        match self.bytes.get(self.pos) {
                            None => return Err(self.error("unterminated string literal")),
                            Some(b'\'') if self.bytes.get(self.pos + 1) == Some(&b'\'') => {
                                s.push('\'');
                                self.pos += 2;
                            }
                            Some(b'\'') => {
                                self.pos += 1;
                                break;
                            }
                            Some(_) => {
                                let ch = self.src[self.pos..].chars().next().unwrap();
                                s.push(ch);
                                self.pos += ch.len_utf8();
                            }
                        }
                    }
                    out.push((Tok::Str(s), start));
                }
                b'0'..=b'9' => {
                    let mut end = self.pos;
                    let mut is_float = false;
                    while end < self.bytes.len() {
                        match self.bytes[end] {
                            b'0'..=b'9' => end += 1,
                            b'.' if !is_float
                                && matches!(self.bytes.get(end + 1), Some(b'0'..=b'9')) =>
                            {
                                is_float = true;
                                end += 1;
                            }
                            _ => break,
                        }
                    }
                    let text = &self.src[self.pos..end];
                    self.pos = end;
                    let tok = if is_float {
                        Tok::Float(text.parse().map_err(|_| self.error("bad float"))?)
                    } else {
                        Tok::Int(text.parse().map_err(|_| self.error("integer too large"))?)
                    };
                    out.push((tok, start));
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    let mut end = self.pos;
                    while end < self.bytes.len()
                        && matches!(self.bytes[end], b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')
                    {
                        end += 1;
                    }
                    let word = &self.src[self.pos..end];
                    self.pos = end;
                    out.push((Tok::Ident(word.to_owned()), start));
                }
                _ => return Err(self.error(format!("unexpected character `{}`", c as char))),
            }
        }
        Ok(out)
    }
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.idx).map(|(t, _)| t)
    }

    fn pos(&self) -> usize {
        self.tokens.get(self.idx).map_or(usize::MAX, |(_, p)| *p)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.idx).map(|(t, _)| t.clone());
        self.idx += 1;
        t
    }

    /// Case-insensitive keyword check without consuming.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{sym}`")))
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while self.eat_kw("OR") {
            e = e.or(self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.not_expr()?;
        while self.eat_kw("AND") {
            e = e.and(self.not_expr()?);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            Ok(self.not_expr()?.not())
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            if self.eat_kw("ANSWERED") {
                // `x IS ANSWERED` — the UI-speak null test.
                return Ok(if negated {
                    lhs.is_null()
                } else {
                    lhs.is_not_null()
                });
            }
            if self.eat_kw("NULL") {
                return Ok(if negated {
                    lhs.is_not_null()
                } else {
                    lhs.is_null()
                });
            }
            return Err(self.error("expected ANSWERED or NULL after IS"));
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut values = vec![self.literal()?];
            while self.eat_sym(",") {
                values.push(self.literal()?);
            }
            self.expect_sym(")")?;
            return Ok(lhs.in_list(values));
        }
        for (sym, op) in [
            ("=", BinOp::Eq),
            ("<>", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_sym(sym) {
                let rhs = self.add_expr()?;
                return Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.mul_expr()?;
        loop {
            if self.eat_sym("+") {
                e = e.add(self.mul_expr()?);
            } else if self.eat_sym("-") {
                e = e.sub(self.mul_expr()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        loop {
            if self.eat_sym("*") {
                e = e.mul(self.unary()?);
            } else if self.eat_sym("/") {
                e = e.div(self.unary()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.peek().cloned() {
            Some(Tok::Int(_)) | Some(Tok::Float(_)) | Some(Tok::Str(_)) => {
                Ok(Expr::Lit(self.literal()?))
            }
            Some(Tok::Ident(w)) => {
                if w.eq_ignore_ascii_case("TRUE")
                    || w.eq_ignore_ascii_case("FALSE")
                    || w.eq_ignore_ascii_case("NULL")
                    || w.eq_ignore_ascii_case("DATE")
                {
                    return Ok(Expr::Lit(self.literal()?));
                }
                self.bump();
                Ok(Expr::col(w))
            }
            _ => Err(self.error("expected expression")),
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Str(s)) => Ok(Value::text(s)),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("DATE") => {
                let s = match self.bump() {
                    Some(Tok::Str(s)) => s,
                    _ => return Err(self.error("expected 'YYYY-MM-DD' after DATE")),
                };
                match guava_relational::algebra::cast_text(
                    &s,
                    guava_relational::value::DataType::Date,
                ) {
                    Ok(v) => Ok(v),
                    Err(_) => Err(self.error(format!("invalid date literal '{s}'"))),
                }
            }
            _ => Err(self.error("expected literal")),
        }
    }

    fn at_end(&self) -> bool {
        self.idx == self.tokens.len()
    }
}

/// Parse a single expression; the whole input must be consumed.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = Lexer::new(src).tokens()?;
    let mut p = Parser { tokens, idx: 0 };
    let e = p.expr()?;
    if !p.at_end() {
        return Err(p.error("trailing input after expression"));
    }
    Ok(e)
}

/// Parse a classifier rule `output <- guard`, the paper's `A ← B`.
pub fn parse_rule(src: &str) -> Result<(Expr, Expr), ParseError> {
    let tokens = Lexer::new(src).tokens()?;
    let mut p = Parser { tokens, idx: 0 };
    let output = p.expr()?;
    if !p.eat_sym("<-") {
        return Err(p.error("expected `<-` between output and condition"));
    }
    let guard = p.expr()?;
    if !p.at_end() {
        return Err(p.error("trailing input after rule"));
    }
    Ok((output, guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use guava_relational::prelude::*;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("PacksPerDay", DataType::Int),
                Column::new("TumorX", DataType::Float),
                Column::new("TumorY", DataType::Float),
                Column::new("TumorZ", DataType::Float),
                Column::new("SurgeryPerformed", DataType::Bool),
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure5a_cancer_rules_parse_and_evaluate() {
        // Classifier Habits (Cancer), Figure 5a.
        let rules = [
            ("'None' <- PacksPerDay = 0", 0i64, "None"),
            ("'Light' <- 0 < PacksPerDay AND PacksPerDay < 2", 1, "Light"),
            (
                "'Moderate' <- 2 <= PacksPerDay AND PacksPerDay < 5",
                3,
                "Moderate",
            ),
            ("'Heavy' <- PacksPerDay >= 5", 7, "Heavy"),
        ];
        let s = schema();
        for (text, packs, label) in rules {
            let (out, guard) = parse_rule(text).unwrap();
            let row = vec![
                Value::Int(packs),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ];
            assert!(guard.matches(&s, &row).unwrap(), "guard of {text}");
            assert_eq!(out.eval(&s, &row).unwrap(), Value::text(label));
        }
    }

    #[test]
    fn figure5b_tumor_volume_rule() {
        // "TumorX * TumorY * TumorZ * 0.52 <- TumorX > 0 AND TumorY > 0 AND TumorZ > 0"
        let (out, guard) = parse_rule(
            "TumorX * TumorY * TumorZ * 0.52 <- TumorX > 0 AND TumorY > 0 AND TumorZ > 0",
        )
        .unwrap();
        let s = schema();
        let row = vec![
            Value::Null,
            Value::Float(2.0),
            Value::Float(3.0),
            Value::Float(4.0),
            Value::Null,
        ];
        assert!(guard.matches(&s, &row).unwrap());
        assert_eq!(
            out.eval(&s, &row).unwrap(),
            Value::Float(2.0 * 3.0 * 4.0 * 0.52)
        );
    }

    #[test]
    fn figure5c_entity_rule_shape() {
        let (out, guard) =
            parse_rule("Procedure <- Procedure AND SurgeryPerformed = TRUE").unwrap();
        assert_eq!(out, Expr::col("Procedure"));
        assert_eq!(
            guard.referenced_columns(),
            vec!["Procedure", "SurgeryPerformed"]
        );
    }

    #[test]
    fn unicode_arrow_accepted() {
        let (out, _) = parse_rule("'None' \u{2190} PacksPerDay = 0").unwrap();
        assert_eq!(out, Expr::lit("None"));
        let e = parse_expr("PacksPerDay \u{2264} 5").unwrap();
        assert_eq!(e, Expr::col("PacksPerDay").le(Expr::lit(5i64)));
    }

    #[test]
    fn is_answered_and_null() {
        assert_eq!(
            parse_expr("x IS ANSWERED").unwrap(),
            Expr::col("x").is_not_null()
        );
        assert_eq!(
            parse_expr("x IS NOT ANSWERED").unwrap(),
            Expr::col("x").is_null()
        );
        assert_eq!(parse_expr("x IS NULL").unwrap(), Expr::col("x").is_null());
        assert_eq!(
            parse_expr("x IS NOT NULL").unwrap(),
            Expr::col("x").is_not_null()
        );
    }

    #[test]
    fn in_list_and_literals() {
        let e = parse_expr("status IN ('Current', 'Previous')").unwrap();
        assert_eq!(
            e,
            Expr::col("status").in_list(vec![Value::text("Current"), Value::text("Previous")])
        );
        assert_eq!(parse_expr("NULL").unwrap(), Expr::Lit(Value::Null));
        assert_eq!(
            parse_expr("DATE '2006-03-26'").unwrap(),
            Expr::Lit(Value::date_from_ymd(2006, 3, 26))
        );
    }

    #[test]
    fn precedence_and_parens() {
        // a + b * c parses as a + (b * c)
        let e = parse_expr("1 + 2 * 3").unwrap();
        let s = schema();
        assert_eq!(e.eval(&s, &vec![Value::Null; 5]).unwrap(), Value::Int(7));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.eval(&s, &vec![Value::Null; 5]).unwrap(), Value::Int(9));
        // NOT binds tighter than AND; AND tighter than OR.
        let e = parse_expr("NOT FALSE AND FALSE OR TRUE").unwrap();
        assert_eq!(
            e.eval(&s, &vec![Value::Null; 5]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn string_escaping() {
        let e = parse_expr("'it''s'").unwrap();
        assert_eq!(e, Expr::lit("it's"));
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_expr("x is answered and y = true").is_ok());
        assert!(parse_expr("x In (1, 2)").is_ok());
    }

    #[test]
    fn negative_numbers_and_unary_minus() {
        let s = schema();
        let e = parse_expr("-3 + 5").unwrap();
        assert_eq!(e.eval(&s, &vec![Value::Null; 5]).unwrap(), Value::Int(2));
        let e = parse_expr("PacksPerDay > -1").unwrap();
        let row = vec![
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        assert!(e.matches(&s, &row).unwrap());
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_expr("1 + ").unwrap_err();
        assert!(err.message.contains("expected expression"));
        let err = parse_rule("'x' PacksPerDay = 0").unwrap_err();
        assert!(err.message.contains("<-"));
        assert!(parse_expr("x IS BANANA").is_err());
        assert!(parse_expr("'unterminated").is_err());
        assert!(parse_expr("1 2").is_err(), "trailing input rejected");
        assert!(parse_expr("DATE '2006-13-99'").is_err());
    }

    #[test]
    fn division_parses() {
        let s = schema();
        let e = parse_expr("7 / 2").unwrap();
        assert_eq!(
            e.eval(&s, &vec![Value::Null; 5]).unwrap(),
            Value::Float(3.5)
        );
    }
}
