//! Scalar expressions over rows: the building blocks of selections and
//! projections, and the evaluation target of the MultiClass classifier
//! language (each classifier rule compiles into a pair of these).

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary operators. Comparison and logic follow SQL three-valued semantics:
/// a NULL operand yields NULL, which a selection treats as "not satisfied".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a column of the input schema, by name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation (three-valued: NOT NULL = NULL).
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL` — what the classifier language spells `IS ANSWERED`.
    IsNotNull(Box<Expr>),
    /// `expr IN (v1, v2, ...)` over literal values.
    InList(Box<Expr>, Vec<Value>),
    /// `COALESCE(e1, e2, ...)`: first non-null argument.
    Coalesce(Vec<Expr>),
    /// Searched CASE: first arm whose condition is true; else the default.
    Case {
        arms: Vec<(Expr, Expr)>,
        default: Box<Expr>,
    },
}

#[allow(clippy::should_implement_trait)] // SQL-style builder DSL: add/sub/mul/div/not are deliberate
impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(self), Box::new(rhs))
    }

    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Ne, Box::new(self), Box::new(rhs))
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Le, Box::new(self), Box::new(rhs))
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Gt, Box::new(self), Box::new(rhs))
    }

    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Ge, Box::new(self), Box::new(rhs))
    }

    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(self), Box::new(rhs))
    }

    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(self), Box::new(rhs))
    }

    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }

    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }

    /// All column names referenced by this expression, in first-seen order.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk_columns(&mut |c| {
            if !out.contains(&c) {
                out.push(c);
            }
        });
        out
    }

    fn walk_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Col(c) => f(c),
            Expr::Lit(_) => {}
            Expr::Bin(_, a, b) => {
                a.walk_columns(f);
                b.walk_columns(f);
            }
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => e.walk_columns(f),
            Expr::InList(e, _) => e.walk_columns(f),
            Expr::Coalesce(es) => es.iter().for_each(|e| e.walk_columns(f)),
            Expr::Case { arms, default } => {
                for (c, v) in arms {
                    c.walk_columns(f);
                    v.walk_columns(f);
                }
                default.walk_columns(f);
            }
        }
    }

    /// Rewrite every column reference through `map` (used when plan rewrites
    /// rename naïve-schema columns into physical ones).
    pub fn map_columns(&self, map: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(map(c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.map_columns(map)),
                Box::new(b.map_columns(map)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(map))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_columns(map))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_columns(map))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(e.map_columns(map))),
            Expr::InList(e, vs) => Expr::InList(Box::new(e.map_columns(map)), vs.clone()),
            Expr::Coalesce(es) => Expr::Coalesce(es.iter().map(|e| e.map_columns(map)).collect()),
            Expr::Case { arms, default } => Expr::Case {
                arms: arms
                    .iter()
                    .map(|(c, v)| (c.map_columns(map), v.map_columns(map)))
                    .collect(),
                default: Box::new(default.map_columns(map)),
            },
        }
    }

    /// Evaluate against a row of the given schema.
    pub fn eval(&self, schema: &Schema, row: &[Value]) -> RelResult<Value> {
        match self {
            Expr::Col(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| RelError::UnknownColumn {
                        table: schema.name.clone(),
                        column: name.clone(),
                    })?;
                Ok(row[idx].clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Bin(op, a, b) => {
                let l = a.eval(schema, row)?;
                // Short-circuit three-valued AND/OR so the other operand's
                // errors (e.g. unknown columns in dead branches) still
                // surface but FALSE AND NULL = FALSE per SQL.
                match op {
                    BinOp::And | BinOp::Or => {
                        let r = b.eval(schema, row)?;
                        return eval_logic(*op, &l, &r);
                    }
                    _ => {}
                }
                let r = b.eval(schema, row)?;
                eval_bin(*op, &l, &r)
            }
            Expr::Not(e) => match e.eval(schema, row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                v => Err(RelError::Eval(format!("NOT applied to non-boolean {v}"))),
            },
            Expr::Neg(e) => match e.eval(schema, row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                v => Err(RelError::Eval(format!("unary - applied to {v}"))),
            },
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(schema, row)?.is_null())),
            Expr::IsNotNull(e) => Ok(Value::Bool(!e.eval(schema, row)?.is_null())),
            Expr::InList(e, vs) => {
                let v = e.eval(schema, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(vs.iter().any(|w| v.sql_eq(w) == Some(true))))
            }
            Expr::Coalesce(es) => {
                for e in es {
                    let v = e.eval(schema, row)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Value::Null)
            }
            Expr::Case { arms, default } => {
                for (cond, out) in arms {
                    if cond.eval(schema, row)? == Value::Bool(true) {
                        return out.eval(schema, row);
                    }
                }
                default.eval(schema, row)
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as "not satisfied" (SQL WHERE).
    pub fn matches(&self, schema: &Schema, row: &[Value]) -> RelResult<bool> {
        match self.eval(schema, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            v => Err(RelError::Eval(format!(
                "predicate evaluated to non-boolean {v}"
            ))),
        }
    }

    /// The one judgement plan rewrites rest on ([`mod@crate::optimize`]): over
    /// *every* row valid for `schema`, does this expression evaluate
    /// without an error **and** to a value its own [`Expr::infer_type`]
    /// accepts — so that neither `eval` nor the projection's row check
    /// can fail, and not evaluating it at all hides nothing?
    ///
    /// Deliberately conservative: a bound column, a literal, `=`/`<>` and
    /// the NULL tests over such operands (SQL equality never raises), and
    /// a `CASE` over them whose branch types agree — the shapes pattern
    /// decodes emit (`BoolEncode`, `NullSentinel`, `Lookup`). Ordering
    /// comparisons, arithmetic and the logic operators can all raise on
    /// some input and answer `false`; so does a `CASE` whose branches fall
    /// back to TEXT, because its values then fail the row check.
    pub fn infallible(&self, schema: &Schema) -> bool {
        match self {
            Expr::Col(name) => schema.index_of(name).is_some(),
            Expr::Lit(_) => true,
            Expr::Bin(BinOp::Eq | BinOp::Ne, a, b) => a.infallible(schema) && b.infallible(schema),
            Expr::IsNull(e) | Expr::IsNotNull(e) => e.infallible(schema),
            Expr::Case { arms, default } => {
                let mut ty = Some(None);
                for v in arms.iter().map(|(_, v)| v).chain([&**default]) {
                    let Ok(t) = v.infer_type_opt(schema) else {
                        return false;
                    };
                    ty = ty.and_then(|ty| unify_exact(ty, t));
                }
                ty.is_some()
                    && arms
                        .iter()
                        .all(|(c, v)| c.infallible(schema) && v.infallible(schema))
                    && default.infallible(schema)
            }
            _ => false,
        }
    }

    /// Static result type against a schema, used to build projected schemas.
    /// Conservative: arithmetic over two Ints is Int, any Float makes Float.
    /// Expressions that can only produce NULL fall back to Text.
    pub fn infer_type(&self, schema: &Schema) -> RelResult<DataType> {
        Ok(self.infer_type_opt(schema)?.unwrap_or(DataType::Text))
    }

    /// Like [`Expr::infer_type`] but `None` for expressions whose type is
    /// undetermined (bare NULL literals). CASE/COALESCE take the first
    /// branch with a determined type, so `CASE WHEN p THEN NULL ELSE col
    /// END` correctly types as `col`'s type.
    fn infer_type_opt(&self, schema: &Schema) -> RelResult<Option<DataType>> {
        Ok(match self {
            Expr::Col(name) => Some(schema.column(name)?.data_type),
            Expr::Lit(v) => v.data_type(),
            Expr::Bin(op, a, b) => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let (ta, tb) = (a.infer_type_opt(schema)?, b.infer_type_opt(schema)?);
                    match (ta, tb) {
                        (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                        _ => Some(DataType::Float),
                    }
                }
                BinOp::Div => Some(DataType::Float),
                _ => Some(DataType::Bool),
            },
            Expr::Not(_) | Expr::IsNull(_) | Expr::IsNotNull(_) | Expr::InList(..) => {
                Some(DataType::Bool)
            }
            Expr::Neg(e) => e.infer_type_opt(schema)?,
            Expr::Coalesce(es) => {
                let mut ty = None;
                for e in es {
                    ty = unify_types(ty, e.infer_type_opt(schema)?);
                }
                ty
            }
            Expr::Case { arms, default } => {
                let mut ty = None;
                for (_, v) in arms {
                    ty = unify_types(ty, v.infer_type_opt(schema)?);
                }
                unify_types(ty, default.infer_type_opt(schema)?)
            }
        })
    }
}

/// Unify branch types of CASE/COALESCE: identical types keep theirs,
/// Int/Float widens to Float (Float columns accept Int values), NULL-only
/// branches are transparent, anything else falls back to Text.
fn unify_types(a: Option<DataType>, b: Option<DataType>) -> Option<DataType> {
    unify_exact(a, b).unwrap_or(Some(DataType::Text))
}

/// [`unify_types`] without the fallback: `None` where the branch types do
/// not agree — where the unified column is TEXT and a branch's value is not.
fn unify_exact(a: Option<DataType>, b: Option<DataType>) -> Option<Option<DataType>> {
    match (a, b) {
        (None, t) | (t, None) => Some(t),
        (Some(x), Some(y)) if x == y => Some(Some(x)),
        (Some(DataType::Int), Some(DataType::Float))
        | (Some(DataType::Float), Some(DataType::Int)) => Some(Some(DataType::Float)),
        _ => None,
    }
}

/// Three-valued AND/OR over two already-evaluated operands.
fn eval_logic(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    let (a, b) = (l.as_bool(), r.as_bool());
    if (!l.is_null() && a.is_none()) || (!r.is_null() && b.is_none()) {
        return Err(RelError::Eval(format!(
            "{} applied to non-boolean",
            op.symbol()
        )));
    }
    Ok(match op {
        BinOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!(),
    })
}

/// Evaluate one binary operator over two already-evaluated operands. This
/// single function defines the scalar semantics (null propagation, wrapping
/// integer arithmetic, Int/Int division to Float, error messages).
fn eval_bin(op: BinOp, l: &Value, r: &Value) -> RelResult<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic stays integral except division.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return match op {
                    Add => Ok(Value::Int(a.wrapping_add(*b))),
                    Sub => Ok(Value::Int(a.wrapping_sub(*b))),
                    Mul => Ok(Value::Int(a.wrapping_mul(*b))),
                    Div if *b == 0 => Err(RelError::Eval("division by zero".into())),
                    Div => Ok(Value::Float(*a as f64 / *b as f64)),
                    _ => unreachable!(),
                };
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(RelError::Eval(format!(
                        "arithmetic {} over non-numeric operands {l} and {r}",
                        op.symbol()
                    )))
                }
            };
            match op {
                Add => Ok(Value::Float(a + b)),
                Sub => Ok(Value::Float(a - b)),
                Mul => Ok(Value::Float(a * b)),
                Div if b == 0.0 => Err(RelError::Eval("division by zero".into())),
                Div => Ok(Value::Float(a / b)),
                _ => unreachable!(),
            }
        }
        Eq => Ok(l.sql_eq(r).map_or(Value::Null, Value::Bool)),
        Ne => Ok(l.sql_eq(r).map_or(Value::Null, |b| Value::Bool(!b))),
        Lt | Le | Gt | Ge => {
            let ord = match l.sql_cmp(r) {
                Some(o) => o,
                None if l.is_null() || r.is_null() => return Ok(Value::Null),
                None => {
                    return Err(RelError::Eval(format!(
                        "cannot compare {l} {} {r}",
                        op.symbol()
                    )))
                }
            };
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        And | Or => eval_logic(op, l, r),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => f.write_str(c),
            Expr::Lit(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            Expr::InList(e, vs) => {
                write!(f, "({e} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    match v {
                        Value::Text(s) => write!(f, "'{s}'")?,
                        v => write!(f, "{v}")?,
                    }
                }
                f.write_str("))")
            }
            Expr::Coalesce(es) => {
                f.write_str("COALESCE(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::Case { arms, default } => {
                f.write_str("CASE")?;
                for (c, v) in arms {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                write!(f, " ELSE {default} END")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("packs", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("smoker", DataType::Bool),
                Column::new("weight", DataType::Float),
            ],
        )
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(2),
            Value::text("ada"),
            Value::Bool(true),
            Value::Float(61.5),
        ]
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = schema();
        let e = Expr::col("packs").mul(Expr::lit(3i64)).ge(Expr::lit(6i64));
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Bool(true));
        let e = Expr::col("weight").add(Expr::col("packs"));
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Float(63.5));
    }

    #[test]
    fn int_division_produces_float() {
        let s = schema();
        let e = Expr::lit(5i64).div(Expr::lit(2i64));
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let s = schema();
        assert!(Expr::lit(1i64)
            .div(Expr::lit(0i64))
            .eval(&s, &row())
            .is_err());
        assert!(Expr::lit(1.0).div(Expr::lit(0.0)).eval(&s, &row()).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let null = Expr::Lit(Value::Null);
        // FALSE AND NULL = FALSE; TRUE AND NULL = NULL
        assert_eq!(
            Expr::lit(false).and(null.clone()).eval(&s, &row()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::lit(true).and(null.clone()).eval(&s, &row()).unwrap(),
            Value::Null
        );
        // TRUE OR NULL = TRUE
        assert_eq!(
            Expr::lit(true).or(null.clone()).eval(&s, &row()).unwrap(),
            Value::Bool(true)
        );
        // NULL comparisons are NULL, and matches() treats that as false.
        let cmp = null.clone().eq(Expr::lit(1i64));
        assert_eq!(cmp.eval(&s, &row()).unwrap(), Value::Null);
        assert!(!cmp.matches(&s, &row()).unwrap());
    }

    #[test]
    fn in_list_semantics() {
        let s = schema();
        let e = Expr::col("name").in_list(vec![Value::text("ada"), Value::text("bob")]);
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Bool(true));
        let e = Expr::Lit(Value::Null).in_list(vec![Value::Int(1)]);
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::Null);
    }

    #[test]
    fn case_and_coalesce() {
        let s = schema();
        let e = Expr::Case {
            arms: vec![
                (Expr::col("packs").eq(Expr::lit(0i64)), Expr::lit("None")),
                (Expr::col("packs").lt(Expr::lit(2i64)), Expr::lit("Light")),
            ],
            default: Box::new(Expr::lit("Heavy")),
        };
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::text("Heavy"));
        let e = Expr::Coalesce(vec![Expr::Lit(Value::Null), Expr::col("name")]);
        assert_eq!(e.eval(&s, &row()).unwrap(), Value::text("ada"));
    }

    #[test]
    fn is_answered_maps_to_is_not_null() {
        let s = schema();
        assert_eq!(
            Expr::col("packs").is_not_null().eval(&s, &row()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::Lit(Value::Null)
                .is_not_null()
                .eval(&s, &row())
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn referenced_columns_deduped_in_order() {
        let e = Expr::col("a").add(Expr::col("b")).mul(Expr::col("a"));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }

    #[test]
    fn map_columns_rewrites_refs() {
        let e = Expr::col("x").eq(Expr::lit(1i64));
        let m = e.map_columns(&|c| format!("t_{c}"));
        assert_eq!(m.referenced_columns(), vec!["t_x"]);
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            Expr::col("packs")
                .add(Expr::lit(1i64))
                .infer_type(&s)
                .unwrap(),
            DataType::Int
        );
        assert_eq!(
            Expr::col("packs")
                .add(Expr::col("weight"))
                .infer_type(&s)
                .unwrap(),
            DataType::Float
        );
        assert_eq!(
            Expr::col("packs")
                .eq(Expr::lit(1i64))
                .infer_type(&s)
                .unwrap(),
            DataType::Bool
        );
    }

    #[test]
    fn infallible_is_conservative_and_sound() {
        let s = schema();
        let case = |arms: Vec<(Expr, Expr)>, default: Expr| Expr::Case {
            arms,
            default: Box::new(default),
        };
        let yes = [
            Expr::col("packs"),
            Expr::lit(3i64),
            Expr::Lit(Value::Null),
            Expr::col("name").eq(Expr::lit(7i64)), // cross-type equality is just FALSE
            Expr::col("packs").is_null(),
            // BoolEncode's decode, and NullSentinel's.
            case(
                vec![
                    (Expr::col("name").eq(Expr::lit("Y")), Expr::lit(true)),
                    (Expr::col("name").eq(Expr::lit("N")), Expr::lit(false)),
                ],
                Expr::Lit(Value::Null),
            ),
            case(
                vec![(
                    Expr::col("packs").eq(Expr::lit(-9i64)),
                    Expr::Lit(Value::Null),
                )],
                Expr::col("packs"),
            ),
            // INT widens into a FLOAT column.
            case(
                vec![(Expr::col("smoker"), Expr::col("packs"))],
                Expr::col("weight"),
            ),
        ];
        for e in &yes {
            assert!(e.infallible(&s), "{e}");
            // ...which its evaluation and its own inferred type bear out.
            let v = e.eval(&s, &row()).unwrap();
            Column::new("c", e.infer_type(&s).unwrap())
                .check(&v)
                .unwrap();
        }
        let no = [
            Expr::col("ghost"),
            Expr::col("packs").lt(Expr::lit("x")), // incomparable: raises
            Expr::lit(100i64).div(Expr::col("packs")),
            Expr::col("name").not(),
            Expr::col("smoker").and(Expr::col("name")),
            // Branch types fall back to TEXT: the INT value fails the row check.
            case(
                vec![(Expr::col("smoker"), Expr::col("packs"))],
                Expr::col("name"),
            ),
            case(
                vec![(Expr::col("packs").gt(Expr::lit(1i64)), Expr::lit(1i64))],
                Expr::lit(0i64),
            ),
        ];
        for e in &no {
            assert!(!e.infallible(&s), "{e}");
        }
    }

    #[test]
    fn display_roundtrips_shape() {
        let e = Expr::col("packs")
            .ge(Expr::lit(2i64))
            .and(Expr::col("smoker"));
        assert_eq!(e.to_string(), "((packs >= 2) AND smoker)");
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(matches!(
            Expr::col("nope").eval(&s, &row()),
            Err(RelError::UnknownColumn { .. })
        ));
    }
}
