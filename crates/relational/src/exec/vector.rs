//! `column ⟨op⟩ literal` on sealed segments: the one place that knows what
//! such a conjunct means — for zone-map pruning, for fallibility, and for
//! evaluation — and the window walk of the fused pipeline built on it.
//!
//! The leading `Select` stages of a fused pipeline are decomposed once
//! ([`prune_groups`]) into groups of [`SimplePred`] conjuncts, one group
//! per stage, as far as the stages decompose. A scan leaf skips whole
//! segments with them ([`segment_pruned`]); the pipeline evaluates them
//! over each surviving window slice as **lane masks** ([`run_window`]):
//! one typed loop per conjunct straight over the segment's column storage
//! at the slice's offset, reading only the columns the conjuncts name,
//! dead rows included (they cannot fail, and the segment images them).
//! When the masks resolve every stage, the window goes on as itself with
//! the rows they dropped marked dead ([`drop_rows`]), and no row is
//! copied. Everything else — filters that do not decompose, every `Map`,
//! every stage behind one — walks the selected live rows **in row order**
//! through `Expr::eval`, stopping at the first error.
//!
//! # Error parity
//!
//! A group runs on lanes only when every conjunct is
//! [`SimplePred::infallible_on`] the segment and its literal shares the
//! column's storage domain, so the mask phase can neither raise an error
//! nor hide one; the first group that refuses ends the lane phase, exactly
//! as it ends pruning, and its stage is walked with the rest. Everything
//! fallible therefore runs row by row, each row through *all* remaining
//! stages before the next: the error reported is the one the first failing
//! row raises (first-error-in-row-order, DESIGN.md §10), by construction —
//! which is also what lets serial slices and morsel workers share this one
//! driver.

use super::{apply_stages_ref, Stage};
use crate::algebra::resolve_column;
use crate::error::RelResult;
use crate::expr::{BinOp, Expr};
use crate::schema::Schema;
use crate::segment::{is_dead, live_count, no_dead, ColumnData, Segment, Window};
use crate::table::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// One filter conjunct in `column ⟨op⟩ literal` form, extracted from a
/// fused [`Stage::Filter`].
#[derive(Debug, Clone)]
pub(super) struct SimplePred {
    col: usize,
    op: PredOp,
    lit: Value,
}

/// Comparison shape of a [`SimplePred`], normalized to `column ⟨op⟩ lit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    IsNull,
    IsNotNull,
}

impl PredOp {
    fn from_bin(op: BinOp) -> Option<PredOp> {
        match op {
            BinOp::Eq => Some(PredOp::Eq),
            BinOp::Ne => Some(PredOp::Ne),
            BinOp::Lt => Some(PredOp::Lt),
            BinOp::Le => Some(PredOp::Le),
            BinOp::Gt => Some(PredOp::Gt),
            BinOp::Ge => Some(PredOp::Ge),
            _ => None,
        }
    }

    /// Mirror the comparison for `lit ⟨op⟩ column` sources.
    fn flip(self) -> PredOp {
        match self {
            PredOp::Lt => PredOp::Gt,
            PredOp::Le => PredOp::Ge,
            PredOp::Gt => PredOp::Lt,
            PredOp::Ge => PredOp::Le,
            other => other,
        }
    }

    /// `=` and `<>` compare through [`Value::sql_eq`]; the other four
    /// through [`Value::sql_cmp`], which orders numbers differently.
    fn is_equality(self) -> bool {
        matches!(self, PredOp::Eq | PredOp::Ne)
    }

    /// Does a non-null column value that compares `ord` to the literal
    /// satisfy this comparison? (The NULL tests never get here.)
    fn holds(self, ord: Ordering) -> bool {
        match self {
            PredOp::Eq => ord.is_eq(),
            PredOp::Ne => ord.is_ne(),
            PredOp::Lt => ord.is_lt(),
            PredOp::Le => ord.is_le(),
            PredOp::Gt => ord.is_gt(),
            PredOp::Ge => ord.is_ge(),
            PredOp::IsNull | PredOp::IsNotNull => unreachable!("NULL tests read the null mask"),
        }
    }
}

/// The comparison domain of a segment column or literal under
/// [`Value::sql_cmp`]: ordering comparisons across different domains (or
/// against NaN) are the exact cases where the row walk raises "cannot
/// compare", so pruning demands a domain match first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpDomain {
    Numeric,
    Text,
    Bool,
    Date,
}

impl SimplePred {
    /// Could evaluating this predicate over the rows a scan emits from
    /// this segment raise an error? Equality and null tests never error.
    /// Ordering comparisons error exactly when both sides are non-null
    /// and incomparable, so they are infallible when the literal is NULL,
    /// when the column is all-NULL, or when both sides share a
    /// [`CmpDomain`] with no NaN on either side. Pruning must never skip
    /// a segment the real scan would have errored on — a prune group with
    /// any fallible conjunct disqualifies the whole segment from skipping
    /// — and a lane mask must never swallow the error either.
    ///
    /// The segment describes a **superset** of the emitted rows (rows
    /// deleted since the seal stay in it — see the zone-map contract in
    /// [`crate::segment`]). Each test above is universal over the sealed
    /// rows — *every* row NULL, *no* value NaN, *all* values of one
    /// storage domain — so it holds for any subset; a deleted NaN or a
    /// deleted non-NULL row can only turn a `true` into a `false`, i.e.
    /// make pruning (and the lane phase) refuse.
    fn infallible_on(&self, seg: &Segment) -> bool {
        match self.op {
            PredOp::Eq | PredOp::Ne | PredOp::IsNull | PredOp::IsNotNull => true,
            PredOp::Lt | PredOp::Le | PredOp::Gt | PredOp::Ge => {
                if self.lit.is_null() {
                    return true;
                }
                let col = seg.column(self.col);
                let zone = col.zone();
                if zone.null_count == seg.len() {
                    return true;
                }
                let col_dom = match col.data {
                    // `Mixed` only arises from INTs widened into a
                    // declared-FLOAT column (schema validation rejects
                    // everything else), so it is numeric storage too.
                    ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Mixed(_) => {
                        CmpDomain::Numeric
                    }
                    ColumnData::Str(_) | ColumnData::Dict { .. } => CmpDomain::Text,
                    ColumnData::Bool(_) => CmpDomain::Bool,
                    ColumnData::Date(_) => CmpDomain::Date,
                };
                let lit_dom = match &self.lit {
                    Value::Int(_) | Value::Float(_) => CmpDomain::Numeric,
                    Value::Text(_) => CmpDomain::Text,
                    Value::Bool(_) => CmpDomain::Bool,
                    Value::Date(_) => CmpDomain::Date,
                    Value::Null => unreachable!("handled above"),
                };
                let lit_nan = matches!(self.lit, Value::Float(f) if f.is_nan());
                col_dom == lit_dom && !zone.has_nan && !lit_nan
            }
        }
    }

    /// Does the zone map prove no row of the segment satisfies this
    /// predicate? Sound against the row walk because the zone min/max
    /// are [`Value::total_cmp`] extrema and every trigger below uses the
    /// same [`Value::sql_cmp`] the rows are evaluated with: a strict
    /// `lit < min` (resp. `> max`) rules out `sql_eq` matches, and by the
    /// time ordering arms run, [`Self::infallible_on`] has excluded NaN
    /// and cross-domain cases, where `sql_cmp` and the total order could
    /// disagree. Lossy `i64`→`f64` literals stay sound: evaluation
    /// compares through the same lossy `sql_cmp`, and `sql_eq`'s exact
    /// Int–Int equality implies `f64` equality, which a strict `sql_cmp`
    /// inequality excludes.
    ///
    /// Sound over a superset, arm by arm (the scan emits a subset of the
    /// sealed rows): `IS NULL` skips when *no* sealed row is NULL and
    /// `IS NOT NULL` when *every* sealed row is — both survive removing
    /// rows; the all-NULL shortcut likewise; and the ordering and equality
    /// arms compare the literal against `min`/`max`, which bracket the
    /// sealed values and hence the live ones — a bound that rules the
    /// literal out for more rows rules it out for fewer. Deleting the row
    /// that *was* the minimum only leaves the bound looser than it could
    /// be, so a prune may be missed, never wrongly taken.
    fn proves_empty(&self, seg: &Segment) -> bool {
        use Ordering::{Equal, Greater, Less};
        let zone = seg.zone(self.col);
        match self.op {
            PredOp::IsNull => zone.null_count == 0,
            PredOp::IsNotNull => zone.null_count == seg.len(),
            // A NULL literal makes every comparison NULL: no row passes.
            _ if self.lit.is_null() => true,
            // An all-NULL column likewise.
            _ if zone.null_count == seg.len() => true,
            PredOp::Eq => {
                self.lit.sql_cmp(&zone.min) == Some(Less)
                    || self.lit.sql_cmp(&zone.max) == Some(Greater)
            }
            PredOp::Ne => false,
            PredOp::Lt => matches!(zone.min.sql_cmp(&self.lit), Some(Equal | Greater)),
            PredOp::Le => zone.min.sql_cmp(&self.lit) == Some(Greater),
            PredOp::Gt => matches!(zone.max.sql_cmp(&self.lit), Some(Less | Equal)),
            PredOp::Ge => zone.max.sql_cmp(&self.lit) == Some(Less),
        }
    }

    /// AND this conjunct into `sel`, a selection over segment rows
    /// `off .. off + sel.len()`: row `i` stays selected iff
    /// `Expr::matches` would accept it (NULL counts as not satisfied).
    /// Returns `false` — `sel` is then unspecified — when the column's
    /// storage and the literal do not share a domain (`Mixed` storage
    /// shares none), which leaves the stage to the row walk. The caller
    /// has checked [`Self::infallible_on`], so an ordering comparison
    /// meets no NaN here.
    ///
    /// Each arm mirrors the `Value` comparison the row walk performs:
    /// equality is [`Value::sql_eq`] (exact Int–Int, `f64::total_cmp` as
    /// soon as a FLOAT is involved, so NaN equals NaN and `-0.0 <> 0.0`),
    /// ordering is [`Value::sql_cmp`] (*every* numeric pair, Int–Int
    /// included, through `f64::partial_cmp`). A text literal is ranked
    /// once per dictionary entry, not once per row.
    fn and_mask(&self, seg: &Segment, off: usize, sel: &mut [bool]) -> bool {
        let col = seg.column(self.col);
        let window = off..off + sel.len();
        let nulls = &col.nulls[window.clone()];
        let op = self.op;
        // The NULL tests read the null mask, whatever the storage.
        if let PredOp::IsNull | PredOp::IsNotNull = op {
            let want = op == PredOp::IsNull;
            for (s, null) in sel.iter_mut().zip(nulls) {
                *s &= *null == want;
            }
            return true;
        }
        let num = |a: f64, b: f64| {
            if op.is_equality() {
                Some(a.total_cmp(&b))
            } else {
                a.partial_cmp(&b)
            }
        };
        match (&col.data, &self.lit, self.lit.as_f64()) {
            // A NULL literal makes every comparison NULL: no row passes.
            (_, Value::Null, _) => sel.fill(false),
            (ColumnData::Int(v), Value::Int(c), _) if op.is_equality() => {
                and_cmp(sel, nulls, &v[window], op, |v| Some(v.cmp(c)))
            }
            (ColumnData::Int(v), _, Some(c)) => {
                and_cmp(sel, nulls, &v[window], op, |v| num(*v as f64, c))
            }
            (ColumnData::Float(v), _, Some(c)) => {
                and_cmp(sel, nulls, &v[window], op, |v| num(*v, c))
            }
            (ColumnData::Bool(v), Value::Bool(c), _) => {
                and_cmp(sel, nulls, &v[window], op, |v| Some(v.cmp(c)))
            }
            (ColumnData::Date(v), Value::Date(c), _) => {
                and_cmp(sel, nulls, &v[window], op, |v| Some(v.cmp(c)))
            }
            (ColumnData::Str(v), Value::Text(c), _) => {
                and_cmp(sel, nulls, &v[window], op, |v| Some(v.cmp(c)))
            }
            (ColumnData::Dict { codes, dict }, Value::Text(c), _) => {
                let ords: Vec<Ordering> = dict.iter().map(|s| s.cmp(c)).collect();
                and_cmp(sel, nulls, &codes[window], op, |code| {
                    Some(ords[*code as usize])
                })
            }
            _ => return false,
        }
        true
    }
}

/// `sel[i] &&=` row `i` is non-null and `cmp`ares to the literal the way
/// `op` asks. Null rows hold a placeholder (and, in a dictionary column,
/// a code its dictionary may not have), so the mask is tested before the
/// value.
fn and_cmp<T>(
    sel: &mut [bool],
    nulls: &[bool],
    vals: &[T],
    op: PredOp,
    cmp: impl Fn(&T) -> Option<Ordering>,
) {
    for ((s, null), v) in sel.iter_mut().zip(nulls).zip(vals) {
        *s = *s && !null && cmp(v).is_some_and(|ord| op.holds(ord));
    }
}

/// Extract the conjunct groups of the leading fused filters: one group
/// per [`Stage::Filter`] whose predicate fully decomposes into simple
/// `column ⟨op⟩ literal` conjuncts, so group `k` is stage `k`. Extraction
/// stops at the first `Map` or non-decomposable filter — a later group may
/// only skip rows that every earlier stage is known not to error on, and
/// an opaque stage voids that guarantee.
pub(super) fn prune_groups(stages: &[Stage]) -> Vec<Vec<SimplePred>> {
    let mut groups = Vec::new();
    for stage in stages {
        let Stage::Filter { predicate, schema } = stage else {
            break;
        };
        let mut group = Vec::new();
        if !decompose(predicate, schema, &mut group) {
            break;
        }
        groups.push(group);
    }
    groups
}

/// Flatten `e` into simple conjuncts, returning `false` (partial pushes
/// to `out` discarded by the caller) when any part is not of the
/// `column ⟨op⟩ literal` / `column IS [NOT] NULL` shape. The only function
/// that turns an `Expr` into a lane-evaluable form.
fn decompose(e: &Expr, schema: &Schema, out: &mut Vec<SimplePred>) -> bool {
    let simple_col = |e: &Expr| match e {
        Expr::Col(name) => resolve_column(schema, name).ok(),
        _ => None,
    };
    match e {
        Expr::Bin(BinOp::And, a, b) => decompose(a, schema, out) && decompose(b, schema, out),
        Expr::Bin(op, a, b) => {
            let Some(op) = PredOp::from_bin(*op) else {
                return false;
            };
            let (col, op, lit) = match (&**a, &**b) {
                (col_e, Expr::Lit(v)) => match simple_col(col_e) {
                    Some(c) => (c, op, v),
                    None => return false,
                },
                (Expr::Lit(v), col_e) => match simple_col(col_e) {
                    Some(c) => (c, op.flip(), v),
                    None => return false,
                },
                _ => return false,
            };
            out.push(SimplePred {
                col,
                op,
                lit: lit.clone(),
            });
            true
        }
        Expr::IsNull(inner) => match simple_col(inner) {
            Some(col) => {
                out.push(SimplePred {
                    col,
                    op: PredOp::IsNull,
                    lit: Value::Null,
                });
                true
            }
            None => false,
        },
        Expr::IsNotNull(inner) => match simple_col(inner) {
            Some(col) => {
                out.push(SimplePred {
                    col,
                    op: PredOp::IsNotNull,
                    lit: Value::Null,
                });
                true
            }
            None => false,
        },
        _ => false,
    }
}

/// Can the scan skip `seg` entirely? Groups are consulted in stage order:
/// a group may prove the segment empty only if it — and every group
/// before it — is infallible on the segment, because skipped rows also
/// skip the errors later fused stages might have raised on them. Pruned
/// segments therefore contribute neither rows nor errors, exactly like
/// the unpruned run.
pub(super) fn segment_pruned(seg: &Segment, groups: &[Vec<SimplePred>]) -> bool {
    for group in groups {
        if group.iter().any(|p| !p.infallible_on(seg)) {
            return false;
        }
        if group.iter().any(|p| p.proves_empty(seg)) {
            return true;
        }
    }
    false
}

/// Evaluate the leading `groups` over segment rows `off .. off + n` as
/// lane masks. Returns the selection and how many groups — hence how many
/// leading stages — it accounts for: the first group with a conjunct that
/// is fallible on the segment or whose literal is foreign to the column's
/// storage ends the lane phase with the selection as the groups before it
/// left it, and its stage evaluates every selected row itself (`AND` does
/// not short-circuit, so no conjunct of a refused group may have dropped
/// a row).
fn lane_select(
    groups: &[Vec<SimplePred>],
    seg: &Segment,
    off: usize,
    n: usize,
) -> (Vec<bool>, usize) {
    let mut sel = vec![true; n];
    let mut done = 0;
    for group in groups {
        let mut next = sel.clone();
        let on_lanes = group
            .iter()
            .all(|p| p.infallible_on(seg) && p.and_mask(seg, off, &mut next));
        if !on_lanes {
            break;
        }
        sel = next;
        done += 1;
    }
    (sel, done)
}

/// What one slice of a shared window made.
pub(super) enum Sliced {
    /// The lane masks accounted for every stage: the rows of the slice
    /// from `lo` on that they dropped, bit `i` for row `lo + i`, which the
    /// window hands on as dead bits.
    Dropped { lo: usize, bits: Vec<u64> },
    /// The rows that survived the row walk.
    Rows(Vec<Row>),
}

/// Run the fused `stages` over rows `lo..hi` of the shared window `w` and
/// return what that slice made, or the error of the first failing row.
/// `groups` are [`prune_groups`] of `stages`. Serial slices and parallel
/// morsels both call this, so the morsel merge rules apply unchanged.
///
/// The lane masks run over every row of the slice, dead ones included —
/// they cannot fail, and the segment images those rows too. When they
/// accounted for every stage, nothing is copied: the slice reports the
/// rows they dropped as packed bits. Whether they do depends only on the
/// segment, so every slice of one window ends the same way. Otherwise the selected live rows walk
/// the remaining stages in row order.
pub(super) fn run_window(
    stages: &[Stage],
    groups: &[Vec<SimplePred>],
    w: &Window,
    lo: usize,
    hi: usize,
) -> RelResult<Sliced> {
    let (sel, done) = lane_select(groups, &w.seg, lo, hi - lo);
    if done == stages.len() {
        let mut bits = vec![0u64; sel.len().div_ceil(64)];
        for (i, keep) in sel.iter().enumerate() {
            bits[i / 64] |= u64::from(!keep) << (i % 64);
        }
        return Ok(Sliced::Dropped { lo, bits });
    }
    let (rows, rest) = (w.seg.rows(), &stages[done..]);
    let mut out = Vec::new();
    for (k, _) in (lo..hi)
        .zip(sel)
        .filter(|&(k, keep)| keep && !is_dead(w.dead(), k))
    {
        out.extend(apply_stages_ref(rest, &rows[k])?);
    }
    Ok(Sliced::Rows(out))
}

/// `w` with the rows its slices dropped ([`Sliced::Dropped`]) dead, or
/// none when no row is left. A window that lost no live row keeps its own
/// dead bits.
pub(super) fn drop_rows(w: Window, slices: Vec<(usize, Vec<u64>)>) -> Option<Window> {
    let mut dead = w.dead().map_or_else(|| no_dead(w.seg.len()), Box::from);
    for (lo, bits) in slices {
        let (first, shift) = (lo / 64, lo % 64);
        for (j, word) in bits.into_iter().enumerate() {
            dead[first + j] |= word << shift;
            if shift > 0 && first + j + 1 < dead.len() {
                dead[first + j + 1] |= word >> (64 - shift);
            }
        }
    }
    match live_count(Some(&dead), w.seg.len()) {
        0 => None,
        n if n == w.live() => Some(w),
        _ => Some(Window {
            dead: Some(Arc::new(dead)),
            ..w
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::exec::batch::Batch;
    use crate::schema::Column;
    use crate::table::{Row, Table};
    use crate::value::DataType;

    /// One column per storage encoding (two FLOAT ones: `f` is clean, `g`
    /// holds a NaN), NULLs in every one of them, sealed as one segment
    /// with rows deleted under the seal.
    fn encodings_table() -> Table {
        use DataType::*;
        let cols = [
            ("i", Int),
            ("f", Float),
            ("g", Float),
            ("b", Bool),
            ("d", Date),
            ("s", Text),
            ("t", Text),
            ("m", Float),
        ];
        let schema = Schema::new(
            "t",
            cols.iter().map(|(n, ty)| Column::new(*n, *ty)).collect(),
        )
        .unwrap();
        // 1 100 distinct strings push `s` past DICT_MAX into plain storage.
        let rows = (0..1100i64).map(|k| {
            let nullable = |v: Value, every: i64| if k % every == 0 { Value::Null } else { v };
            let int = match k {
                // Neighbours f64 cannot tell apart: equality must.
                40 => 1 << 53,
                41 => (1 << 53) + 1,
                _ => k % 9 - 2,
            };
            let float = [-0.0, 0.0, 1.5, -3.25][k as usize % 4];
            vec![
                nullable(Value::Int(int), 11),
                nullable(Value::Float(float), 7),
                nullable(Value::Float(if k == 500 { f64::NAN } else { float }), 7),
                nullable(Value::Bool(k % 3 == 0), 5),
                nullable(Value::Date(k % 6), 13),
                nullable(Value::text(format!("s-{k:04}")), 17),
                nullable(Value::text(format!("grp-{}", k % 4)), 3),
                // INTs widened into a FLOAT column demote it to `Mixed`.
                nullable(
                    if k % 2 == 0 {
                        Value::Int(k % 5)
                    } else {
                        Value::Float(0.5)
                    },
                    19,
                ),
            ]
        });
        let mut t = Table::from_rows(schema, rows).unwrap();
        let encodings: Vec<_> = (0..cols.len())
            .map(|c| t.segments().segments()[0].column(c).encoding())
            .collect();
        assert_eq!(
            encodings,
            ["int", "float", "float", "bool", "date", "str", "dict", "mixed"]
        );
        let dead = |k: i64| k == 0 || (300..310).contains(&k) || k == 707;
        t.delete_where(|r| matches!(r[5], Value::Text(ref s) if dead(s[2..].parse().unwrap())))
            .unwrap();
        t
    }

    #[test]
    fn lane_masks_match_the_row_walk_on_every_encoding() {
        let table = encodings_table();
        let schema = table.schema().clone();
        let parts = table.scan_parts();
        assert!(parts.len() == 1 && parts[0].dead.is_some());
        // What a scan leaf hands the pipeline, cut the way `Limit` cuts
        // it: one window over the whole chunk, dead rows and all.
        let Batch::Shared(w) = Batch::Shared(parts[0].clone()).take_prefix(parts[0].live() - 1)
        else {
            unreachable!("a prefix of a window is a window")
        };

        let nan = Value::Float(f64::NAN);
        let big = Value::Int((1 << 53) + 1);
        // Per column: literals of its own domain, then a foreign one.
        let own: [(&str, Vec<Value>, Value); 8] = [
            (
                "i",
                vec![Value::Int(3), Value::Float(2.5), big],
                Value::text("3"),
            ),
            (
                "f",
                vec![Value::Float(0.0), Value::Float(-0.0), Value::Int(1)],
                Value::Bool(true),
            ),
            ("g", vec![Value::Float(1.5), Value::Int(0)], Value::Date(1)),
            (
                "b",
                vec![Value::Bool(true), Value::Bool(false)],
                Value::Int(1),
            ),
            ("d", vec![Value::Date(3), Value::Date(-1)], Value::Int(3)),
            (
                "s",
                vec![Value::text("s-0500"), Value::text("s-")],
                Value::Int(0),
            ),
            (
                "t",
                vec![Value::text("grp-2"), Value::text("zzz")],
                Value::Float(2.0),
            ),
            (
                "m",
                vec![Value::Int(2), Value::Float(0.5)],
                Value::text("2"),
            ),
        ];
        type Build = fn(Expr, Expr) -> Expr;
        let compare: [(Build, bool); 6] = [
            (Expr::eq, false),
            (Expr::ne, false),
            (Expr::lt, true),
            (Expr::le, true),
            (Expr::gt, true),
            (Expr::ge, true),
        ];
        let (mut on_lanes, mut refused, mut errors) = (0, 0, 0);
        for (name, same_domain, foreign) in &own {
            let numeric = matches!(*name, "i" | "f" | "g");
            let mut cases: Vec<(Expr, bool)> = vec![
                (Expr::col(*name).is_null(), true),
                (Expr::col(*name).is_not_null(), true),
            ];
            for (build, ordering) in compare {
                let col = || Expr::col(*name);
                for lit in same_domain {
                    // `Mixed` storage shares no domain; a NaN anywhere in
                    // the sealed column makes an ordering fallible.
                    let lanes = *name != "m" && !(ordering && *name == "g");
                    cases.push((build(col(), Expr::Lit(lit.clone())), lanes));
                    cases.push((build(Expr::Lit(lit.clone()), col()), lanes));
                }
                cases.push((build(col(), Expr::Lit(foreign.clone())), false));
                cases.push((build(col(), Expr::Lit(Value::Null)), true));
                // NaN: numeric for `i`/`f`/`g` (equal to itself, fallible
                // to order against), foreign everywhere else.
                let nan_lanes = numeric && !ordering;
                cases.push((build(col(), Expr::Lit(nan.clone())), nan_lanes));
            }
            for (predicate, expect_lanes) in &cases {
                let stages = [Stage::Filter {
                    predicate: std::borrow::Cow::Borrowed(predicate),
                    schema: schema.clone(),
                }];
                let groups = prune_groups(&stages);
                assert_eq!(groups.len(), 1, "{predicate:?} decomposes");
                // Morsel-style slices of it, at its head and past it,
                // starting on dead rows and on live ones.
                for lo in [0, 3, 301, 1000] {
                    let hi = w.seg.len();
                    let live: Vec<(usize, &Row)> = (lo..hi)
                        .filter(|&k| !is_dead(w.dead(), k))
                        .map(|k| (k, &w.seg.rows()[k]))
                        .collect();
                    let walked: RelResult<Vec<bool>> = live
                        .iter()
                        .map(|(_, r)| predicate.matches(&schema, r))
                        .collect();
                    let (sel, done) = lane_select(&groups, &w.seg, lo, hi - lo);
                    assert_eq!(done == 1, *expect_lanes, "{predicate:?}");
                    if done == 1 {
                        on_lanes += 1;
                        let walked = walked.as_ref().expect("a lane group is infallible");
                        let differs = live
                            .iter()
                            .zip(walked)
                            .position(|((k, _), b)| sel[k - lo] != *b);
                        assert_eq!(differs, None, "{predicate:?} from {lo}");
                    } else {
                        refused += 1;
                        assert!(sel.iter().all(|s| *s), "a refused group dropped a row");
                    }
                    // Either way the slice produces what the row walk over
                    // its live rows does — the same rows, or the same first
                    // error; dead rows are neither walked nor dropped.
                    let want = walked.map(|keep| {
                        let kept = live.iter().zip(keep).filter(|(_, k)| *k);
                        kept.map(|((_, r), _)| (*r).clone()).collect::<Vec<Row>>()
                    });
                    errors += usize::from(want.is_err());
                    // Handed on as dead bits or walked: the same rows.
                    let got = run_window(&stages, &groups, &w, lo, hi).map(|out| match out {
                        Sliced::Rows(rows) => rows,
                        Sliced::Dropped { lo: from, bits } => {
                            assert_eq!(from, lo);
                            assert_eq!(bits.len(), (hi - lo).div_ceil(64));
                            let gone = |k: usize| bits[(k - lo) / 64] >> ((k - lo) % 64) & 1;
                            let kept = live.iter().filter(|(k, _)| gone(*k) == 0);
                            kept.map(|(_, r)| (*r).clone()).collect()
                        }
                    });
                    assert_eq!(got, want, "{predicate:?} from {lo}");
                }
            }
        }
        // Every branch of the assertions above was taken.
        assert!(on_lanes > 0 && refused > 0 && errors > 0);
        assert!(matches!(
            Expr::col("i")
                .lt(Expr::lit("3"))
                .matches(&schema, table.row_at(1).unwrap()),
            Err(RelError::Eval(_))
        ));
    }
}
