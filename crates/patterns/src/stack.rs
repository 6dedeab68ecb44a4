//! Pattern stacks: composing design patterns into a contributor binding.
//!
//! A real contributor database differs from the naïve schema by *several*
//! patterns at once — e.g. columns renamed, two forms merged, the result
//! stored generically with an audit flag. A [`PatternStack`] is the ordered
//! composition; it encodes naïve data to the physical layout and rewrites
//! naïve-schema queries (from g-tree queries) into physical queries.

use crate::kind::PatternKind;
use crate::rewrite::replace_scans;
use guava_relational::algebra::Plan;
use guava_relational::database::Database;
use guava_relational::error::{RelError, RelResult};
use guava_relational::schema::Schema;
use serde::{Deserialize, Serialize};

/// An ordered list of design patterns mapping a tool's naïve schema to a
/// contributor's physical database. Order matters: pattern *i* operates on
/// the layout produced by pattern *i − 1*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternStack {
    /// The contributor this stack binds (also its database name).
    pub contributor: String,
    pub patterns: Vec<PatternKind>,
}

impl PatternStack {
    pub fn new(contributor: impl Into<String>, patterns: Vec<PatternKind>) -> PatternStack {
        PatternStack {
            contributor: contributor.into(),
            patterns,
        }
    }

    /// The trivial binding: physical database *is* the naïve schema.
    pub fn naive(contributor: impl Into<String>) -> PatternStack {
        PatternStack::new(contributor, vec![PatternKind::Naive])
    }

    /// Physical schemas produced from the naïve schemas.
    pub fn physical_schemas(&self, naive: &[Schema]) -> RelResult<Vec<Schema>> {
        let mut schemas = naive.to_vec();
        for p in &self.patterns {
            schemas = p.transform_schemas(&schemas)?;
        }
        Ok(schemas)
    }

    /// Encode a naïve database into the contributor's physical layout.
    pub fn encode(&self, naive: &Database) -> RelResult<Database> {
        let mut db = naive.clone();
        for p in &self.patterns {
            db = p.encode(&db)?;
        }
        db.name = self.contributor.clone();
        Ok(db)
    }

    /// Rewrite a plan phrased over the naïve schema into one over the
    /// physical database — the GUAVA view mechanism. Each pattern rewrites
    /// scans of its pre-layout tables into plans over its post-layout
    /// tables; chaining the rewrites front-to-back walks the plan all the
    /// way down to physical storage.
    pub fn decode_plan(&self, naive_plan: &Plan) -> RelResult<Plan> {
        let mut plan = naive_plan.clone();
        for p in &self.patterns {
            plan = replace_scans(&plan, &|t| p.decode_scan(t))?;
        }
        Ok(plan)
    }

    /// Convenience: evaluate a naïve-schema plan against the physical
    /// database through the decode rewrite.
    pub fn query(
        &self,
        physical: &Database,
        naive_plan: &Plan,
    ) -> RelResult<guava_relational::table::Table> {
        self.decode_plan(naive_plan)?.eval(physical)
    }

    /// Sanity-check the stack against a tool's naïve schemas: schemas must
    /// transform cleanly and every naïve table must decode to its original
    /// schema shape on an empty database.
    pub fn validate(&self, naive: &[Schema]) -> RelResult<()> {
        let physical = self.physical_schemas(naive)?;
        // Build an empty physical database and make sure each naïve table
        // decodes without planning errors.
        let mut db = Database::new(self.contributor.clone());
        for s in &physical {
            db.put_table(guava_relational::table::Table::new(s.clone()));
        }
        for s in naive {
            let decoded = self.decode_plan(&Plan::scan(s.name.clone()))?.eval(&db)?;
            if decoded.schema().column_names() != s.column_names() {
                return Err(RelError::Plan(format!(
                    "decode of `{}` yields columns {:?}, expected {:?}",
                    s.name,
                    decoded.schema().column_names(),
                    s.column_names()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{BoolEncodePattern, NullSentinelPattern};
    use crate::generic::GenericPattern;
    use crate::structural::{MergePattern, RenamePattern, SplitPattern};
    use crate::temporal::AuditPattern;
    use guava_relational::expr::Expr;
    use guava_relational::prelude::*;

    fn history_schema() -> Schema {
        Schema::new(
            "history",
            vec![
                Column::required("instance_id", DataType::Int),
                Column::new("smoking", DataType::Int),
                Column::new("packs", DataType::Float),
                Column::new("renal_failure", DataType::Bool),
            ],
        )
        .unwrap()
        .with_primary_key(&["instance_id"])
        .unwrap()
    }

    fn complications_schema() -> Schema {
        Schema::new(
            "complications",
            vec![
                Column::required("instance_id", DataType::Int),
                Column::new("hypoxia", DataType::Bool),
            ],
        )
        .unwrap()
        .with_primary_key(&["instance_id"])
        .unwrap()
    }

    fn naive_db() -> Database {
        let mut db = Database::new("naive");
        db.create_table(
            Table::from_rows(
                history_schema(),
                vec![
                    vec![1.into(), 1.into(), Value::Float(2.0), false.into()],
                    vec![2.into(), 0.into(), Value::Null, true.into()],
                    vec![3.into(), Value::Null, Value::Null, Value::Null],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Table::from_rows(
                complications_schema(),
                vec![
                    vec![1.into(), true.into()],
                    vec![2.into(), false.into()],
                    vec![3.into(), Value::Null],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    /// Compare a decoded naïve table with the original, order-insensitive.
    fn assert_same_rows(a: &Table, b: &Table) {
        assert_eq!(a.schema().column_names(), b.schema().column_names());
        let mut ra = a.rows().to_vec();
        let mut rb = b.rows().to_vec();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn naive_stack_roundtrips() {
        let stack = PatternStack::naive("c1");
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        let t = stack.query(&phys, &Plan::scan("history")).unwrap();
        assert_same_rows(&t, naive.table("history").unwrap());
    }

    #[test]
    fn rename_stack_roundtrips() {
        let stack = PatternStack::new(
            "c",
            vec![PatternKind::Rename(
                RenamePattern::new(
                    &history_schema(),
                    "tblHist",
                    vec![("smoking", "c_smk"), ("packs", "c_ppd")],
                )
                .unwrap(),
            )],
        );
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        assert!(phys.has_table("tblHist"));
        assert!(phys
            .table("tblHist")
            .unwrap()
            .schema()
            .index_of("c_smk")
            .is_some());
        let t = stack.query(&phys, &Plan::scan("history")).unwrap();
        assert_same_rows(&t, naive.table("history").unwrap());
    }

    #[test]
    fn merge_stack_roundtrips_both_forms() {
        let merge = MergePattern::new(
            "all_forms",
            "form_name",
            vec![history_schema(), complications_schema()],
        )
        .unwrap();
        let stack = PatternStack::new("c", vec![PatternKind::Merge(merge)]);
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        assert_eq!(phys.table("all_forms").unwrap().len(), 6);
        for form in ["history", "complications"] {
            let t = stack.query(&phys, &Plan::scan(form)).unwrap();
            assert_same_rows(&t, naive.table(form).unwrap());
        }
    }

    #[test]
    fn split_stack_roundtrips() {
        let split = SplitPattern::new(
            &history_schema(),
            vec![
                ("hist_smoke", vec!["smoking", "packs"]),
                ("hist_misc", vec!["renal_failure"]),
            ],
        )
        .unwrap();
        let stack = PatternStack::new("c", vec![PatternKind::Split(split)]);
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        assert!(phys.has_table("hist_smoke") && phys.has_table("hist_misc"));
        let t = stack.query(&phys, &Plan::scan("history")).unwrap();
        assert_same_rows(&t, naive.table("history").unwrap());
    }

    #[test]
    fn deep_composition_roundtrips() {
        // Rename, then bool-encode, then sentinel, then generic, then audit
        // — five patterns stacked, exercising schema threading throughout.
        let s0 = history_schema();
        let rename = RenamePattern::new(&s0, "tblHist", vec![("smoking", "c_smk")]).unwrap();
        let s1 = &rename.transform_schemas(std::slice::from_ref(&s0)).unwrap()[0];
        let benc = BoolEncodePattern::new(s1, "renal_failure", "Y", "N").unwrap();
        let s2 = &benc.transform_schemas(std::slice::from_ref(s1)).unwrap()[0];
        let sent = NullSentinelPattern::new(s2, "c_smk", -9i64).unwrap();
        let s3 = &sent.transform_schemas(std::slice::from_ref(s2)).unwrap()[0];
        let generic = GenericPattern::new(s3, "eav_data").unwrap();
        let s4 = generic.transform_schemas(std::slice::from_ref(s3)).unwrap();
        let eav = s4.iter().find(|s| s.name == "eav_data").unwrap();
        let audit = AuditPattern::new(eav, "_deleted").unwrap();

        let stack = PatternStack::new(
            "vendor",
            vec![
                PatternKind::Rename(rename),
                PatternKind::BoolEncode(benc),
                PatternKind::NullSentinel(sent),
                PatternKind::Generic(generic),
                PatternKind::Audit(audit),
            ],
        );
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        assert!(phys.has_table("eav_data"));
        let t = stack
            .query(&phys, &Plan::scan("history").sort_by(&["instance_id"]))
            .unwrap();
        assert_same_rows(&t, naive.table("history").unwrap());
        // And predicates written against naïve columns still work.
        let smokers = stack
            .query(
                &phys,
                &Plan::scan("history").select(Expr::col("smoking").eq(Expr::lit(1i64))),
            )
            .unwrap();
        assert_eq!(smokers.len(), 1);
    }

    #[test]
    fn physical_schemas_reflect_stack() {
        let stack = PatternStack::new(
            "c",
            vec![PatternKind::Generic(
                GenericPattern::new(&history_schema(), "eav").unwrap(),
            )],
        );
        let phys = stack
            .physical_schemas(&[history_schema(), complications_schema()])
            .unwrap();
        let names: Vec<&str> = phys.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"eav"));
        assert!(names.contains(&"complications"));
        assert!(!names.contains(&"history"));
    }

    #[test]
    fn validate_accepts_sound_stack() {
        let stack = PatternStack::new(
            "c",
            vec![PatternKind::Generic(
                GenericPattern::new(&history_schema(), "eav").unwrap(),
            )],
        );
        stack
            .validate(&[history_schema(), complications_schema()])
            .unwrap();
    }

    #[test]
    fn horizontal_partition_roundtrips() {
        use crate::structural::HPartitionPattern;
        let hp = HPartitionPattern::new(
            &history_schema(),
            vec![
                ("hist_smokers", Expr::col("smoking").eq(Expr::lit(1i64))),
                ("hist_rest", Expr::lit(true)),
            ],
        )
        .unwrap();
        let stack = PatternStack::new("c", vec![PatternKind::HorizontalPartition(hp)]);
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        assert_eq!(phys.table("hist_smokers").unwrap().len(), 1);
        assert_eq!(phys.table("hist_rest").unwrap().len(), 2);
        let t = stack.query(&phys, &Plan::scan("history")).unwrap();
        assert_same_rows(&t, naive.table("history").unwrap());
    }

    #[test]
    fn lookup_stack_roundtrips() {
        use crate::encoding::LookupPattern;
        let lookup = LookupPattern::new(
            &history_schema(),
            "smoking",
            vec![Value::Int(0), Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        let stack = PatternStack::new("c", vec![PatternKind::Lookup(lookup)]);
        let naive = naive_db();
        let phys = stack.encode(&naive).unwrap();
        assert!(phys.has_table("history_smoking_lookup"));
        let t = stack.query(&phys, &Plan::scan("history")).unwrap();
        assert_same_rows(&t, naive.table("history").unwrap());
    }
}
