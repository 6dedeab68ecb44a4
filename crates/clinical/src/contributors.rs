//! Assembly of the three contributors: tools, g-trees, pattern stacks, and
//! generated databases — the left-hand side of Figure 1.

use crate::profile::Profile;
use crate::{cori, endopro, gastrolink};
use guava_etl::compile::ContributorBinding;
use guava_forms::form::ReportingTool;
use guava_gtree::tree::GTree;
use guava_patterns::stack::PatternStack;
use guava_relational::database::{Catalog, Database};
use guava_relational::error::RelResult;
use std::collections::BTreeMap;

/// One contributor, fully materialized from a profile set.
#[derive(Debug, Clone)]
pub struct Contributor {
    pub tool: ReportingTool,
    pub tree: GTree,
    pub stack: PatternStack,
    /// The naïve (in-memory) database — ground truth for H3 validation.
    pub naive: Database,
    /// The physical database — what the warehouse actually receives.
    pub physical: Database,
}

impl Contributor {
    pub fn name(&self) -> &str {
        &self.tree.tool
    }

    pub fn binding(&self) -> ContributorBinding {
        ContributorBinding::new(self.tree.clone(), self.stack.clone())
    }
}

/// Build all three contributors from one profile set. Every contributor
/// receives the *same* underlying clinical reality, typed into different
/// tools — which is what makes cross-contributor counts comparable. Each
/// profile is typed in once per tool: the physical database is encoded
/// from the naïve one.
pub fn build_all(profiles: &[Profile]) -> RelResult<Vec<Contributor>> {
    Ok(vec![
        contributor(
            cori::tool(),
            cori::stack()?,
            cori::naive_database(profiles)?,
            cori::encode,
        )?,
        contributor(
            endopro::tool(),
            endopro::stack()?,
            endopro::naive_database(profiles)?,
            PatternStack::encode,
        )?,
        contributor(
            gastrolink::tool(),
            gastrolink::stack()?,
            gastrolink::naive_database(profiles)?,
            PatternStack::encode,
        )?,
    ])
}

fn contributor(
    tool: ReportingTool,
    stack: PatternStack,
    naive: Database,
    encode: fn(&PatternStack, &Database) -> RelResult<Database>,
) -> RelResult<Contributor> {
    Ok(Contributor {
        tree: GTree::derive(&tool).unwrap_or_else(|e| panic!("{} g-tree: {e:?}", tool.name)),
        physical: encode(&stack, &naive)?,
        stack,
        naive,
        tool,
    })
}

/// Bindings for the ETL compiler.
pub fn bindings(contributors: &[Contributor]) -> Vec<ContributorBinding> {
    contributors.iter().map(Contributor::binding).collect()
}

/// A catalog of the physical databases, named by contributor — the input
/// to a compiled workflow.
pub fn physical_catalog(contributors: &[Contributor]) -> Catalog {
    let mut catalog = Catalog::new();
    for c in contributors {
        let mut db = c.physical.clone();
        db.name = c.name().to_owned();
        catalog.insert(db);
    }
    catalog
}

/// Naïve databases keyed by contributor — the oracle for `direct_eval`.
pub fn naive_map(contributors: &[Contributor]) -> BTreeMap<String, Database> {
    contributors
        .iter()
        .map(|c| {
            let mut db = c.naive.clone();
            db.name = c.name().to_owned();
            (c.name().to_owned(), db)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{generate, GeneratorConfig};

    #[test]
    fn all_three_contributors_build() {
        let profiles = generate(&GeneratorConfig::default().with_size(30));
        let cs = build_all(&profiles).unwrap();
        assert_eq!(cs.len(), 3);
        let names: Vec<&str> = cs.iter().map(Contributor::name).collect();
        assert_eq!(names, vec!["cori", "endopro", "gastrolink"]);
        for c in &cs {
            c.tool.validate().unwrap();
            assert!(c.physical.total_rows() > 0);
        }
        // Physical layouts genuinely differ.
        assert!(cs[0].physical.has_table(crate::cori::PHYSICAL_TABLE));
        assert!(cs[1].physical.has_table(crate::endopro::PHYSICAL_TABLE));
        assert!(cs[2].physical.has_table(crate::gastrolink::PHYSICAL_TABLE));
    }

    #[test]
    fn catalog_and_naive_map_align() {
        let profiles = generate(&GeneratorConfig::default().with_size(20));
        let cs = build_all(&profiles).unwrap();
        let catalog = physical_catalog(&cs);
        let naive = naive_map(&cs);
        assert_eq!(catalog.len(), 3);
        assert_eq!(naive.len(), 3);
        for c in &cs {
            assert!(catalog.database(c.name()).is_ok());
            assert!(naive.contains_key(c.name()));
        }
    }

    /// Typing each profile in once per tool changes nothing: every part of
    /// every contributor equals the one built from the public per-tool
    /// builders, which type the profiles again for the physical database.
    #[test]
    fn build_all_equals_the_per_tool_builders() {
        let profiles = generate(&GeneratorConfig::default().with_size(60));
        let expected = [
            (
                cori::tool(),
                cori::stack().unwrap(),
                cori::naive_database(&profiles).unwrap(),
                cori::physical_database(&profiles).unwrap(),
            ),
            (
                endopro::tool(),
                endopro::stack().unwrap(),
                endopro::naive_database(&profiles).unwrap(),
                endopro::physical_database(&profiles).unwrap(),
            ),
            (
                gastrolink::tool(),
                gastrolink::stack().unwrap(),
                gastrolink::naive_database(&profiles).unwrap(),
                gastrolink::physical_database(&profiles).unwrap(),
            ),
        ];
        let same_db = |a: &Database, b: &Database| {
            a.name == b.name
                && a.table_names().eq(b.table_names())
                && a.tables().zip(b.tables()).all(|(x, y)| x == y)
        };
        let built = build_all(&profiles).unwrap();
        assert_eq!(built.len(), expected.len());
        for (c, (tool, stack, naive, physical)) in built.iter().zip(&expected) {
            assert_eq!(&c.tool, tool);
            assert_eq!(c.tree, GTree::derive(tool).unwrap());
            assert_eq!(&c.stack, stack);
            assert!(same_db(&c.naive, naive), "{} naive", c.name());
            assert!(same_db(&c.physical, physical), "{} physical", c.name());
        }
    }
}
