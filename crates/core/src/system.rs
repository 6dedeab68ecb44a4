//! The high-level GUAVA/MultiClass system facade — Figure 1 as an object.
//!
//! A [`GuavaSystem`] owns the study schema, the classifier registry, the
//! contributor bindings (g-tree + pattern stack), and the contributors'
//! physical databases. Analysts configure studies against it and run them;
//! the system compiles to ETL, executes, and returns annotated results.

use guava_etl::codegen::{study_to_datalog, study_to_xquery};
use guava_etl::compile::{compile, CompileError, CompiledStudy, ContributorBinding};
use guava_etl::datalog::DatalogProgram;
use guava_gtree::tree::GTree;
use guava_multiclass::classifier::Classifier;
use guava_multiclass::study::{ClassifierRegistry, Study, StudyRegistry};
use guava_multiclass::study_schema::StudySchema;
use guava_patterns::stack::PatternStack;
use guava_relational::database::{Catalog, Database};
use guava_relational::error::RelError;
use guava_relational::table::Table;
use std::collections::BTreeMap;

/// The result of running one study.
#[derive(Debug, Clone)]
pub struct StudyResult {
    /// Per-entity result tables.
    pub tables: BTreeMap<String, Table>,
    /// The compiled workflow and resolution metadata.
    pub compiled: CompiledStudy,
    /// Generated XQuery text (Section 4.2 artifact).
    pub xquery: String,
    /// Generated Datalog program (Section 4.2 artifact).
    pub datalog: DatalogProgram,
}

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum SystemError {
    Compile(CompileError),
    Rel(RelError),
    UnknownContributor(String),
    DuplicateContributor(String),
    Registry(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Compile(e) => write!(f, "{e}"),
            SystemError::Rel(e) => write!(f, "{e}"),
            SystemError::UnknownContributor(c) => write!(f, "unknown contributor `{c}`"),
            SystemError::DuplicateContributor(c) => write!(f, "contributor `{c}` already added"),
            SystemError::Registry(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<CompileError> for SystemError {
    fn from(e: CompileError) -> Self {
        SystemError::Compile(e)
    }
}

impl From<RelError> for SystemError {
    fn from(e: RelError) -> Self {
        SystemError::Rel(e)
    }
}

/// The assembled system of Figure 1.
pub struct GuavaSystem {
    study_schema: StudySchema,
    registry: ClassifierRegistry,
    studies: StudyRegistry,
    bindings: Vec<ContributorBinding>,
    /// The contributors' physical databases.
    physical: Catalog,
}

impl GuavaSystem {
    pub fn new(study_schema: StudySchema) -> GuavaSystem {
        GuavaSystem {
            study_schema,
            registry: ClassifierRegistry::new(),
            studies: StudyRegistry::new(),
            bindings: Vec::new(),
            physical: Catalog::new(),
        }
    }

    /// Register a contributor: its g-tree, pattern stack, and the physical
    /// database it ships.
    pub fn add_contributor(
        &mut self,
        tree: GTree,
        stack: PatternStack,
        mut physical: Database,
    ) -> Result<(), SystemError> {
        let name = tree.tool.clone();
        if self.bindings.iter().any(|b| b.name() == name) {
            return Err(SystemError::DuplicateContributor(name));
        }
        physical.name = name.clone();
        self.physical.insert(physical);
        self.bindings.push(ContributorBinding::new(tree, stack));
        Ok(())
    }

    /// Register a classifier for later use in studies.
    pub fn register_classifier(&mut self, c: Classifier) -> Result<(), SystemError> {
        self.registry.register(c).map_err(SystemError::Registry)
    }

    pub fn study_schema(&self) -> &StudySchema {
        &self.study_schema
    }

    pub fn study_schema_mut(&mut self) -> &mut StudySchema {
        &mut self.study_schema
    }

    pub fn registry(&self) -> &ClassifierRegistry {
        &self.registry
    }

    pub fn contributors(&self) -> Vec<&str> {
        self.bindings.iter().map(ContributorBinding::name).collect()
    }

    /// The g-tree of a contributor — what the analyst explores.
    pub fn gtree(&self, contributor: &str) -> Result<&GTree, SystemError> {
        self.bindings
            .iter()
            .find(|b| b.name() == contributor)
            .map(|b| &b.tree)
            .ok_or_else(|| SystemError::UnknownContributor(contributor.to_owned()))
    }

    /// Compile a study without running it (inspection, codegen).
    pub fn compile_study(&self, study: &Study) -> Result<CompiledStudy, SystemError> {
        Ok(compile(
            study,
            &self.study_schema,
            &self.registry,
            &self.bindings,
        )?)
    }

    /// Compile, run, and record a study. The study definition is archived
    /// in the study registry so later analysts can inspect and reuse its
    /// decisions (Section 3).
    pub fn run_study(&mut self, study: &Study) -> Result<StudyResult, SystemError> {
        let compiled = self.compile_study(study)?;
        let mut catalog = self.physical.clone();
        compiled
            .workflow
            .run(&mut catalog)
            .map_err(SystemError::Rel)?;
        let results = catalog
            .database(&compiled.output_db)
            .map_err(SystemError::Rel)?;
        let mut tables = BTreeMap::new();
        for (entity, table) in &compiled.output_tables {
            tables.insert(
                entity.clone(),
                results.table(table).map_err(SystemError::Rel)?.clone(),
            );
        }
        let xquery = study_to_xquery(&compiled);
        let datalog = study_to_datalog(&compiled);
        // Archive (ignore duplicates on re-runs).
        let _ = self.studies.register(study.clone());
        Ok(StudyResult {
            tables,
            compiled,
            xquery,
            datalog,
        })
    }

    /// Prior studies sharing this study schema — the reuse path.
    pub fn prior_studies(&self) -> Vec<&Study> {
        self.studies.sharing_schema(&self.study_schema.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guava_clinical::prelude::*;
    use guava_relational::value::Value;

    fn system(n: usize) -> (Vec<Profile>, GuavaSystem) {
        let profiles = generate(&GeneratorConfig::default().with_size(n));
        let contributors = build_all(&profiles).unwrap();
        let mut sys = GuavaSystem::new(study_schema());
        for c in &contributors {
            sys.add_contributor(c.tree.clone(), c.stack.clone(), c.physical.clone())
                .unwrap();
        }
        for cl in guava_clinical::classifiers::cori()
            .into_iter()
            .chain(guava_clinical::classifiers::endopro())
            .chain(guava_clinical::classifiers::gastrolink())
        {
            sys.register_classifier(cl).unwrap();
        }
        (profiles, sys)
    }

    #[test]
    fn facade_runs_study1() {
        let (profiles, mut sys) = system(60);
        assert_eq!(sys.contributors(), vec!["cori", "endopro", "gastrolink"]);
        let contributors = build_all(&profiles).unwrap();
        let study = study1_definition(&contributors);
        let result = sys.run_study(&study).unwrap();
        let report = Study1Report::from_table(&result.tables["Procedure"]).unwrap();
        let expected = Study1Report::expected(&profiles);
        assert_eq!(report.population, 3 * expected.population);
        assert!(result.xquery.contains("for $i"));
        assert!(!result.datalog.rules.is_empty());
        // The study is archived for reuse.
        assert_eq!(sys.prior_studies().len(), 1);
    }

    #[test]
    fn duplicate_contributor_rejected() {
        let (_, mut sys) = system(10);
        let profiles = generate(&GeneratorConfig::default().with_size(5));
        let contributors = build_all(&profiles).unwrap();
        let c = &contributors[0];
        assert!(matches!(
            sys.add_contributor(c.tree.clone(), c.stack.clone(), c.physical.clone()),
            Err(SystemError::DuplicateContributor(_))
        ));
    }

    #[test]
    fn gtree_lookup_for_analyst_exploration() {
        let (_, sys) = system(5);
        let g = sys.gtree("cori").unwrap();
        assert!(g.node("smoking").is_ok());
        assert!(sys.gtree("ghost").is_err());
        // Node context renders for analyst inspection (Figure 3).
        let detail = g.node("frequency").unwrap().describe();
        assert!(detail.contains("packs per day"));
    }

    #[test]
    fn classified_values_present() {
        let (profiles, mut sys) = system(40);
        let contributors = build_all(&profiles).unwrap();
        let study = study2_definition(&contributors, ExSmokerMeaning::EverQuit);
        let result = sys.run_study(&study).unwrap();
        let t = &result.tables["Procedure"];
        assert!(
            t.iter_rows().all(|r| r[2] == Value::Bool(true)),
            "filter applied"
        );
    }
}
