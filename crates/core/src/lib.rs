//! # guava — Context-Sensitive Clinical Data Integration
//!
//! A production-grade reproduction of *Terwilliger, Delcambre, Logan.
//! "Context-Sensitive Clinical Data Integration" (EDBT 2006 Workshops)*:
//! the **GUAVA** (GUI-As-View-Apparatus) and **MultiClass** components
//! that let non-technical domain experts create and reuse complex data
//! integration processes.
//!
//! ## Architecture (paper Figure 1)
//!
//! ```text
//! contributors ── g-trees ──┐
//!    (forms +               ├── classifiers ── study schemas ── studies
//!     pattern stacks)       │        (MultiClass)
//!         GUAVA ────────────┘
//! ```
//!
//! * [`forms`] — declarative reporting-tool UIs with real data-entry
//!   semantics (the substitution for the paper's .NET GUI layer).
//! * [`gtree`] — g-trees derived automatically from the UI (Hypothesis #1),
//!   carrying each control's question wording, options, defaults, and
//!   enablement context (Figures 2–3).
//! * [`patterns`] — the catalog of 11 database design patterns (Table 1)
//!   as bidirectional transformations with query rewriting.
//! * [`multiclass`] — study schemas with multi-domain attributes
//!   (Figure 4, Table 2) and the `A ← B` classifier language (Figure 5).
//! * [`etl`] — the study compiler producing runnable ETL workflows
//!   (Figure 6, Hypothesis #3) plus Datalog/XQuery code generation.
//! * [`warehouse`] — materialized study schemas and their alternatives
//!   (Figure 7) plus the precision/recall harness (Hypothesis #2).
//! * [`clinical`] — the CORI simulation: three vendor tools sharing one
//!   seeded clinical reality, and the paper's Studies 1 & 2.
//! * [`system`] — the [`system::GuavaSystem`] facade tying it together.
//!
//! Underneath all of it sits [`relational`], the embedded engine whose
//! [`relational::exec::Executor`] sessions evaluate plans over columnar
//! resting storage and run them morsel-parallel above a cardinality
//! threshold (DESIGN.md §10–§11) — study workflows inherit this
//! transparently through `EtlWorkflow::run`, or share one executor with
//! `EtlWorkflow::run_on`; the executor is the only place threads are
//! spawned and [`relational::exec::Executor::threads`] the only way to
//! say how many.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! ```
//! use guava::prelude::*;
//!
//! // A reporting tool, its g-tree, and a naive storage binding.
//! let tool = ReportingTool::new("clinic", "1.0", vec![FormDef::new(
//!     "visit", "Visit", vec![Control::check_box("hypoxia", "Hypoxia observed?")],
//! )]);
//! let tree = GTree::derive(&tool).unwrap();
//! let stack = PatternStack::naive("clinic");
//!
//! // A study schema and a classifier mapping the control to a domain.
//! let schema = StudySchema::new("s", EntityDef::new("Visit").with_attribute(
//!     AttributeDef::new("Hypoxia", vec![Domain::boolean("yesno", "observed")]),
//! ));
//! let classifier = Classifier::parse_rules(
//!     "hypoxia", "clinic", "checkbox pass-through",
//!     Target::Domain { entity: "Visit".into(), attribute: "Hypoxia".into(), domain: "yesno".into() },
//!     &["hypoxia <- TRUE"],
//! ).unwrap();
//! let bound = classifier.bind(&tree, &schema).unwrap();
//! assert_eq!(bound.form, "visit");
//! ```

pub use guava_clinical as clinical;
pub use guava_etl as etl;
pub use guava_forms as forms;
pub use guava_gtree as gtree;
pub use guava_multiclass as multiclass;
pub use guava_patterns as patterns;
pub use guava_relational as relational;
pub use guava_warehouse as warehouse;

pub mod artifacts;
pub mod system;

/// One-stop imports for downstream users.
pub mod prelude {
    pub use crate::artifacts::{ArtifactBundle, ArtifactError, BUNDLE_VERSION};
    pub use crate::system::{GuavaSystem, StudyResult, SystemError};
    pub use guava_etl::prelude::*;
    pub use guava_forms::prelude::*;
    pub use guava_gtree::prelude::*;
    pub use guava_multiclass::prelude::*;
    pub use guava_patterns::prelude::*;
    pub use guava_relational::prelude::*;
    pub use guava_warehouse::prelude::*;
}
