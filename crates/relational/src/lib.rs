//! # guava-relational
//!
//! The relational substrate underneath the GUAVA/MultiClass reproduction:
//! an embedded, in-memory relational engine with typed values, schemas,
//! primary-keyed tables, a scalar expression language, and a relational
//! algebra evaluator covering selection, projection, joins, union,
//! distinct, aggregation, sorting, and the pivot/un-pivot pair required by
//! generic (Entity–Attribute–Value) contributor layouts.
//!
//! In the paper's architecture (Figure 1 / Figure 6) this crate plays the
//! role of every concrete database: the contributors' physical databases,
//! the temporary databases between ETL components, and the warehouse's
//! study-schema storage.
//!
//! Plans evaluate through an [`exec::Executor`] session: a streaming,
//! batch-at-a-time engine that fuses Select/Project/Rename towers,
//! evaluates their leading `column ⟨op⟩ literal` filters as lane masks
//! over columnar segment storage, and, above a cardinality threshold, runs scans morsel-parallel with a
//! work-stealing scheduler ([`exec::morsel`]; [`exec::Executor::threads`]
//! is the one way to set the thread count, and no environment is read).
//! Every configuration produces byte-identical output —
//! DESIGN.md §9–§11 document the execution model, and the original
//! tree-walking interpreter survives as
//! [`algebra::Plan::eval_materialized`], the differential-testing oracle.
//!
//! ```
//! use guava_relational::prelude::*;
//!
//! let schema = Schema::new("procedures", vec![
//!     Column::required("id", DataType::Int),
//!     Column::new("hypoxia", DataType::Bool),
//! ]).unwrap().with_primary_key(&["id"]).unwrap();
//!
//! let mut db = Database::new("cori");
//! db.create_table(Table::from_rows(schema, vec![
//!     vec![Value::Int(1), Value::Bool(true)],
//!     vec![Value::Int(2), Value::Bool(false)],
//! ]).unwrap()).unwrap();
//!
//! let hypoxic = Plan::scan("procedures")
//!     .select(Expr::col("hypoxia").eq(Expr::lit(true)))
//!     .eval(&db)
//!     .unwrap();
//! assert_eq!(hypoxic.len(), 1);
//! ```

pub mod algebra;
pub mod csv;
pub mod database;
pub mod delta;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod optimize;
pub mod rank;
pub mod schema;
pub mod segment;
pub mod table;
pub mod value;

/// Convenient glob-import of the substrate's core types.
pub mod prelude {
    pub use crate::algebra::{AggFunc, Aggregate, JoinKind, Plan};
    pub use crate::database::{Catalog, Database};
    pub use crate::delta::{
        table_fingerprint, Change, DeltaCatalog, DeltaPlan, DeltaSet, Patch, TableChanges,
        TableDelta,
    };
    pub use crate::error::{RelError, RelResult};
    pub use crate::exec::Executor;
    pub use crate::explain::explain_plan;
    pub use crate::expr::{BinOp, Expr};
    pub use crate::optimize::optimize;
    pub use crate::schema::{Column, Schema};
    pub use crate::table::{Row, Table};
    pub use crate::value::{DataType, Value};
}

pub use prelude::*;
