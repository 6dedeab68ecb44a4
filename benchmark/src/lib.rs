//! The repository's measurement spine: four workloads that drive the
//! paper's whole path — form entry, pattern encode, g-tree rewrite,
//! classifiers, compiled ETL, generation install, subscriber — end to end
//! and layer by layer. See `README.md` beside this crate.

pub mod compare;
pub mod engine;
pub mod etl_stream;
pub mod fixture;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod study_batch;
pub mod trace;
