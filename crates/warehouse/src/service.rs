//! Warehouse-as-a-service: a long-lived [`Engine`] owning generational,
//! snapshot-isolated warehouse state, [`Session`] handles for concurrent
//! query execution, and live [`Subscription`]s that receive byte-exact
//! row deltas pushed on every refresh (DESIGN.md §16).
//!
//! # Why a service layer
//!
//! The paper's end state is analysts *continuously* querying an
//! integrated clinical warehouse while contributor data flows in. Up to
//! PR 7 the repo was a library you call once per process: build a
//! [`StudyStore`], run a plan, exit. The differential layer
//! ([`DeltaPlan`], DESIGN.md §15) made refresh cost `O(delta·log n)`,
//! which makes *push* — the engine propagating row deltas to standing
//! queries — cheaper than every client re-polling. This module is the
//! API that exposes that: `Engine::session() → Session::{query,
//! subscribe}` with one unified error type ([`ServiceError`]).
//!
//! # Generation-swap protocol
//!
//! The engine's entire queryable state lives in one immutable
//! [`Snapshot`] (store + database view + generation number) behind an
//! `RwLock<Arc<Snapshot>>`. Readers clone the `Arc` (a reference-count
//! bump under a briefly-held read lock) and then work lock-free on an
//! immutable value for as long as they like — **a reader never blocks a
//! refresh, and a refresh never invalidates a reader**. Writers
//! serialize on a separate mutex, build the *next* generation off to the
//! side (clone-and-patch of the store, `O(delta)` by §12/§15), refresh
//! every resident subscription plan, and only then swap the `Arc` and
//! push the delta events. On any error the swap does not happen: the
//! current generation stays installed, byte-identical — refresh is
//! all-or-nothing.
//!
//! # Delta-push byte-identity contract
//!
//! Every subscription owns an engine-resident [`DeltaPlan`]. On refresh
//! the engine feeds it the positional [`Change`]s of the base tables
//! (naïve form and materialized study table) and pushes the plan's
//! output [`Change`] — insert/delete/revise in deterministic positional
//! order — over the subscription's channel. Applying the pushed stream
//! client-side ([`Subscription::sync`]) is byte-identical to re-running
//! the subscribed plan on the post-refresh snapshot: that is the §15
//! contract (D1–D4) carried over the wire. Errors ride the same channel
//! — a refresh that poisons the plan delivers the error event, and the
//! next refresh delivers the recovery `Change::Full`, exactly mirroring
//! what a re-polling client would observe.
//!
//! # Example
//!
//! ```
//! use guava_relational::algebra::Plan;
//! use guava_relational::expr::Expr;
//! use guava_relational::prelude::*;
//! use guava_warehouse::prelude::*;
//! use guava_warehouse::service::{Engine, EngineConfig};
//! # use guava_multiclass::prelude::*;
//! # fn classifiers() -> (BoundClassifier, BoundClassifier, Table) {
//! #     use guava_forms::control::Control;
//! #     use guava_forms::form::{FormDef, ReportingTool};
//! #     let tool = ReportingTool::new("cori", "1.0", vec![FormDef::new(
//! #         "Procedure", "Procedure",
//! #         vec![Control::numeric("PacksPerDay", "Packs per day", DataType::Int)])]);
//! #     let tree = guava_gtree::tree::GTree::derive(&tool).unwrap();
//! #     let schema = StudySchema::new("s", EntityDef::new("Procedure").with_attribute(
//! #         AttributeDef::new("Smoking", vec![Domain::categorical("class", "c", &["N", "Y"])])));
//! #     let ec = Classifier::parse_rules("All", "cori", "",
//! #         Target::Entity { entity: "Procedure".into() },
//! #         &["Procedure <- Procedure"]).unwrap()
//! #         .bind(&tree, &schema).unwrap();
//! #     let c = Classifier::parse_rules("Smokes", "cori", "",
//! #         Target::Domain { entity: "Procedure".into(), attribute: "Smoking".into(),
//! #                          domain: "class".into() },
//! #         &["'Y' <- PacksPerDay > 0", "'N' <- PacksPerDay <= 0"]).unwrap()
//! #         .bind(&tree, &schema).unwrap();
//! #     let naive = Table::from_rows(tool.forms[0].naive_schema(),
//! #         vec![vec![Value::Int(1), Value::Int(2)]]).unwrap();
//! #     (ec, c, naive)
//! # }
//! let (entity, smokes, naive) = classifiers();
//! let engine = Engine::build(
//!     "cori", naive, &entity, &[&smokes],
//!     EngineConfig::default(),
//! ).unwrap();
//!
//! // Sessions query snapshots; subscriptions receive pushed deltas.
//! let session = engine.session();
//! let mut sub = session.subscribe(&Plan::scan("Procedure")).unwrap();
//! assert_eq!(sub.rows().len(), 1);
//!
//! // A refresh installs generation 1 and pushes the delta.
//! engine.update(|cat| {
//!     cat.insert("cori", "Procedure", vec![Value::Int(2), Value::Int(0)])
//! }).unwrap();
//! sub.sync().unwrap();
//! assert_eq!(sub.generation(), 1);
//! assert_eq!(sub.rows().len(), 2);
//! // Byte-identity: the mirror equals a fresh query on the new snapshot.
//! let fresh = engine.session().query(&Plan::scan("Procedure")).unwrap();
//! assert_eq!(sub.rows(), fresh.rows());
//! ```
//!
//! The pre-service entry points (`Executor::execute`, `EtlWorkflow::run_on`,
//! direct [`StudyStore::refresh`]) remain supported — they are the same
//! executor and store machinery the engine drives.
//!
//! [`Change`]: guava_relational::delta::Change
//! [`DeltaPlan`]: guava_relational::delta::DeltaPlan

pub mod config;
pub mod error;
pub mod session;
pub mod subscribe;

pub use config::EngineConfig;
pub use error::{ServiceError, ServiceResult};
pub use session::Session;
pub use subscribe::{DeltaEvent, Subscription, SubscriptionId};

use crate::materialize::StudyStore;
use guava_multiclass::classifier::BoundClassifier;
use guava_relational::algebra::Plan;
use guava_relational::database::Database;
use guava_relational::delta::{DeltaCatalog, DeltaPlan, TableChanges, TableDelta};
use guava_relational::error::RelResult;
use guava_relational::exec::Executor;
use guava_relational::Catalog;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// One immutable generation of warehouse state.
///
/// A snapshot is never mutated after installation: refresh builds the
/// next generation aside and atomically swaps the engine's `Arc`.
/// Holding an `Arc<Snapshot>` therefore pins a consistent view — queries
/// against it are repeatable byte-for-byte regardless of concurrent
/// refreshes.
#[derive(Debug, Clone)]
pub struct Snapshot {
    generation: u64,
    store: StudyStore,
    db: Database,
}

impl Snapshot {
    fn new(generation: u64, store: StudyStore) -> Snapshot {
        let db = Self::database_for(&store);
        Snapshot {
            generation,
            store,
            db,
        }
    }

    /// The snapshot's queryable database *views* the store's tables —
    /// one `Arc<Table>` per table, shared between `store` and `db`. A
    /// snapshot never carries a second copy of any table, and a refresh
    /// that leaves a table untouched installs the same pointer in the
    /// next generation.
    fn database_for(store: &StudyStore) -> Database {
        let mut db = Database::new(store.source.clone());
        db.put_shared(Arc::clone(&store.naive_form));
        if let Some(m) = &store.materialized {
            db.put_shared(Arc::clone(&m.table));
        }
        db
    }

    /// The generation number (0 for the engine's initial build; each
    /// refresh increments by exactly one).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The warehouse store at this generation.
    pub fn store(&self) -> &StudyStore {
        &self.store
    }

    /// This generation's queryable database: the naïve form table (under
    /// its form-id name) plus the materialized study table, if the policy
    /// keeps one. Named after the store's source.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Name of the naïve form table inside [`Self::database`].
    pub fn naive_table(&self) -> &str {
        &self.store.naive_form.schema().name
    }

    /// The plan a query of this snapshot runs in place of `plan`:
    /// [`prepare`](guava_relational::optimize::prepare)`(plan, database)`,
    /// or `plan` as written where it does not bind (the executor then
    /// raises that binding error). It evaluates byte-identically to
    /// `plan`, first error included. No statistics are consulted — every
    /// plan the system builds is fixed by its definition (DESIGN.md §17).
    pub fn optimize(&self, plan: &Plan) -> Plan {
        guava_relational::optimize::prepare(plan, &self.db).unwrap_or_else(|| plan.clone())
    }
}

/// A live subscription registered with the engine: the resident
/// differential plan plus the channel its deltas are pushed over.
struct SubEntry {
    id: u64,
    plan: DeltaPlan,
    sender: mpsc::Sender<DeltaEvent>,
}

pub(crate) struct EngineInner {
    exec: Executor,
    entity: BoundClassifier,
    classifiers: Vec<BoundClassifier>,
    /// The currently installed generation. Readers clone the `Arc` under
    /// a briefly-held read lock; the writer swaps it at commit point.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes refreshes (and subscription registration, which must
    /// not interleave with a generation build). Never held while a
    /// reader's query runs.
    write: Mutex<WriteState>,
}

/// State owned by the single writer: the subscription registry and the
/// id counter. Living inside the write mutex makes "register vs refresh"
/// atomicity structural rather than a locking convention.
struct WriteState {
    subs: Vec<SubEntry>,
    next_sub: u64,
    next_session: u64,
}

impl EngineInner {
    fn classifier_refs(&self) -> Vec<&BoundClassifier> {
        self.classifiers.iter().collect()
    }

    /// The installed generation. Its lock is written only to swap one
    /// whole `Arc` in, which a panic cannot leave half done, so a
    /// poisoned lock still holds a complete generation and is read as is.
    fn current(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The writer state. A panic while it was held — in an `update`
    /// closure, a store refresh or a resident plan's refresh — never
    /// installs a generation, but may have advanced some resident plans
    /// past the installed one. So the next holder unregisters every
    /// subscription (each one's `sync` then reports
    /// [`ServiceError::EngineClosed`]) and carries on from the installed
    /// generation.
    fn writer(&self) -> MutexGuard<'_, WriteState> {
        self.write.lock().unwrap_or_else(|poisoned| {
            self.write.clear_poison();
            let mut w = poisoned.into_inner();
            w.subs.clear();
            w
        })
    }
}

/// The warehouse service: owns the generational state, executes
/// refreshes, and fans deltas out to subscriptions.
///
/// `Engine` is a cheap clone-able handle (an `Arc` internally); clones
/// share the same state and may be moved across threads freely. See the
/// [module docs](self) for the protocol and an end-to-end example.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Build an engine owning generation 0.
    ///
    /// The arguments mirror [`StudyStore::build`]: the warehouse is built
    /// from the extracted naïve form under the configured materialization
    /// policy. The engine clones and owns the classifier bindings — they
    /// are applied identically on every refresh, which is what makes
    /// incremental patching byte-identical to a rebuild (§12).
    pub fn build(
        source: &str,
        naive_form: guava_relational::table::Table,
        entity_classifier: &BoundClassifier,
        classifiers: &[&BoundClassifier],
        config: EngineConfig,
    ) -> ServiceResult<Engine> {
        let store = StudyStore::build(
            source,
            naive_form,
            entity_classifier,
            classifiers,
            config.materialization_policy().clone(),
        )?;
        Ok(Engine {
            inner: Arc::new(EngineInner {
                exec: config.executor(),
                entity: entity_classifier.clone(),
                classifiers: classifiers.iter().map(|&c| c.clone()).collect(),
                current: RwLock::new(Arc::new(Snapshot::new(0, store))),
                write: Mutex::new(WriteState {
                    subs: Vec::new(),
                    next_sub: 0,
                    next_session: 0,
                }),
            }),
        })
    }

    /// The currently installed generation's snapshot. A reference-count
    /// bump — the returned snapshot stays valid (and byte-stable) however
    /// many refreshes follow.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.inner.current()
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.inner.current().generation
    }

    /// The executor this engine runs queries and refreshes with.
    pub fn executor(&self) -> &Executor {
        &self.inner.exec
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.inner.writer().subs.len()
    }

    /// Open a session that auto-advances: each query runs against the
    /// latest installed generation.
    pub fn session(&self) -> Session {
        let id = {
            let mut w = self.inner.writer();
            w.next_session += 1;
            w.next_session
        };
        Session::new(self.clone(), id, None)
    }

    /// Open a session pinned to the current generation: every query runs
    /// against this exact snapshot until [`Session::advance`] /
    /// [`Session::unpin`].
    pub fn pinned_session(&self) -> Session {
        let snap = self.snapshot();
        let id = {
            let mut w = self.inner.writer();
            w.next_session += 1;
            w.next_session
        };
        Session::new(self.clone(), id, Some(snap))
    }

    /// Install the next generation from a captured naïve-form delta.
    ///
    /// `delta` must be a position-accurate window against the current
    /// generation's naïve form (§15 invariant D1); a stale or replayed
    /// window is rejected as [`ServiceError::StaleDelta`] *before*
    /// anything is built. On success the new snapshot is installed, every
    /// subscription's resident plan is refreshed, its output delta pushed,
    /// and the new generation number returned. On error nothing is
    /// installed and no event is pushed.
    pub fn refresh(&self, delta: &TableDelta) -> ServiceResult<u64> {
        let mut w = self.inner.writer();
        self.refresh_locked(&mut w, delta)
    }

    /// Capture mutations through a scratch [`DeltaCatalog`] over the
    /// current naïve form and refresh with whatever `f` recorded — the
    /// service-level convenience wrapping capture + [`Engine::refresh`]
    /// in one atomic step (the write lock is held across both, so no
    /// generation can interleave between capture and install).
    ///
    /// `f` sees a catalog holding one database (named after the source)
    /// with the naïve form table; use
    /// [`DeltaCatalog::insert`]/[`delete_where`]/[`update_where`] against
    /// it. Returns `f`'s value and the new generation number.
    ///
    /// [`delete_where`]: DeltaCatalog::delete_where
    /// [`update_where`]: DeltaCatalog::update_where
    pub fn update<R>(
        &self,
        f: impl FnOnce(&mut DeltaCatalog) -> RelResult<R>,
    ) -> ServiceResult<(R, u64)> {
        let mut w = self.inner.writer();
        let snap = self.snapshot();
        let mut scratch = Database::new(snap.store.source.clone());
        scratch.put_shared(Arc::clone(&snap.store.naive_form));
        let mut catalog = Catalog::new();
        catalog.insert(scratch);
        let mut cat = DeltaCatalog::new(catalog);
        let out = f(&mut cat)?;
        let deltas = cat.take_deltas();
        let delta = deltas
            .get(&snap.store.source, snap.naive_table())
            .cloned()
            .unwrap_or(TableDelta {
                pre_len: snap.store.naive_form.len(),
                ..TableDelta::default()
            });
        let generation = self.refresh_locked(&mut w, &delta)?;
        Ok((out, generation))
    }

    /// Register a subscription for `plan` against the current generation.
    /// Called by [`Session::subscribe`]; holding the write lock makes the
    /// baseline exact — the subscription's initial rows are generation
    /// `g` and the first pushed event is generation `g + 1`.
    pub(crate) fn register_subscription(&self, plan: &Plan) -> ServiceResult<Subscription> {
        let mut w = self.inner.writer();
        let snap = self.snapshot();
        let dplan = DeltaPlan::init(plan, &snap.db, &self.inner.exec)?;
        let baseline = dplan.output()?;
        let (tx, rx) = mpsc::channel();
        w.next_sub += 1;
        let id = w.next_sub;
        w.subs.push(SubEntry {
            id,
            plan: dplan,
            sender: tx,
        });
        Ok(Subscription::new(
            SubscriptionId(id),
            baseline,
            snap.generation,
            rx,
            Arc::downgrade(&self.inner),
        ))
    }

    pub(crate) fn unregister_subscription(inner: &Arc<EngineInner>, id: SubscriptionId) {
        inner.writer().subs.retain(|s| s.id != id.0);
    }

    /// The single writer path: validate the delta, build the next
    /// generation aside, refresh resident plans, swap, push. Caller holds
    /// the write mutex.
    fn refresh_locked(&self, w: &mut WriteState, delta: &TableDelta) -> ServiceResult<u64> {
        let snap = self.snapshot();

        // D1 admission check against *this* generation, surfaced as the
        // service-level error. StudyStore::refresh re-verifies (it is
        // usable standalone); the engine classifies the failure.
        if delta.pre_len != snap.store.naive_form.len() {
            return Err(ServiceError::StaleDelta {
                generation: snap.generation,
                detail: format!(
                    "delta captured against {} naïve rows, generation has {}",
                    delta.pre_len,
                    snap.store.naive_form.len()
                ),
            });
        }
        for (pos, row) in &delta.deleted {
            if snap.store.naive_form.row_at(*pos) != Some(row) {
                return Err(ServiceError::StaleDelta {
                    generation: snap.generation,
                    detail: format!("deleted row {pos} does not match the stored naïve form"),
                });
            }
        }

        // Build the next generation off to the side.
        let mut store = snap.store.clone();
        let mdelta = store.refresh(delta, &self.inner.entity, &self.inner.classifier_refs())?;
        let generation = snap.generation + 1;

        // Positional changes of the base tables, in pre-state coordinates,
        // for the resident plans: the naïve form's is the delta itself,
        // the materialized table's the patch the store just applied.
        let mut changes = TableChanges::new();
        changes.set(snap.naive_table(), delta.to_change());
        if let (Some(mdelta), Some(m)) = (mdelta, &store.materialized) {
            changes.set(m.table.schema().name.clone(), mdelta.to_change());
        }
        let next = Arc::new(Snapshot::new(generation, store));

        // Refresh every resident plan against the next generation's
        // database. A plan error does not abort the generation: the event
        // carries the error (exactly what a re-polling client would hit)
        // and the poisoned plan re-initializes on the next refresh.
        let mut events: Vec<(usize, DeltaEvent)> = Vec::with_capacity(w.subs.len());
        for (i, sub) in w.subs.iter_mut().enumerate() {
            let change = sub.plan.refresh(&next.db, &changes, &self.inner.exec);
            events.push((
                i,
                DeltaEvent {
                    generation,
                    change: change.map_err(ServiceError::from),
                },
            ));
        }

        // Commit point: install the generation, then push the deltas.
        *self
            .inner
            .current
            .write()
            .unwrap_or_else(PoisonError::into_inner) = next;
        let mut dead: Vec<usize> = Vec::new();
        for (i, event) in events {
            if w.subs[i].sender.send(event).is_err() {
                dead.push(i); // receiver dropped — unregister below
            }
        }
        for i in dead.into_iter().rev() {
            w.subs.remove(i);
        }
        Ok(generation)
    }
}
