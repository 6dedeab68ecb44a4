//! Session handles: concurrent query execution against a pinned or
//! auto-advancing snapshot.
//!
//! A [`Session`] is the reader-side API of the service. It is cheap to
//! open (an engine-handle clone plus an id), safe to move to another
//! thread, and never blocks — or is blocked by — a refresh: queries run
//! against an `Arc<Snapshot>` that stays immutable however many
//! generations the engine installs meanwhile.
//!
//! Two advancement modes, switched per session:
//!
//! * **auto-advancing** (default, [`Engine::session`]): each query picks
//!   up the latest installed generation at call time;
//! * **pinned** ([`Engine::pinned_session`] or [`Session::pin`]): every
//!   query runs against one fixed generation — repeatable reads across
//!   an analysis, byte-for-byte, until [`Session::advance`] or
//!   [`Session::unpin`].

use crate::service::error::ServiceResult;
use crate::service::subscribe::Subscription;
use crate::service::{Engine, Snapshot};
use guava_relational::algebra::Plan;
use guava_relational::table::Table;
use guava_relational::value::Value;
use std::sync::Arc;

/// A reader handle onto an [`Engine`]: query execution, classifier
/// lookups, and subscription registration. See the [module
/// docs](self) for the snapshot-advancement modes.
pub struct Session {
    engine: Engine,
    id: u64,
    pinned: Option<Arc<Snapshot>>,
}

impl Session {
    pub(crate) fn new(engine: Engine, id: u64, pinned: Option<Arc<Snapshot>>) -> Session {
        Session { engine, id, pinned }
    }

    /// This session's id (unique per engine; diagnostics only).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine this session reads from.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The snapshot the next query would run against: the pinned one, or
    /// the engine's current generation when auto-advancing. On an
    /// auto-advancing session this and a following [`Self::query`] are two
    /// separate reads of the current generation, and a refresh may install
    /// between them; pin the session to query the snapshot returned here.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        match &self.pinned {
            Some(s) => s.clone(),
            None => self.engine.snapshot(),
        }
    }

    /// The generation the next query would observe.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// True when the session is pinned to a fixed generation.
    pub fn is_pinned(&self) -> bool {
        self.pinned.is_some()
    }

    /// Pin the session to the generation it currently observes.
    /// Subsequent queries are repeatable byte-for-byte until
    /// [`Self::unpin`] or [`Self::advance`].
    pub fn pin(&mut self) -> Arc<Snapshot> {
        let snap = self.snapshot();
        self.pinned = Some(snap.clone());
        snap
    }

    /// Return to auto-advancing: each query reads the latest generation.
    pub fn unpin(&mut self) {
        self.pinned = None;
    }

    /// Re-pin to the engine's current generation (a pinned session's
    /// explicit "catch up"; a no-op observation for auto-advancing ones).
    /// Returns the now-observed snapshot.
    pub fn advance(&mut self) -> Arc<Snapshot> {
        if self.pinned.is_some() {
            self.pinned = Some(self.engine.snapshot());
        }
        self.snapshot()
    }

    /// Execute a plan against this session's snapshot, with the engine's
    /// executor. Byte-identical to that executor's `execute` over the
    /// snapshot database — the service API drives the same machinery. An
    /// auto-advancing session reads the current generation afresh here, so
    /// it need not be the one an earlier [`Self::snapshot`] returned.
    pub fn query(&self, plan: &Plan) -> ServiceResult<Table> {
        let snap = self.snapshot();
        Ok(self.engine.executor().execute(plan, snap.database())?)
    }

    /// Fetch one classifier's output column as `(instance_id, value)`
    /// pairs from this session's snapshot — the service-level
    /// [`StudyStore::classifier_column`], resolving through materialized
    /// columns, derivations, or on-demand evaluation per the policy.
    ///
    /// [`StudyStore::classifier_column`]: crate::materialize::StudyStore::classifier_column
    pub fn classifier_column(&self, name: &str) -> ServiceResult<Vec<(Value, Value)>> {
        let snap = self.snapshot();
        let inner = &self.engine.inner;
        Ok(snap
            .store()
            .classifier_column(name, &inner.entity, &inner.classifier_refs())?)
    }

    /// Register a standing query: the engine keeps a resident
    /// [`DeltaPlan`](guava_relational::delta::DeltaPlan) for `plan` and
    /// pushes its output delta on every refresh. The returned
    /// [`Subscription`] starts with the plan's rows at the generation
    /// current *now* (registration is atomic with respect to refresh, so
    /// no generation can fall in the gap), regardless of any pin — pushed
    /// deltas always track the engine's live generations.
    pub fn subscribe(&self, plan: &Plan) -> ServiceResult<Subscription> {
        self.engine.register_subscription(plan)
    }
}
