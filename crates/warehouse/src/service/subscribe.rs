//! Live subscriptions: client-side mirrors fed by pushed deltas.
//!
//! A [`Subscription`] is the receiving half of the engine's push
//! channel. The engine owns the resident
//! [`DeltaPlan`](guava_relational::delta::DeltaPlan); the subscription
//! owns a mirror, a persistent [`Table`], and moves it by each pushed
//! [`Change`] in generation order ([`Change::apply_to`]). The contract
//! (module docs of [`service`](crate::service), DESIGN.md §16): after
//! [`Subscription::sync`], the mirror is byte-identical to re-running the
//! subscribed plan on the generation it reports — without the
//! subscription ever re-executing the plan.
//!
//! Dropping a subscription unregisters it from the engine (directly if
//! the engine is still alive, or implicitly at the next refresh when the
//! engine notices the closed channel), so abandoned standing queries
//! cost nothing.

use crate::service::error::{ServiceError, ServiceResult};
use crate::service::{Engine, EngineInner};
use guava_relational::delta::Change;
use guava_relational::schema::Schema;
use guava_relational::table::{Row, Table};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Weak;

/// Opaque identifier of a subscription within its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(pub(crate) u64);

/// One pushed refresh notification: the generation it installs and how
/// the subscribed plan's output changed relative to the previous
/// generation.
///
/// `change` is a `Result` because a refresh can poison the resident plan
/// — the event then carries exactly the error a re-polling client would
/// have hit, and the *next* event carries the recovery
/// [`Change::Full`] (the plan re-initializes from scratch, §15).
#[derive(Debug, Clone)]
pub struct DeltaEvent {
    /// The generation this event installs.
    pub generation: u64,
    /// Positional change of the plan output, or the refresh error.
    pub change: ServiceResult<Change>,
}

/// The client half of a standing query: a mirror of the plan's output
/// plus the channel the engine pushes [`DeltaEvent`]s over.
///
/// Use [`Self::sync`] to drain pending events into the mirror, or
/// [`Self::try_next`] to consume events one at a time (inspecting each
/// delta before it is applied).
pub struct Subscription {
    id: SubscriptionId,
    /// Starts out sharing the resident plan's storage; each event patches
    /// it in O(delta).
    mirror: Table,
    generation: u64,
    rx: Receiver<DeltaEvent>,
    engine: Weak<EngineInner>,
}

impl Subscription {
    pub(crate) fn new(
        id: SubscriptionId,
        baseline: Table,
        generation: u64,
        rx: Receiver<DeltaEvent>,
        engine: Weak<EngineInner>,
    ) -> Subscription {
        Subscription {
            id,
            mirror: baseline,
            generation,
            rx,
            engine,
        }
    }

    /// This subscription's engine-unique id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The subscribed plan's output schema.
    pub fn schema(&self) -> &Schema {
        self.mirror.schema()
    }

    /// The generation the mirror currently reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The mirror — the plan's output at [`Self::generation`]. O(#chunks):
    /// the result shares the mirror's storage.
    pub fn table(&self) -> Table {
        self.mirror.clone()
    }

    /// An owned copy of the mirrored rows, O(rows). Kept for callers that
    /// compare row vectors (the `benchmark/` harness); read
    /// [`Self::table`] instead.
    #[deprecated(
        note = "an O(rows) copy kept for `benchmark/` until ROADMAP item 4 B1(i); \
                read `table`"
    )]
    pub fn rows(&self) -> Vec<Row> {
        self.mirror.rows_from(0)
    }

    /// Receive and apply at most one pending event, without blocking.
    /// Returns the applied event, `None` when no event is pending. An
    /// error event advances the generation cursor (the mirror is stale
    /// until the engine's recovery push) and surfaces the error after
    /// being consumed — identical observability to a re-polling client.
    pub fn try_next(&mut self) -> ServiceResult<Option<DeltaEvent>> {
        match self.rx.try_recv() {
            Ok(event) => {
                self.generation = event.generation;
                match &event.change {
                    Ok(change) => change.apply_to(&mut self.mirror)?,
                    Err(e) => return Err(e.clone()),
                }
                Ok(Some(event))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServiceError::EngineClosed),
        }
    }

    /// Drain every pending event into the mirror; returns how many were
    /// applied. After a successful sync the mirror is byte-identical to
    /// re-running the subscribed plan on the reported generation's
    /// snapshot. A disconnected channel (engine dropped) is only an error
    /// when there are no buffered events left to apply.
    pub fn sync(&mut self) -> ServiceResult<usize> {
        let mut applied = 0;
        loop {
            match self.try_next() {
                Ok(Some(_)) => applied += 1,
                Ok(None) => return Ok(applied),
                Err(ServiceError::EngineClosed) if applied > 0 => return Ok(applied),
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        if let Some(inner) = self.engine.upgrade() {
            Engine::unregister_subscription(&inner, self.id);
        }
    }
}
