//! Engine configuration: the two things an [`Engine`] is built with.
//!
//! How plans use the machine is the [`Executor`]'s business, so the
//! engine's configuration holds one rather than mirroring its knobs, and
//! nothing here (or anywhere else) reads the process environment: an
//! engine handed to [`Engine::build`] runs the configuration its caller
//! wrote down, and [`EngineConfig::default`] is what the code works out
//! for itself.
//!
//! [`Engine`]: crate::service::Engine
//! [`Engine::build`]: crate::service::Engine::build

use crate::materialize::MaterializationPolicy;
use guava_relational::exec::Executor;

/// Configuration for [`Engine::build`](crate::service::Engine::build):
/// the executor every query and refresh runs on, plus the warehouse
/// materialization policy.
///
/// ```
/// use guava_relational::exec::Executor;
/// use guava_warehouse::service::EngineConfig;
///
/// let exec = Executor::new().threads(2).morsel_size(512);
/// let cfg = EngineConfig::default().with_executor(exec);
/// assert_eq!(cfg.executor(), exec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    executor: Executor,
    policy: MaterializationPolicy,
}

impl Default for EngineConfig {
    /// The default executor and the [`MaterializationPolicy::Full`]
    /// warehouse policy.
    fn default() -> EngineConfig {
        EngineConfig {
            executor: Executor::new(),
            policy: MaterializationPolicy::Full,
        }
    }
}

impl EngineConfig {
    /// The executor the engine runs queries and refreshes with.
    pub fn with_executor(mut self, executor: Executor) -> EngineConfig {
        self.executor = executor;
        self
    }

    /// Warehouse materialization policy for the engine's
    /// [`StudyStore`](crate::materialize::StudyStore).
    pub fn policy(mut self, policy: MaterializationPolicy) -> EngineConfig {
        self.policy = policy;
        self
    }

    /// The configured materialization policy.
    pub fn materialization_policy(&self) -> &MaterializationPolicy {
        &self.policy
    }

    /// The configured executor.
    pub fn executor(&self) -> Executor {
        self.executor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_exec_and_policy() {
        // Exhaustive on purpose: the configuration is an executor and a
        // policy; the executor's knobs are set on the executor.
        let EngineConfig { executor, policy } = EngineConfig::default();
        assert_eq!(executor, Executor::new());
        assert_eq!(policy, MaterializationPolicy::Full);

        let serial = Executor::new().threads(1).parallel_threshold(1);
        let cfg = EngineConfig::default()
            .policy(MaterializationPolicy::OnDemand)
            .with_executor(serial);
        assert_eq!(cfg.executor(), serial);
        assert_eq!(
            cfg.materialization_policy(),
            &MaterializationPolicy::OnDemand
        );
    }
}
