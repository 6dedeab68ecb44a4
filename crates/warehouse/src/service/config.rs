//! Engine configuration: explicit builder fields over env defaults.
//!
//! The env-only config path (`GUAVA_EXEC_THREADS`) made the executor's
//! knobs invisible in the API: the only way to pin a
//! configuration was to mutate the process environment. [`EngineConfig`]
//! inverts that: every knob is an explicit builder field. The environment
//! is honored only when asked for — [`EngineConfig::from_env`] starts from
//! [`ExecConfig::from_env`], preserving the hard-error parse behavior (a
//! typo in an env var is still a loud failure, never a silent fallback),
//! and builder calls override on top. [`EngineConfig::default`] ignores
//! the environment entirely: an engine handed to [`Engine::build`] runs
//! the configuration its caller wrote down.
//!
//! [`Engine::build`]: crate::service::Engine::build

use crate::materialize::MaterializationPolicy;
use crate::service::error::ServiceResult;
use guava_relational::exec::{ExecConfig, Executor};

/// Configuration for [`Engine::build`](crate::service::Engine::build):
/// the executor knobs (threads, morsel tuning) plus the
/// warehouse materialization policy.
///
/// Construct with [`EngineConfig::from_env`] (env vars as defaults, hard
/// error on unparsable values — the same contract as
/// [`ExecConfig::from_env`]) or [`EngineConfig::with_exec`] to start from
/// an explicit [`ExecConfig`], then chain builder methods:
///
/// ```
/// use guava_warehouse::service::EngineConfig;
///
/// let cfg = EngineConfig::from_env().unwrap().threads(2).morsel_size(512);
/// assert_eq!(cfg.exec().threads, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    exec: ExecConfig,
    policy: MaterializationPolicy,
}

impl Default for EngineConfig {
    /// Default executor configuration (ignoring the environment) and the
    /// [`MaterializationPolicy::Full`] warehouse policy.
    fn default() -> EngineConfig {
        EngineConfig {
            exec: ExecConfig::default(),
            policy: MaterializationPolicy::Full,
        }
    }
}

impl EngineConfig {
    /// Environment-as-defaults constructor: reads `GUAVA_EXEC_THREADS`
    /// exactly as [`ExecConfig::from_env`] does — unset/empty keeps the
    /// default, anything unparsable is a hard error. Builder methods then
    /// override individual fields without touching the environment again.
    pub fn from_env() -> ServiceResult<EngineConfig> {
        Ok(EngineConfig {
            exec: ExecConfig::from_env()?,
            policy: MaterializationPolicy::Full,
        })
    }

    /// Pure core of [`Self::from_env`] for tests and embedders that carry
    /// the override string explicitly: same grammar, same hard errors, no
    /// process-environment reads (delegates to
    /// [`ExecConfig::from_env_values`]).
    pub fn from_env_values(threads: Option<&str>) -> ServiceResult<EngineConfig> {
        Ok(EngineConfig {
            exec: ExecConfig::from_env_values(threads)?,
            policy: MaterializationPolicy::Full,
        })
    }

    /// Start from an explicit executor configuration, ignoring the
    /// environment entirely.
    pub fn with_exec(exec: ExecConfig) -> EngineConfig {
        EngineConfig {
            exec,
            policy: MaterializationPolicy::Full,
        }
    }

    /// Worker threads for parallel operators (min 1; `1` forces serial).
    pub fn threads(mut self, n: usize) -> EngineConfig {
        self.exec.threads = n.max(1);
        self
    }

    /// Rows per morsel (min 1).
    pub fn morsel_size(mut self, m: usize) -> EngineConfig {
        self.exec.morsel_size = m.max(1);
        self
    }

    /// Minimum input rows before an operator considers going parallel.
    pub fn parallel_threshold(mut self, rows: usize) -> EngineConfig {
        self.exec.parallel_threshold = rows;
        self
    }

    /// Warehouse materialization policy for the engine's
    /// [`StudyStore`](crate::materialize::StudyStore).
    pub fn policy(mut self, policy: MaterializationPolicy) -> EngineConfig {
        self.policy = policy;
        self
    }

    /// The resolved executor configuration.
    pub fn exec(&self) -> &ExecConfig {
        &self.exec
    }

    /// The resolved materialization policy.
    pub fn materialization_policy(&self) -> &MaterializationPolicy {
        &self.policy
    }

    /// The executor this configuration describes.
    pub fn executor(&self) -> Executor {
        Executor::with_config(self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_then_builder_overrides() {
        let env = EngineConfig::from_env_values(Some("3")).unwrap();
        assert_eq!(env.exec().threads, 3);
        let cfg = env.clone().morsel_size(64).threads(5);
        assert_eq!(cfg.exec().threads, 5);
        // Untouched fields keep the env layer.
        assert_eq!(cfg.exec().parallel_threshold, env.exec().parallel_threshold);
    }

    #[test]
    fn env_hard_errors_preserved() {
        // The builder path must not soften the env grammar: unparsable
        // values stay hard errors, exactly as ExecConfig::from_env.
        assert!(EngineConfig::from_env_values(Some("two")).is_err());
        // Unset / empty / "0" keep defaults.
        for auto in [None, Some(""), Some("0")] {
            let auto = EngineConfig::from_env_values(auto).unwrap();
            assert_eq!(auto.exec(), &ExecConfig::default());
        }
    }

    #[test]
    fn explicit_exec_and_policy() {
        let cfg = EngineConfig::with_exec(ExecConfig::serial())
            .policy(MaterializationPolicy::OnDemand)
            .morsel_size(0)
            .parallel_threshold(1);
        assert_eq!(cfg.exec().threads, 1);
        assert_eq!(cfg.exec().morsel_size, 1); // clamped
        assert_eq!(cfg.exec().parallel_threshold, 1);
        assert_eq!(
            cfg.materialization_policy(),
            &MaterializationPolicy::OnDemand
        );
        assert_eq!(cfg.executor().config(), cfg.exec());
    }
}
