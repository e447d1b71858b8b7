//! Typed simulation configuration: the worker-thread cap.
//!
//! Code constructs and passes an explicit [`SimConfig`]; the
//! `LYNX_SIM_THREADS` environment variable remains available **as an
//! override parsed through the same typed API**
//! ([`SimConfig::from_env`] / [`SimConfig::with_env_overrides`]), so a CI
//! matrix can pin `LYNX_SIM_THREADS=8` without code changes while every
//! programmatic consumer goes through one validated surface.

/// Environment variable overriding [`SimConfig::threads`].
pub const ENV_THREADS: &str = "LYNX_SIM_THREADS";
/// Formerly selected the event-queue backend. No longer read by the
/// engine, which has a single event queue; kept so tools that refuse to
/// run under stale engine overrides can still name it.
pub const ENV_SCHED: &str = "LYNX_SCHED";

/// Typed engine configuration: how many worker threads a partitioned run
/// may use.
///
/// `threads` is a *cap*, not a layout: the shard→thread assignment is
/// `shard_id % threads`, and because every shard's execution depends only
/// on its own event stream (see [`shard`](crate::shard)), the same seed
/// produces byte-identical traces and counters at any thread count.
///
/// ```
/// use lynx_sim::SimConfig;
///
/// let cfg = SimConfig::new().threads(8);
/// assert_eq!(cfg.threads, 8);
/// assert!(cfg.validate().is_ok());
/// assert!(SimConfig::new().threads(0).validate().is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Worker threads available to a partitioned run (≥ 1). A plain
    /// single-[`Sim`](crate::Sim) run always uses one thread regardless.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig { threads: 1 }
    }
}

impl SimConfig {
    /// The default configuration: one thread.
    pub fn new() -> SimConfig {
        SimConfig::default()
    }

    /// Sets the worker-thread cap (validated by [`SimConfig::validate`]).
    pub fn threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads;
        self
    }

    /// The default configuration with environment overrides applied —
    /// the one entry point through which `LYNX_SIM_THREADS` reaches the
    /// engine.
    pub fn from_env() -> SimConfig {
        SimConfig::default().with_env_overrides()
    }

    /// Applies `LYNX_SIM_THREADS` on top of `self`.
    ///
    /// An unset or unparsable variable leaves the field untouched, so a
    /// typed configuration is never silently degraded by a stray
    /// environment.
    pub fn with_env_overrides(mut self) -> SimConfig {
        if let Ok(v) = std::env::var(ENV_THREADS) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    self.threads = n;
                }
            }
        }
        self
    }
    /// Checks the configuration, returning a human-readable reason for
    /// the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be >= 1".to_string());
        }
        if self.threads > 1024 {
            return Err(format!(
                "threads = {} is beyond any plausible host",
                self.threads
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_threaded() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.threads, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_setters_compose() {
        assert_eq!(SimConfig::new().threads(4).threads, 4);
    }

    #[test]
    fn validation_bounds_threads() {
        assert!(SimConfig::new().threads(0).validate().is_err());
        assert!(SimConfig::new().threads(1025).validate().is_err());
        assert!(SimConfig::new().threads(1024).validate().is_ok());
    }
}
