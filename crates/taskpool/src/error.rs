//! Error type for pool construction.

use std::fmt;

/// Errors that can occur while constructing a [`crate::ThreadPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A pool must have at least one worker thread.
    ZeroThreads,
    /// The operating system refused to spawn a worker thread.
    SpawnFailed(String),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::ZeroThreads => write!(f, "thread pool requires at least one thread"),
            PoolError::SpawnFailed(e) => write!(f, "failed to spawn worker thread: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_zero_threads() {
        assert_eq!(
            PoolError::ZeroThreads.to_string(),
            "thread pool requires at least one thread"
        );
    }

    #[test]
    fn display_spawn_failed() {
        let e = PoolError::SpawnFailed("out of pids".into());
        assert!(e.to_string().contains("out of pids"));
    }
}
