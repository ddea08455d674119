//! Error type for pool construction and fault-isolating execution.

use std::fmt;

/// Errors that can occur while constructing or operating a [`crate::ThreadPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A pool must have at least one worker thread.
    ZeroThreads,
    /// The operating system refused to spawn a worker thread.
    SpawnFailed(String),
    /// A task panicked inside a fault-isolating scope
    /// ([`crate::install_try`]). Carries the panic
    /// message (or a placeholder for non-string payloads).
    TaskPanicked {
        /// Stringified panic payload.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::ZeroThreads => write!(f, "thread pool requires at least one thread"),
            PoolError::SpawnFailed(e) => write!(f, "failed to spawn worker thread: {e}"),
            PoolError::TaskPanicked { message } => {
                write!(f, "worker task panicked: {message}")
            }
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

    #[test]
    fn display_task_panicked() {
        let e = PoolError::TaskPanicked {
            message: "index out of bounds".into(),
        };
        let text = e.to_string();
        assert!(text.contains("panicked"));
        assert!(text.contains("index out of bounds"));
    }
}
