//! Error types surfaced by jobs.

use std::fmt;

/// Errors a Spark job (action) can fail with.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so new failure modes (checkpoint corruption, transient storage errors,
/// …) can be added without breaking consumers.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparkError {
    /// A task failure injected by the test harness (consumed on retry).
    InjectedFailure {
        /// RDD whose task failed.
        rdd: usize,
        /// Partition index of the failed task.
        partition: usize,
    },
    /// A side-channel blob was missing when a task (re)ran — the failure
    /// mode that makes the paper's collect/broadcast solvers "impure".
    SideChannelMiss {
        /// Key of the missing blob.
        key: String,
        /// Which backend was consulted (`"memory"` or `"disk:<dir>"`).
        backend: String,
        /// Existing keys closest to the missing one (longest shared
        /// prefix), to make typo'd or stale keys obvious in logs.
        nearest: Vec<String>,
    },
    /// A side-channel blob exists under this key but with a different type.
    SideChannelType {
        /// Key of the mistyped blob.
        key: String,
    },
    /// A side-channel blob failed an integrity check (framing, checksum)
    /// when read back — corrupted at rest or in flight.
    SideChannelCorrupt {
        /// Key of the corrupted blob.
        key: String,
        /// What exactly failed to verify.
        detail: String,
    },
    /// A transient storage error: the read failed this time but a retry
    /// may succeed (the chaos harness uses this to model flaky I/O).
    SideChannelTransient {
        /// Key whose read hit the transient fault.
        key: String,
    },
    /// A task exhausted its retry budget. Wraps the error from the final
    /// attempt with scheduling context (which RDD, partition, attempts).
    TaskFailed {
        /// Human-readable name of the RDD whose task failed.
        rdd_name: String,
        /// Numeric id of the RDD whose task failed.
        rdd: usize,
        /// Partition index of the failed task.
        partition: usize,
        /// Number of attempts made before giving up.
        attempts: usize,
        /// The error from the last attempt.
        source: Box<SparkError>,
    },
    /// The job was cancelled from outside (e.g. a service `DELETE
    /// /jobs/<id>` or a shutdown drain). Cancellation pre-empts the retry
    /// budget: a cancelled task fails immediately, without backoff.
    Cancelled {
        /// Why the job was cancelled (who asked).
        reason: String,
    },
    /// A partition of a lineage-truncated RDD (see
    /// [`crate::Rdd::local_checkpoint`]) is not in memory: it was not cached
    /// when the lineage was cut, or `unpersist` dropped it since, and there
    /// is no lineage left to recompute it from.
    CheckpointMissing {
        /// RDD whose partition is missing.
        rdd: usize,
        /// Index of the missing partition.
        partition: usize,
    },
    /// Error raised by user code inside a `try_*` transformation.
    User(String),
}

impl SparkError {
    /// Strip [`SparkError::TaskFailed`] context layers and return the
    /// underlying cause. On any other variant this is the error itself.
    pub fn root(&self) -> &SparkError {
        let mut err = self;
        while let SparkError::TaskFailed { source, .. } = err {
            err = source;
        }
        err
    }

    /// Wrap this error with task scheduling context (used by the driver
    /// when a task exhausts its retry budget). Idempotent per layer: an
    /// error already carrying `TaskFailed` context for the same rdd and
    /// partition is returned unchanged.
    pub(crate) fn with_task_context(
        self,
        rdd_name: &str,
        rdd: usize,
        partition: usize,
        attempts: usize,
    ) -> SparkError {
        match &self {
            SparkError::TaskFailed {
                rdd: r,
                partition: p,
                ..
            } if *r == rdd && *p == partition => self,
            _ => SparkError::TaskFailed {
                rdd_name: rdd_name.to_string(),
                rdd,
                partition,
                attempts,
                source: Box::new(self),
            },
        }
    }
}

impl fmt::Display for SparkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparkError::InjectedFailure { rdd, partition } => {
                write!(
                    f,
                    "injected failure in task (rdd {rdd}, partition {partition})"
                )
            }
            SparkError::SideChannelMiss {
                key,
                backend,
                nearest,
            } => {
                write!(
                    f,
                    "side-channel blob '{key}' is missing from {backend} backend \
                     (storage is not fault-tolerant)"
                )?;
                if !nearest.is_empty() {
                    write!(f, "; nearest existing keys: {}", nearest.join(", "))?;
                }
                Ok(())
            }
            SparkError::SideChannelType { key } => {
                write!(f, "side-channel blob '{key}' has unexpected type")
            }
            SparkError::SideChannelCorrupt { key, detail } => {
                write!(f, "side-channel blob '{key}' is corrupted: {detail}")
            }
            SparkError::SideChannelTransient { key } => {
                write!(
                    f,
                    "transient storage error reading side-channel blob '{key}'"
                )
            }
            SparkError::TaskFailed {
                rdd_name,
                rdd,
                partition,
                attempts,
                source,
            } => {
                write!(
                    f,
                    "task failed (rdd '{rdd_name}' #{rdd}, partition {partition}, \
                     {attempts} attempts): {source}"
                )
            }
            SparkError::Cancelled { reason } => write!(f, "job cancelled: {reason}"),
            SparkError::CheckpointMissing { rdd, partition } => write!(
                f,
                "partition {partition} of lineage-truncated rdd {rdd} is no longer cached \
                 and cannot be recomputed"
            ),
            SparkError::User(msg) => write!(f, "user error: {msg}"),
        }
    }
}

impl std::error::Error for SparkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparkError::TaskFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Result alias for job outcomes.
pub type SparkResult<T> = Result<T, SparkError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_unwraps_nested_task_context() {
        let inner = SparkError::SideChannelTransient { key: "k".into() };
        let wrapped = inner
            .clone()
            .with_task_context("stage", 7, 2, 4)
            .with_task_context("outer", 9, 0, 4);
        assert_eq!(wrapped.root(), &inner);
    }

    #[test]
    fn task_context_is_idempotent_per_site() {
        let inner = SparkError::User("boom".into());
        let once = inner.clone().with_task_context("stage", 7, 2, 4);
        let twice = once.clone().with_task_context("stage", 7, 2, 4);
        assert_eq!(once, twice);
    }

    #[test]
    fn display_threads_task_context() {
        let err = SparkError::SideChannelMiss {
            key: "cb:0:diag".into(),
            backend: "memory".into(),
            nearest: vec!["cb:1:diag".into()],
        }
        .with_task_context("offcol", 12, 3, 4);
        let text = err.to_string();
        assert!(text.contains("rdd 'offcol' #12"));
        assert!(text.contains("partition 3"));
        assert!(text.contains("4 attempts"));
        assert!(text.contains("cb:0:diag"));
        assert!(text.contains("nearest existing keys: cb:1:diag"));
    }
}
