//! Common error type shared across the whole stack.

use std::fmt;

/// Result alias used throughout the workspace.
pub type IcResult<T> = Result<T, IcError>;

/// Errors raised anywhere in the composed system.
///
/// The variants mirror the failure classes observed in the paper's study of
/// Ignite+Calcite: parse/validation errors, planner failures (including the
/// exploration-budget timeouts of §4.3 and §6.4), unsupported features
/// (e.g. SQL views for TPC-H Q15), and execution-time faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcError {
    /// SQL lexing/parsing failure.
    Parse(String),
    /// Name resolution / type checking failure.
    Bind(String),
    /// The planner could not produce an execution plan.
    Plan(String),
    /// The cost-based planner exceeded its exploration budget
    /// (the paper's "search space too large" Calcite timeout, §6.4).
    PlannerBudgetExceeded {
        /// Rule firings consumed before giving up.
        rules_fired: u64,
        /// The configured firing budget.
        budget: u64,
    },
    /// A feature the composed system does not support (e.g. VIEWs, §6).
    Unsupported(String),
    /// Execution-time failure.
    Exec(String),
    /// Query execution exceeded the configured wall-clock limit
    /// (the paper's four-hour runtime cap, §5.2).
    ExecTimeout {
        /// The configured wall-clock cap in milliseconds.
        limit_ms: u64,
    },
    /// Query execution exceeded the configured memory budget — the
    /// "system resource limit" failures the paper observes on the
    /// baseline's unoptimized plans.
    MemoryLimit {
        /// The limit (cells) that fired — per-query cap or pool capacity.
        limit_rows: u64,
    },
    /// Catalog errors: unknown table/column/index, duplicate definitions.
    Catalog(String),
    /// A site needed by the query is crashed/unreachable, or a link fault
    /// lost an exchange message. Retryable: the coordinator replans
    /// against the surviving topology (backup partition owners substituted
    /// for dead sites) and tries again.
    SiteUnavailable {
        /// The crashed/unreachable site's id.
        site: usize,
        /// What failed (lost exchange message, dead partition owner, …).
        detail: String,
    },
    /// The admission controller shed this query: the wait queue is full or
    /// the deadline cannot be met at the current load. Retryable by the
    /// *client* after `retry_after_ms` — the coordinator's failover loop
    /// deliberately does not retry it (that would defeat the shedding).
    Overloaded {
        /// Suggested client back-off before resubmitting.
        retry_after_ms: u64,
    },
    /// The cluster memory governor revoked this query's lease under
    /// pressure (it held the largest grant when another query could not be
    /// served). `lease_cells` is the grant reclaimed. Retryable by the
    /// client once the pressure subsides; never retried by the failover
    /// loop, so a revoked query frees its budget immediately.
    ResourcesRevoked {
        /// The grant (cells) reclaimed from the revoked lease.
        lease_cells: u64,
    },
    /// The bounded failover loop gave up: every attempt failed with a
    /// retryable error. `chain` records each attempt's failure in order.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// Each attempt's failure, in order.
        chain: Vec<String>,
    },
    /// A replicated write observed a different per-partition version than
    /// the one it was prepared against: a concurrent writer (or a promotion
    /// that surfaced a stale replica) moved the partition underneath it.
    /// Retryable: the writer re-reads the current version and re-applies.
    WriteConflict {
        /// The partition whose version check failed.
        partition: usize,
        /// The version the write was prepared against.
        expected_version: u64,
        /// The version actually found at commit time.
        found_version: u64,
    },
    /// The partition addressed by a read or write is mid-migration (its
    /// owner moved between planning and execution, its data is being copied
    /// to a joining site, or its primary lags the newest copy). Retryable:
    /// the coordinator repairs, refreshes the membership snapshot and
    /// re-routes.
    RebalanceInProgress {
        /// The partition being migrated/promoted.
        partition: usize,
    },
    /// An internal invariant was broken (a "this cannot happen" state such
    /// as an operator polled before open or an unregistered exchange node).
    /// Not retryable: the bug is in the engine, not the topology.
    Internal(String),
    /// Not a failure but the sight of one: this thread of a query stopped
    /// because the query was already over — its control block's stop cell was
    /// set, or the peer of an exchange link unwound.
    /// The cause, if there is one, is in the cell, which refuses to store this
    /// marker; `execute_plan` never returns it.
    Cancelled,
}

impl fmt::Display for IcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcError::Parse(m) => write!(f, "parse error: {m}"),
            IcError::Bind(m) => write!(f, "bind error: {m}"),
            IcError::Plan(m) => write!(f, "planner error: {m}"),
            IcError::PlannerBudgetExceeded { rules_fired, budget } => write!(
                f,
                "planner exploration budget exceeded: {rules_fired} rule firings (budget {budget})"
            ),
            IcError::Unsupported(m) => write!(f, "unsupported: {m}"),
            IcError::Exec(m) => write!(f, "execution error: {m}"),
            IcError::ExecTimeout { limit_ms } => {
                write!(f, "execution exceeded the {limit_ms} ms runtime limit")
            }
            IcError::MemoryLimit { limit_rows } => {
                write!(f, "execution exceeded the {limit_rows}-row buffered-memory limit")
            }
            IcError::Catalog(m) => write!(f, "catalog error: {m}"),
            IcError::SiteUnavailable { site, detail } => {
                write!(f, "site{site} unavailable: {detail}")
            }
            IcError::Overloaded { retry_after_ms } => {
                write!(f, "cluster overloaded: query shed by admission control, retry after {retry_after_ms} ms")
            }
            IcError::ResourcesRevoked { lease_cells } => {
                write!(
                    f,
                    "memory lease revoked under cluster pressure ({lease_cells} buffered cells reclaimed); retry later"
                )
            }
            IcError::RetriesExhausted { attempts, chain } => {
                write!(f, "failover exhausted after {attempts} attempt(s): ")?;
                write!(f, "{}", chain.join(" -> "))
            }
            IcError::WriteConflict { partition, expected_version, found_version } => write!(
                f,
                "write conflict on partition {partition}: expected version {expected_version}, found {found_version}"
            ),
            IcError::RebalanceInProgress { partition } => {
                write!(f, "partition {partition} is rebalancing; retry against the new owner map")
            }
            IcError::Internal(m) => write!(f, "internal error: {m}"),
            IcError::Cancelled => write!(f, "stopped: the query ended on another of its threads"),
        }
    }
}

impl std::error::Error for IcError {}

/// The message of a caught panic (`catch_unwind` / `JoinHandle::join`),
/// for attributing it in an error or a fuzz report.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl IcError {
    /// True when the error represents a planner failure rather than a user
    /// error — the class the paper counts as "failed to generate execution
    /// plans" (Q2, Q5, Q9 on the baseline).
    pub fn is_planner_failure(&self) -> bool {
        matches!(
            self,
            IcError::Plan(_) | IcError::PlannerBudgetExceeded { .. }
        )
    }

    /// True when the *client* may usefully resubmit the query: the failure
    /// was transient (a dead site, admission-control shedding, or a revoked
    /// memory lease) rather than a property of the query itself.
    pub fn is_retryable(&self) -> bool {
        self.retry_class() != RetryClass::Terminal
    }

    /// True when the coordinator's *internal* failover loop should replan
    /// and retry. Narrower than [`is_retryable`](Self::is_retryable) by
    /// construction — both read one [`RetryClass`]: shed
    /// ([`Overloaded`](IcError::Overloaded)) and revoked
    /// ([`ResourcesRevoked`](IcError::ResourcesRevoked)) queries must exit
    /// the cluster immediately — retrying them in-process would hold their
    /// admission slot and defeat the governor's back-pressure. The failover
    /// loop in `Cluster::query` loops exactly on this predicate.
    pub fn is_failover_retryable(&self) -> bool {
        self.retry_class() == RetryClass::Failover
    }

    /// The one classification of every variant. It names each variant and
    /// has no wildcard arm — clippy's `wildcard_enum_match_arm` is denied
    /// here — so a new variant does not compile until someone decides
    /// whether its failure is transient or terminal. A wildcard once
    /// classified a new transient variant as terminal, which the failover
    /// loop then surfaced to clients as a hard error.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn retry_class(&self) -> RetryClass {
        match self {
            // Replan-and-retry in-process: the coordinator refreshes its
            // membership/version snapshot and the next attempt can succeed
            // without the client resubmitting. Write conflicts resolve once
            // the competing writer commits; rebalance windows close once
            // the chunked migration or promotion finishes.
            IcError::SiteUnavailable { .. }
            | IcError::WriteConflict { .. }
            | IcError::RebalanceInProgress { .. } => RetryClass::Failover,
            // Shed/revoked: retryable by the client, not in-process.
            IcError::Overloaded { .. } | IcError::ResourcesRevoked { .. } => RetryClass::Client,
            // Terminal: properties of the query text, the plan space, or
            // the configured limits — resubmitting the same query hits the
            // same wall. The sight of a stop is nothing to retry either:
            // the cause decides that.
            IcError::Parse(_)
            | IcError::Bind(_)
            | IcError::Plan(_)
            | IcError::PlannerBudgetExceeded { .. }
            | IcError::Unsupported(_)
            | IcError::Exec(_)
            | IcError::ExecTimeout { .. }
            | IcError::MemoryLimit { .. }
            | IcError::Catalog(_)
            | IcError::RetriesExhausted { .. }
            | IcError::Internal(_)
            | IcError::Cancelled => RetryClass::Terminal,
        }
    }
}

/// How a failure may be retried — each class's retries include the ones
/// after it, so failover-retryable implies retryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryClass {
    /// A property of the query, its plan space or the configured limits.
    Terminal,
    /// Transient, but only the client may resubmit (shed or revoked).
    Client,
    /// Transient, and the coordinator's failover loop replans and retries.
    Failover,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(IcError::Parse("x".into()).to_string().contains("parse"));
        assert!(IcError::PlannerBudgetExceeded { rules_fired: 10, budget: 5 }
            .to_string()
            .contains("budget"));
        assert!(IcError::ExecTimeout { limit_ms: 100 }.to_string().contains("100"));
    }

    #[test]
    fn planner_failure_classification() {
        assert!(IcError::Plan("no plan".into()).is_planner_failure());
        assert!(IcError::PlannerBudgetExceeded { rules_fired: 1, budget: 1 }.is_planner_failure());
        assert!(!IcError::Parse("p".into()).is_planner_failure());
        assert!(!IcError::ExecTimeout { limit_ms: 1 }.is_planner_failure());
    }

    /// Each variant's class, written down once more: an exhaustive match
    /// without a wildcard, so a new variant does not compile here until its
    /// expected class is stated.
    fn expected_class(e: &IcError) -> RetryClass {
        match e {
            IcError::Parse(_) => RetryClass::Terminal,
            IcError::Bind(_) => RetryClass::Terminal,
            IcError::Plan(_) => RetryClass::Terminal,
            IcError::PlannerBudgetExceeded { .. } => RetryClass::Terminal,
            IcError::Unsupported(_) => RetryClass::Terminal,
            IcError::Exec(_) => RetryClass::Terminal,
            IcError::ExecTimeout { .. } => RetryClass::Terminal,
            IcError::MemoryLimit { .. } => RetryClass::Terminal,
            IcError::Catalog(_) => RetryClass::Terminal,
            IcError::SiteUnavailable { .. } => RetryClass::Failover,
            IcError::Overloaded { .. } => RetryClass::Client,
            IcError::ResourcesRevoked { .. } => RetryClass::Client,
            IcError::RetriesExhausted { .. } => RetryClass::Terminal,
            IcError::WriteConflict { .. } => RetryClass::Failover,
            IcError::RebalanceInProgress { .. } => RetryClass::Failover,
            IcError::Internal(_) => RetryClass::Terminal,
            IcError::Cancelled => RetryClass::Terminal,
        }
    }

    #[test]
    fn every_variant_has_its_stated_class() {
        let s = || "x".to_string();
        let all = [
            IcError::Parse(s()),
            IcError::Bind(s()),
            IcError::Plan(s()),
            IcError::PlannerBudgetExceeded { rules_fired: 1, budget: 1 },
            IcError::Unsupported(s()),
            IcError::Exec(s()),
            IcError::ExecTimeout { limit_ms: 1 },
            IcError::MemoryLimit { limit_rows: 1 },
            IcError::Catalog(s()),
            IcError::SiteUnavailable { site: 0, detail: s() },
            IcError::Overloaded { retry_after_ms: 1 },
            IcError::ResourcesRevoked { lease_cells: 1 },
            IcError::RetriesExhausted { attempts: 1, chain: vec![s()] },
            IcError::WriteConflict { partition: 0, expected_version: 1, found_version: 2 },
            IcError::RebalanceInProgress { partition: 0 },
            IcError::Internal(s()),
            IcError::Cancelled,
        ];
        for e in &all {
            assert_eq!(e.retry_class(), expected_class(e), "{e:?}");
            assert_eq!(e.is_retryable(), expected_class(e) != RetryClass::Terminal, "{e:?}");
            assert_eq!(e.is_failover_retryable(), expected_class(e) == RetryClass::Failover, "{e:?}");
        }
    }

    #[test]
    fn retryable_classification() {
        let site = IcError::SiteUnavailable { site: 2, detail: "crashed".into() };
        assert!(site.is_retryable());
        assert!(site.is_failover_retryable());
        assert!(site.to_string().contains("site2"));
        let shed = IcError::Overloaded { retry_after_ms: 25 };
        assert!(shed.is_retryable());
        assert!(!shed.is_failover_retryable());
        assert!(shed.to_string().contains("25 ms"));
        let revoked = IcError::ResourcesRevoked { lease_cells: 4096 };
        assert!(revoked.is_retryable());
        assert!(!revoked.is_failover_retryable());
        assert!(revoked.to_string().contains("4096"));
        assert!(!IcError::Exec("boom".into()).is_retryable());
        assert!(!IcError::Internal("bad state".into()).is_retryable());
        assert!(IcError::Internal("bad state".into()).to_string().contains("internal"));
        assert!(!IcError::ExecTimeout { limit_ms: 1 }.is_retryable());
        // The sight of a stop is nothing to retry: the cause decides that.
        assert!(!IcError::Cancelled.is_retryable() && !IcError::Cancelled.is_failover_retryable());
        let exhausted = IcError::RetriesExhausted {
            attempts: 3,
            chain: vec!["a".into(), "b".into(), "c".into()],
        };
        assert!(!exhausted.is_retryable());
        let msg = exhausted.to_string();
        assert!(msg.contains("3 attempt"));
        assert!(msg.contains("a -> b -> c"));
    }

    /// Pinned semantics for the DML-era variants: both are transient *and*
    /// safe to retry inside the coordinator's failover loop (unlike
    /// shed/revoked errors, retrying them does not defeat back-pressure —
    /// the conflicting writer or the migration makes progress regardless).
    #[test]
    fn write_conflict_retry_semantics() {
        let conflict =
            IcError::WriteConflict { partition: 7, expected_version: 3, found_version: 5 };
        assert!(conflict.is_retryable());
        assert!(conflict.is_failover_retryable());
        assert!(!conflict.is_planner_failure());
        let msg = conflict.to_string();
        assert!(msg.contains("partition 7"));
        assert!(msg.contains("expected version 3"));
        assert!(msg.contains("found 5"));
    }

    #[test]
    fn rebalance_in_progress_retry_semantics() {
        let moving = IcError::RebalanceInProgress { partition: 12 };
        assert!(moving.is_retryable());
        assert!(moving.is_failover_retryable());
        assert!(!moving.is_planner_failure());
        assert!(moving.to_string().contains("partition 12"));
    }
}
