//! Differential fuzzing of the DML write path: seeded interleaved streams
//! of INSERT/UPDATE/DELETE, reads, and topology events (kill, revive,
//! join, leave) against a write-aware reference oracle.
//!
//! The oracle is a `BTreeMap` shadow of the single fuzz table with
//! tri-state knowledge per key:
//!
//! * **known present** with an exact value — the statement that produced
//!   it was acknowledged;
//! * **unknown** — a statement touching the key failed retryably, so the
//!   engine may legally have committed some partition batches of it (the
//!   statement is atomic per partition, not across partitions);
//! * **known absent** — never inserted, or removed by an acknowledged
//!   DELETE.
//!
//! Every read must agree with the oracle on all *known* keys: a missing
//! known-present key is a lost acknowledged write, an extra known-absent
//! key is a resurrected delete, and a wrong value is a torn or stale
//! replica read. Unknown keys are unconstrained until the next
//! acknowledged statement overwrites them.
//!
//! Unlike the query battery ([`crate::sim`]), every scenario builds a
//! fresh cluster — DML mutates state, so cached clusters would leak
//! writes across seeds and break replay determinism.

use crate::oracle::{classify, ErrorClass};
use ic_core::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use ic_net::{FaultPlan, SiteId, SplitMix64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Keys are drawn from a small domain so upserts, targeted updates, and
/// deletes collide with earlier writes instead of spraying fresh rows.
const KEY_DOMAIN: i64 = 48;

/// One step of a DML scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmlOp {
    /// Multi-row upsert; row values are `k * 1000 + op_index`, so every
    /// acknowledged writer stamps keys with a value unique to that step.
    InsertBatch { keys: Vec<i64> },
    /// `UPDATE fz SET v = v + delta WHERE k = key`.
    UpdateKey { key: i64, delta: i64 },
    /// `DELETE FROM fz WHERE k = key`.
    DeleteKey { key: i64 },
    /// `DELETE FROM fz WHERE k < below` — a multi-partition predicate
    /// delete, the worst case for per-partition atomicity.
    DeleteBelow { below: i64 },
    /// Full-table read compared against the oracle.
    Check,
    /// Kill a live site (never the last one).
    Kill,
    /// Revive the most recently killed site.
    Revive,
    /// A fresh site joins and takes migrated replicas.
    Join,
    /// A member leaves gracefully (never below two members).
    Leave,
}

impl DmlOp {
    fn spec(&self) -> String {
        match self {
            DmlOp::InsertBatch { keys } => {
                let ks: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                format!("ins({})", ks.join(","))
            }
            DmlOp::UpdateKey { key, delta } => format!("upd({key},{delta})"),
            DmlOp::DeleteKey { key } => format!("del({key})"),
            DmlOp::DeleteBelow { below } => format!("delbelow({below})"),
            DmlOp::Check => "check".into(),
            DmlOp::Kill => "kill".into(),
            DmlOp::Revive => "revive".into(),
            DmlOp::Join => "join".into(),
            DmlOp::Leave => "leave".into(),
        }
    }
}

/// One fully seed-determined DML fuzz case.
#[derive(Debug, Clone)]
pub struct DmlScenario {
    pub seed: u64,
    pub sites: usize,
    pub ops: Vec<DmlOp>,
}

impl DmlScenario {
    /// Derive scenario `seed` from its own rng stream (domain-separated
    /// from the query-scenario stream in [`crate::sim`]).
    pub fn from_seed(seed: u64) -> DmlScenario {
        const DML_STREAM: u64 = 0x51ab_77e3_0c96_d2f1;
        let mut rng = SplitMix64::new(seed ^ DML_STREAM);
        let sites = 3 + rng.next_below(3) as usize;
        let n_ops = 16 + rng.next_below(24) as usize;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let roll = rng.next_below(100);
            let op = if roll < 35 {
                let n = 1 + rng.next_below(6) as usize;
                let keys: Vec<i64> =
                    (0..n).map(|_| rng.next_below(KEY_DOMAIN as u64) as i64).collect();
                DmlOp::InsertBatch { keys }
            } else if roll < 50 {
                DmlOp::UpdateKey {
                    key: rng.next_below(KEY_DOMAIN as u64) as i64,
                    delta: 1 + rng.next_below(9) as i64,
                }
            } else if roll < 60 {
                DmlOp::DeleteKey { key: rng.next_below(KEY_DOMAIN as u64) as i64 }
            } else if roll < 65 {
                DmlOp::DeleteBelow { below: 1 + rng.next_below(KEY_DOMAIN as u64) as i64 }
            } else if roll < 80 {
                DmlOp::Check
            } else if roll < 86 {
                DmlOp::Kill
            } else if roll < 92 {
                DmlOp::Revive
            } else if roll < 96 {
                DmlOp::Join
            } else {
                DmlOp::Leave
            };
            ops.push(op);
        }
        DmlScenario { seed, sites, ops }
    }

    /// Compact textual form of the op stream (for failure logs).
    pub fn spec(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(DmlOp::spec).collect();
        format!("sites={} ops=[{}]", self.sites, ops.join(" "))
    }
}

/// Outcome of one DML scenario run.
#[derive(Debug, Clone)]
pub struct DmlOutcome {
    /// Deterministic digest: scenario spec + per-op ack log + final table
    /// hash. Identical across replays of the same seed.
    pub digest: String,
    /// First oracle violation, if any.
    pub disagreement: Option<String>,
    /// Checks refused under live faults (a retryable or resource error).
    pub refused_reads: usize,
    /// Write statements that failed (honestly: retryable or resource).
    pub failed_writes: usize,
}

impl DmlOutcome {
    pub fn ok(&self) -> bool {
        self.disagreement.is_none()
    }
}

/// The oracle's knowledge of one key: `Some(v)` = known present with value
/// `v`; `None` = unknown (a failed statement touched it). Keys absent from
/// the map are known absent.
type Shadow = BTreeMap<i64, Option<i64>>;

fn fresh_cluster(sites: usize) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        sites,
        backups: 1,
        variant: SystemVariant::ICPlus,
        network: NetworkConfig::instant(),
        exec_timeout: Some(Duration::from_secs(30)),
        max_retries: 4,
        ..ClusterConfig::test_default()
    });
    #[expect(clippy::expect_used, reason = "the fuzz DDL is a compile-time constant; failure is a harness bug")]
    cluster.run("CREATE TABLE fz (k BIGINT, v BIGINT, PRIMARY KEY (k))").expect("fuzz DDL");
    #[expect(clippy::expect_used, reason = "the fuzz DDL is a compile-time constant; failure is a harness bug")]
    cluster.run(&format!("CREATE INDEX {FUZZ_INDEX} ON fz (k)")).expect("fuzz index DDL");
    cluster
}

const FUZZ_INDEX: &str = "fz_k";

/// The table as an `IndexScan` would serve it right now: per partition, the
/// index's sorted run for the replica a query reads (the partition's owner
/// in the membership's assignment over the live sites, as `execute_plan`
/// resolves it, if that copy is current — `Catalog::current_copy`).
/// The planner only picks index scans for tables far larger than the fuzz
/// table, so the oracle reads the runs directly. `Ok(None)` when some
/// partition has no live current replica; `Err` when a run is not in key
/// order.
fn index_read(cluster: &Cluster) -> Result<Option<Vec<(i64, i64)>>, String> {
    let catalog = cluster.catalog();
    let handles = || {
        let table = catalog.table_by_name("fz")?;
        let index = catalog.indexes_of(table).into_iter().find(|d| d.name == FUZZ_INDEX)?;
        Some((catalog.table_data(table)?, catalog.index(index.id)?))
    };
    let (data, index) = handles().ok_or("fuzz table or index missing from the catalog")?;
    let down = cluster.network().down_sites();
    let Ok(assignment) = catalog.membership().assignment(&down) else {
        return Ok(None);
    };
    let mut rows = Vec::new();
    for p in 0..data.num_partitions() {
        let owner = assignment.owner_of_partition(p);
        let current = catalog.current_copy(p, std::slice::from_ref(&data), [owner]);
        let Some(store) = data.replica(p, owner).filter(|_| current.is_some()) else {
            return Ok(None);
        };
        let before = rows.len();
        for r in index.run_for(p, &store).iter().flat_map(|chunk| chunk.to_rows()) {
            match (r.0[0].as_int(), r.0[1].as_int()) {
                (Some(k), Some(v)) => rows.push((k, v)),
                _ => return Err(format!("non-integer index row {r:?}")),
            }
        }
        if !rows[before..].is_sorted() {
            return Err(format!("index run of partition {p} is not in key order"));
        }
    }
    rows.sort_unstable();
    Ok(Some(rows))
}

/// Read the table — through SQL and through the index — and compare against
/// the shadow. Returns the sorted rows on success so the caller can fold
/// them into the digest.
fn check_read(
    cluster: &Cluster,
    shadow: &Shadow,
    ctx: &str,
    require_clean: bool,
) -> Result<Option<Vec<(i64, i64)>>, String> {
    let q = match cluster.query("SELECT k, v FROM fz ORDER BY k") {
        Ok(q) => q,
        Err(e) => {
            return match classify(&e) {
                // Under live faults a read may legitimately refuse.
                ErrorClass::Retryable | ErrorClass::Resource if !require_clean => Ok(None),
                _ => Err(format!("{ctx}: read failed: {e}")),
            };
        }
    };
    let mut found: BTreeMap<i64, i64> = BTreeMap::new();
    for r in &q.rows {
        let (Some(k), Some(v)) = (r.0[0].as_int(), r.0[1].as_int()) else {
            return Err(format!("{ctx}: non-integer row {:?}", r));
        };
        if found.insert(k, v).is_some() {
            return Err(format!("{ctx}: duplicate primary key {k}"));
        }
    }
    for (k, state) in shadow {
        match (state, found.get(k)) {
            (Some(expect), Some(got)) if expect != got => {
                return Err(format!(
                    "{ctx}: key {k} has value {got}, oracle says {expect} (stale or torn read)"
                ));
            }
            (Some(expect), None) => {
                return Err(format!(
                    "{ctx}: key {k} missing, oracle says present={expect} (lost acked write)"
                ));
            }
            _ => {}
        }
    }
    for k in found.keys() {
        if !shadow.contains_key(k) {
            return Err(format!(
                "{ctx}: key {k} present but oracle says known-absent (resurrected delete)"
            ));
        }
    }
    let found: Vec<(i64, i64)> = found.into_iter().collect();
    // The index must serve exactly what the table scan just did: a run left
    // over from before a write (or from another replica's history) would
    // differ here.
    if let Some(via_index) = index_read(cluster).map_err(|e| format!("{ctx}: {e}"))? {
        if via_index != found {
            return Err(format!(
                "{ctx}: index serves {via_index:?}, table scan serves {found:?} (stale index run)"
            ));
        }
    }
    Ok(Some(found))
}

/// Drive one scenario against a fresh cluster. Deterministic: the same
/// scenario yields the same digest on every run.
pub fn run_dml_scenario(scenario: &DmlScenario) -> DmlOutcome {
    let mut out = DmlOutcome {
        digest: format!("dml seed={} {}", scenario.seed, scenario.spec()),
        disagreement: None,
        refused_reads: 0,
        failed_writes: 0,
    };
    let msg = match catch_unwind(AssertUnwindSafe(|| drive(scenario, &mut out))) {
        Ok(Ok(())) => return out,
        Ok(Err(msg)) => msg,
        Err(payload) => format!("panicked: {}", ic_common::panic_message(&*payload)),
    };
    out.disagreement = Some(format!("{msg}\nspec: {}", out.digest));
    out
}

/// Run the scenario, appending to `out`'s digest and counting its refused
/// reads and failed writes.
fn drive(scenario: &DmlScenario, out: &mut DmlOutcome) -> Result<(), String> {
    let digest = &mut out.digest;
    let cluster = fresh_cluster(scenario.sites);
    // A seeded transient crash rides along so injector-driven failure hits
    // mid-statement, not only at the scripted kill ops.
    let victim = SiteId((scenario.seed % scenario.sites as u64) as usize);
    cluster.install_faults(FaultPlan::new(scenario.seed).transient_crash(victim, 8, 40));
    let mut rng = SplitMix64::new(scenario.seed ^ 0x7a3e);
    let mut shadow: Shadow = BTreeMap::new();
    let mut killed: Vec<usize> = Vec::new();
    let mut next_site = scenario.sites;
    for (i, op) in scenario.ops.iter().enumerate() {
        let ctx = format!("op {i} ({})", op.spec());
        match op {
            DmlOp::InsertBatch { keys } => {
                let values: Vec<String> =
                    keys.iter().map(|k| format!("({k}, {})", k * 1000 + i as i64)).collect();
                let sql = format!("INSERT INTO fz (k, v) VALUES {}", values.join(", "));
                match cluster.dml(&sql) {
                    Ok(r) => {
                        if r.rows_affected != keys.len() {
                            return Err(format!(
                                "{ctx}: acked insert of {} rows reported rows_affected={}",
                                keys.len(),
                                r.rows_affected
                            ));
                        }
                        for k in keys {
                            shadow.insert(*k, Some(k * 1000 + i as i64));
                        }
                        let _ = write!(digest, " {i}:ack");
                    }
                    Err(e) => {
                        fail_taints(&e, &ctx)?;
                        out.failed_writes += 1;
                        for k in keys {
                            shadow.insert(*k, None);
                        }
                        let _ = write!(digest, " {i}:err");
                    }
                }
            }
            DmlOp::UpdateKey { key, delta } => {
                let sql = format!("UPDATE fz SET v = v + {delta} WHERE k = {key}");
                match cluster.dml(&sql) {
                    Ok(r) => match shadow.get(key) {
                        Some(Some(v)) => {
                            if r.rows_affected != 1 {
                                return Err(format!(
                                    "{ctx}: key known present, rows_affected={}",
                                    r.rows_affected
                                ));
                            }
                            let nv = v + delta;
                            shadow.insert(*key, Some(nv));
                        }
                        Some(None) => {} // unknown in, unknown out
                        None => {
                            if r.rows_affected != 0 {
                                return Err(format!(
                                    "{ctx}: key known absent, rows_affected={}",
                                    r.rows_affected
                                ));
                            }
                        }
                    },
                    Err(e) => {
                        fail_taints(&e, &ctx)?;
                        out.failed_writes += 1;
                        if let Some(state) = shadow.get_mut(key) {
                            *state = None;
                        }
                    }
                }
            }
            DmlOp::DeleteKey { key } => {
                let sql = format!("DELETE FROM fz WHERE k = {key}");
                match cluster.dml(&sql) {
                    Ok(r) => {
                        match shadow.get(key) {
                            Some(Some(_)) if r.rows_affected != 1 => {
                                return Err(format!(
                                    "{ctx}: key known present, rows_affected={}",
                                    r.rows_affected
                                ));
                            }
                            None if r.rows_affected != 0 => {
                                return Err(format!(
                                    "{ctx}: key known absent, rows_affected={}",
                                    r.rows_affected
                                ));
                            }
                            _ => {}
                        }
                        shadow.remove(key);
                    }
                    Err(e) => {
                        fail_taints(&e, &ctx)?;
                        out.failed_writes += 1;
                        if let Some(state) = shadow.get_mut(key) {
                            *state = None;
                        }
                    }
                }
            }
            DmlOp::DeleteBelow { below } => {
                let sql = format!("DELETE FROM fz WHERE k < {below}");
                match cluster.dml(&sql) {
                    Ok(r) => {
                        // rows_affected reports the *final* attempt only: a
                        // retried multi-partition delete legally undercounts
                        // (partitions committed by an earlier attempt report
                        // zero matches). Checkable only on a clean first
                        // attempt with every key in range known.
                        let in_range: Vec<i64> =
                            shadow.range(..*below).map(|(k, _)| *k).collect();
                        let all_known = r.retries == 0
                            && shadow.range(..*below).all(|(_, s)| s.is_some());
                        if all_known && r.rows_affected != in_range.len() {
                            return Err(format!(
                                "{ctx}: {} known rows in range, rows_affected={}",
                                in_range.len(),
                                r.rows_affected
                            ));
                        }
                        for k in in_range {
                            shadow.remove(&k);
                        }
                    }
                    Err(e) => {
                        fail_taints(&e, &ctx)?;
                        out.failed_writes += 1;
                        for (_, state) in shadow.range_mut(..*below) {
                            *state = None;
                        }
                    }
                }
            }
            DmlOp::Check => match check_read(&cluster, &shadow, &ctx, false)? {
                Some(rows) => {
                    let _ = write!(digest, " {i}:rows={}", rows.len());
                }
                None => out.refused_reads += 1,
            },
            DmlOp::Kill => {
                let members: Vec<usize> = live_members(&cluster, &killed);
                if members.len() > 1 {
                    let s = members[rng.next_below(members.len() as u64) as usize];
                    cluster.kill_site(s);
                    killed.push(s);
                }
            }
            DmlOp::Revive => {
                if let Some(s) = killed.pop() {
                    cluster.revive_site(s);
                }
            }
            DmlOp::Join => {
                cluster.join_site(next_site);
                next_site += 1;
            }
            DmlOp::Leave => {
                let members = live_members(&cluster, &killed);
                let total =
                    cluster.catalog().membership().snapshot().members().len();
                if total > 2 && members.len() > 1 {
                    let s = members[rng.next_below(members.len() as u64) as usize];
                    cluster.leave_site(s);
                }
            }
        }
    }
    // End of stream: heal everything, then the oracle must match exactly —
    // and this time a read refusal is a failure (the cluster is healthy).
    cluster.clear_faults();
    for s in killed {
        cluster.revive_site(s);
    }
    cluster.repair();
    match check_read(&cluster, &shadow, "final check", true)? {
        Some(rows) => {
            let _ = write!(digest, " final_rows={}", rows.len());
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (k, v) in &rows {
                for b in k.to_le_bytes().iter().chain(v.to_le_bytes().iter()) {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x1_0000_0000_01b3);
                }
            }
            let _ = write!(digest, " final_hash={h:016x}");
            Ok(())
        }
        None => Err("final check refused on a healthy cluster".into()),
    }
}

/// A failed DML statement must at least fail *honestly*: retryable or a
/// deterministic resource verdict. Anything else is a bug.
fn fail_taints(e: &ic_core::IcError, ctx: &str) -> Result<(), String> {
    match classify(e) {
        ErrorClass::Retryable | ErrorClass::Resource => Ok(()),
        ErrorClass::Rejected | ErrorClass::Bug => {
            Err(format!("{ctx}: non-retryable DML failure: {e}"))
        }
    }
}

fn live_members(cluster: &Cluster, killed: &[usize]) -> Vec<usize> {
    cluster
        .catalog()
        .membership()
        .snapshot()
        .members()
        .iter()
        .map(|s| s.0)
        .filter(|s| !killed.contains(s))
        .collect()
}

/// Greedy delta-debugging over the op stream: repeatedly try dropping each
/// op (and halving insert batches) while the scenario still fails. Returns
/// the shrunk scenario and the number of successful shrink steps.
pub fn minimize_dml(
    scenario: &DmlScenario,
    fails: &mut dyn FnMut(&DmlScenario) -> bool,
) -> (DmlScenario, usize) {
    let mut best = scenario.clone();
    let mut steps = 0usize;
    let mut progress = true;
    while progress {
        progress = false;
        // Drop one op at a time, scanning from the end (later ops are the
        // cheapest to prove irrelevant).
        let mut i = best.ops.len();
        while i > 0 {
            i -= 1;
            let mut candidate = best.clone();
            candidate.ops.remove(i);
            if !candidate.ops.is_empty() && fails(&candidate) {
                best = candidate;
                steps += 1;
                progress = true;
            }
        }
        // Halve insert batches.
        for i in 0..best.ops.len() {
            if let DmlOp::InsertBatch { keys } = &best.ops[i] {
                if keys.len() > 1 {
                    let mut candidate = best.clone();
                    candidate.ops[i] =
                        DmlOp::InsertBatch { keys: keys[..keys.len() / 2].to_vec() };
                    if fails(&candidate) {
                        best = candidate;
                        steps += 1;
                        progress = true;
                    }
                }
            }
        }
    }
    (best, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_seed_deterministic() {
        for seed in [0u64, 7, 99] {
            let a = DmlScenario::from_seed(seed);
            let b = DmlScenario::from_seed(seed);
            assert_eq!(a.spec(), b.spec());
            assert_eq!(a.sites, b.sites);
        }
        assert_ne!(DmlScenario::from_seed(1).spec(), DmlScenario::from_seed(2).spec());
    }

    #[test]
    fn index_read_follows_writes() {
        let cluster = fresh_cluster(3);
        cluster.dml("INSERT INTO fz (k, v) VALUES (3, 30), (1, 10), (2, 20)").unwrap();
        assert_eq!(index_read(&cluster), Ok(Some(vec![(1, 10), (2, 20), (3, 30)])));
        cluster.dml("DELETE FROM fz WHERE k = 2").unwrap();
        assert_eq!(index_read(&cluster), Ok(Some(vec![(1, 10), (3, 30)])));
    }

    #[test]
    fn a_quiet_stream_agrees_with_the_oracle() {
        // Seed 3's stream replayed twice: agreement and digest stability.
        let scenario = DmlScenario::from_seed(3);
        let a = run_dml_scenario(&scenario);
        assert!(a.ok(), "disagreement: {:?}", a.disagreement);
        let b = run_dml_scenario(&scenario);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn minimizer_shrinks_an_injected_failure() {
        // Injected bug: "any scenario containing a DeleteBelow fails". The
        // minimizer must strip everything else.
        let scenario = DmlScenario {
            seed: 0,
            sites: 3,
            ops: vec![
                DmlOp::InsertBatch { keys: vec![1, 2, 3, 4] },
                DmlOp::Check,
                DmlOp::DeleteBelow { below: 9 },
                DmlOp::Kill,
                DmlOp::Check,
            ],
        };
        let mut fails = |s: &DmlScenario| {
            s.ops.iter().any(|o| matches!(o, DmlOp::DeleteBelow { .. }))
        };
        let (small, steps) = minimize_dml(&scenario, &mut fails);
        assert!(steps >= 4, "only {steps} shrink steps");
        assert_eq!(small.ops, vec![DmlOp::DeleteBelow { below: 9 }]);
    }
}
