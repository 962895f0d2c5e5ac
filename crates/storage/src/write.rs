//! The DML write path: per-partition apply with version counters and
//! synchronous primary→backup replication.
//!
//! A write batch against one partition proceeds in two phases under the
//! partition's write mutex:
//!
//! 1. **Replicate** — the effect is shipped from the primary to every *live*
//!    backup through the fault-injectable [`Network::replicate`] path. A
//!    link fault aborts the write with nothing changed anywhere (the client
//!    sees a retryable error, never a half-replicated ack). A backup that
//!    the injector reports dead is skipped — it simply missed the write and
//!    its stale version is healed by re-replication.
//! 2. **Commit** — once enough copies confirmed, the new [`PartStore`]
//!    snapshot (version = base + 1) is swapped into the primary and all
//!    confirming backups in one version-checked step. "Enough" is the
//!    *replication floor*: `min(target_backups + 1, live members)` copies.
//!    A write that cannot reach the floor (its backups are dead while
//!    other members could host one) refuses with a retryable error
//!    *before* committing anything — the failover retry repairs the owner
//!    list first, so the retried write replicates onto a live backup
//!    before it acks.
//!
//! Acknowledged therefore means: applied on the primary *and* every live
//! backup, with at least the replication floor of live copies. Killing any
//! single site after the ack cannot lose the write, and because readers
//! only ever see committed snapshots, a multi-row batch is observed
//! all-or-nothing.

use crate::catalog::{Catalog, TableDistribution, TableId};
use crate::table::{append_rows, PartStore, TableData};
use ic_common::eval::eval_filter_sel;
use ic_common::obs::{Counter, MetricsRegistry};
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, Expr, IcError, IcResult, Row, Schema};
use ic_net::wire::WireSize;
use ic_net::{NetError, Network, SiteId};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A bound, fully-typed DML operation, ready to apply to partition stores.
/// Produced by the binder/planner; `Insert` rows are already evaluated
/// constants in table-schema order.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Upsert by primary key (Ignite's cache `put`): a row whose key
    /// matches an existing row replaces it, otherwise it is appended.
    Insert { rows: Vec<Row> },
    /// Assign `exprs` (evaluated against the pre-image row) to columns of
    /// every row matching `predicate` (`None` = all rows).
    Update { assignments: Vec<(usize, Expr)>, predicate: Option<Expr> },
    /// Remove every row matching `predicate` (`None` = all rows).
    Delete { predicate: Option<Expr> },
}

impl WriteOp {
    /// Serialized size charged per replication message: the op's payload
    /// for inserts, a small control frame for predicate ops (backups apply
    /// the op deterministically, they do not receive materialized rows).
    pub fn wire_bytes(&self) -> usize {
        match self {
            WriteOp::Insert { rows } => rows.wire_size(),
            WriteOp::Update { assignments, .. } => 64 + 16 * assignments.len(),
            WriteOp::Delete { .. } => 64,
        }
    }
}

/// Result of one DML statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// Rows inserted/updated/deleted across all partitions.
    pub rows_affected: usize,
    /// Partition batches committed (one version bump each).
    pub batches: usize,
    /// Some batch acknowledged below the *target* replication factor —
    /// only possible when the whole cluster is short on live members (the
    /// replication floor adapts to cluster size). The caller should
    /// trigger a rebalance/repair pass promptly: until re-replication
    /// completes, losing the remaining copies loses this acked write.
    pub degraded: bool,
}

struct WriteMetrics {
    rows: Arc<Counter>,
    batches: Arc<Counter>,
    conflicts: Arc<Counter>,
}

fn metrics() -> &'static WriteMetrics {
    static METRICS: OnceLock<WriteMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = MetricsRegistry::global();
        WriteMetrics {
            rows: reg.counter("storage.write.rows"),
            batches: reg.counter("storage.write.batches"),
            conflicts: reg.counter("storage.write.conflicts"),
        }
    })
}

/// Builds a successor chunk list for predicate ops: untouched chunks are
/// shared with the predecessor snapshot, rewritten rows coalesce — across
/// consecutive touched chunks — into fresh dense chunks at the same place
/// in the row order.
#[derive(Default)]
struct ChunkWriter {
    out: Vec<Arc<ColumnBatch>>,
    pending: Vec<ColumnBatch>,
}

impl ChunkWriter {
    fn share(&mut self, chunk: &Arc<ColumnBatch>) {
        self.flush();
        self.out.push(chunk.clone());
    }

    /// Queue the (selected) rows of `rows` for repacking.
    fn rewrite(&mut self, rows: ColumnBatch) {
        if rows.num_rows() > 0 {
            self.pending.push(rows);
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let dense = ColumnBatch::concat(&self.pending);
        self.pending.clear();
        let n = dense.num_rows();
        if n <= BATCH_SIZE {
            self.out.push(Arc::new(dense));
            return;
        }
        for start in (0..n).step_by(BATCH_SIZE) {
            let len = BATCH_SIZE.min(n - start);
            self.out.push(Arc::new(dense.slice_logical(start, len).gather()));
        }
    }

    fn finish(mut self) -> Vec<Arc<ColumnBatch>> {
        self.flush();
        self.out
    }
}

/// Rows of a stored chunk matching `predicate` (`None` = all rows).
fn matching(predicate: &Option<Expr>, chunk: &ColumnBatch) -> IcResult<Vec<u32>> {
    match predicate {
        Some(p) => eval_filter_sel(p, chunk),
        None => Ok((0..chunk.num_rows() as u32).collect()),
    }
}

/// Position of the first stored row whose primary key equals `row`'s.
fn find_pk(chunks: &[Arc<ColumnBatch>], pk: &[usize], row: &Row) -> Option<(usize, usize)> {
    chunks.iter().enumerate().find_map(|(c, chunk)| {
        (0..chunk.num_rows())
            .find(|&i| {
                pk.iter().all(|&k| row.0.get(k).is_some_and(|d| chunk.col(k).eq_datum(i, d)))
            })
            .map(|i| (c, i))
    })
}

/// Apply `op` to a frozen store snapshot, producing the successor snapshot
/// (version + 1) and the number of rows affected. Copy-on-write at chunk
/// granularity: only chunks holding an affected row are rebuilt (inserts
/// also top up the tail chunk); every other chunk is shared with `store`.
/// Pure and deterministic: the same op against the same snapshot yields the
/// same store on every replica, which is what lets backups confirm delivery
/// before any state changes.
pub fn apply_op(
    store: &PartStore,
    op: &WriteOp,
    schema: &Schema,
    primary_key: &[usize],
) -> IcResult<(PartStore, usize)> {
    let types = schema.types();
    let (chunks, affected) = match op {
        WriteOp::Insert { rows: new_rows } => {
            // Each new row replaces the stored row with its key, else the
            // row an earlier statement row appended under that key, else
            // it is appended.
            let mut replaced: BTreeMap<usize, Vec<(usize, &Row)>> = BTreeMap::new();
            let mut appended: Vec<Row> = Vec::new();
            for nr in new_rows {
                if !primary_key.is_empty() {
                    if let Some((c, i)) = find_pk(store.chunks(), primary_key, nr) {
                        replaced.entry(c).or_default().push((i, nr));
                        continue;
                    }
                    let same_key =
                        |r: &Row| primary_key.iter().all(|&k| r.0.get(k) == nr.0.get(k));
                    if let Some(slot) = appended.iter_mut().find(|r| same_key(r)) {
                        *slot = nr.clone();
                        continue;
                    }
                }
                appended.push(nr.clone());
            }
            let mut chunks = (**store.chunks()).clone();
            for (c, edits) in replaced {
                let mut rows = chunks[c].to_rows();
                for (i, nr) in edits {
                    rows[i] = nr.clone();
                }
                chunks[c] = Arc::new(ColumnBatch::from_typed_rows(&types, &rows));
            }
            append_rows(&types, &mut chunks, &appended);
            (chunks, new_rows.len())
        }
        WriteOp::Update { assignments, predicate } => {
            let mut w = ChunkWriter::default();
            let mut n = 0;
            for chunk in store.chunks().iter() {
                let hit = matching(predicate, chunk)?;
                if hit.is_empty() {
                    w.share(chunk);
                    continue;
                }
                let mut rows = chunk.to_rows();
                for &i in &hit {
                    let row = &mut rows[i as usize];
                    let pre_image = row.clone();
                    for (col, expr) in assignments {
                        row.0[*col] = expr.eval(&pre_image)?;
                    }
                }
                n += hit.len();
                w.rewrite(ColumnBatch::from_typed_rows(&types, &rows));
            }
            (w.finish(), n)
        }
        WriteOp::Delete { predicate } => {
            let mut w = ChunkWriter::default();
            let mut n = 0;
            for chunk in store.chunks().iter() {
                let hit = matching(predicate, chunk)?;
                if hit.is_empty() {
                    w.share(chunk);
                    continue;
                }
                n += hit.len();
                let mut doomed = hit.iter().copied().peekable();
                let keep: Vec<u32> = (0..chunk.num_rows() as u32)
                    .filter(|i| doomed.next_if_eq(i).is_none())
                    .collect();
                w.rewrite(chunk.with_sel(keep));
            }
            (w.finish(), n)
        }
    };
    Ok((store.succeed(chunks), affected))
}

/// Execute a DML op against `table`, routing to partitions by the
/// distribution trait. `target` pins predicate ops to a single partition
/// when the planner proved the distribution key (`None` = all partitions).
pub fn execute_dml(
    catalog: &Catalog,
    network: &Network,
    table: TableId,
    op: &WriteOp,
    target: Option<usize>,
) -> IcResult<WriteOutcome> {
    let def = catalog
        .table_def(table)
        .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
    let data = catalog
        .table_data(table)
        .ok_or_else(|| IcError::Catalog(format!("no data handle for table {table}")))?;
    let mut outcome = WriteOutcome::default();
    let mut inserted: Vec<Row> = Vec::new();
    let mut deleted = 0usize;
    match &def.distribution {
        TableDistribution::Replicated => {
            let (n, degraded) = write_replicated(catalog, network, &data, op, &def.primary_key)?;
            record(op, n, &mut inserted, &mut deleted);
            if n > 0 {
                outcome.batches += 1;
            }
            outcome.rows_affected += n;
            outcome.degraded |= degraded;
        }
        TableDistribution::HashPartitioned { key_cols } => match op {
            WriteOp::Insert { rows } => {
                // Split the batch by distribution key; each partition gets
                // its own replicated commit.
                let map = catalog.membership().snapshot();
                let nparts = data.num_partitions();
                let mut per_part: Vec<Vec<Row>> = (0..nparts).map(|_| Vec::new()).collect();
                for row in rows {
                    let p = map.partition_of_hash(row.hash_key(key_cols));
                    per_part[p].push(row.clone());
                }
                for (p, batch) in per_part.into_iter().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    let (n, degraded) = write_partition(
                        catalog,
                        network,
                        &data,
                        p,
                        &WriteOp::Insert { rows: batch.clone() },
                        &def.primary_key,
                    )?;
                    inserted.extend(batch);
                    if n > 0 {
                        outcome.batches += 1;
                    }
                    outcome.rows_affected += n;
                    outcome.degraded |= degraded;
                }
            }
            WriteOp::Update { .. } | WriteOp::Delete { .. } => {
                let parts: Vec<usize> = match target {
                    Some(p) => vec![p],
                    None => (0..data.num_partitions()).collect(),
                };
                for p in parts {
                    let (n, degraded) =
                        write_partition(catalog, network, &data, p, op, &def.primary_key)?;
                    record(op, n, &mut inserted, &mut deleted);
                    if n > 0 {
                        outcome.batches += 1;
                    }
                    outcome.rows_affected += n;
                    outcome.degraded |= degraded;
                }
            }
        },
    }
    metrics().rows.add(outcome.rows_affected as u64);
    metrics().batches.add(outcome.batches as u64);
    // Incremental stats: the cost model keeps seeing honest row counts and
    // value bounds without a full ANALYZE pass per write.
    catalog.note_write(table, &inserted, deleted);
    Ok(outcome)
}

fn record(op: &WriteOp, n: usize, inserted: &mut Vec<Row>, deleted: &mut usize) {
    match op {
        WriteOp::Insert { rows } => inserted.extend(rows.iter().cloned()),
        WriteOp::Delete { .. } => *deleted += n,
        WriteOp::Update { .. } => {}
    }
}

/// One partition's replicated write (see the module docs for the protocol).
fn write_partition(
    catalog: &Catalog,
    network: &Network,
    data: &TableData,
    partition: usize,
    op: &WriteOp,
    primary_key: &[usize],
) -> IcResult<(usize, bool)> {
    let guard = data.write_guard(partition);
    // Ownership is stable while the write guard is held (the rebalance
    // controller takes it for promotion and the final migration flip), so a
    // snapshot taken under the guard cannot go stale mid-write.
    let map = catalog.membership().snapshot();
    let owners = map.owners_of(partition).to_vec();
    if owners.is_empty() {
        return Err(IcError::RebalanceInProgress { partition });
    }
    let down = network.liveness().down_sites();
    let primary = owners[0];
    if down.contains(&primary) {
        return Err(IcError::SiteUnavailable {
            site: primary.0,
            detail: format!("primary owner of partition {partition} is down"),
        });
    }
    let Some(store) = data.replica(partition, primary) else {
        // The owner map says `primary` but its replica is not installed yet
        // (migration mid-flight).
        return Err(IcError::RebalanceInProgress { partition });
    };
    let (new_store, affected) = apply_op(&store, op, data.schema(), primary_key)?;
    if affected == 0 {
        return Ok((0, false));
    }
    // Phase 1: every live backup must confirm delivery before anything
    // commits. Dead backups are skipped (healed later by re-replication);
    // a dropped link aborts the whole write with no state change.
    let mut ack_sites = vec![primary];
    let bytes = op.wire_bytes();
    for &backup in &owners[1..] {
        if down.contains(&backup) {
            continue;
        }
        match network.replicate(primary, backup, bytes) {
            Ok(()) => ack_sites.push(backup),
            Err(NetError::SiteDead(s)) if s == backup => {
                // The injector just declared the *backup* dead: treat as a
                // skipped dead backup, consistent with the liveness view it
                // updated.
            }
            Err(NetError::SiteDead(s)) => {
                // The dead site is the primary itself (it died mid-send).
                // Committing locally now would produce an ack that only a
                // dead site ever held — abort with nothing changed and let
                // failover retry route through the promoted backup.
                return Err(IcError::SiteUnavailable {
                    site: s.0,
                    detail: format!(
                        "primary of partition {partition} died while replicating"
                    ),
                });
            }
            Err(e) => {
                return Err(IcError::SiteUnavailable {
                    site: backup.0,
                    detail: format!("replication to backup failed: {e:?}"),
                });
            }
        }
    }
    // Replication floor: an acknowledgement must never rest on fewer live
    // copies than the cluster can currently hold — committing on a lone
    // primary while other members could host a backup leaves the write one
    // crash from being lost *after* it was acked. Refuse pre-commit with a
    // retryable error instead; the failover retry path repairs first
    // (re-replicating onto a live member), so the retried write reaches
    // the floor before anything commits.
    let live_members = map.members().iter().filter(|s| !down.contains(s)).count();
    let wanted = (catalog.membership().target_backups() + 1).min(live_members.max(1));
    if ack_sites.len() < wanted {
        return Err(IcError::SiteUnavailable {
            site: primary.0,
            detail: format!(
                "partition {partition}: only {} of {wanted} required copies reachable",
                ack_sites.len()
            ),
        });
    }
    // Phase 2: version-checked commit to the primary and every confirming
    // backup in one swap.
    data.commit(partition, &ack_sites, store.version(), new_store).map_err(|found| {
        metrics().conflicts.inc();
        IcError::WriteConflict {
            partition,
            expected_version: store.version(),
            found_version: found,
        }
    })?;
    drop(guard);
    // Below the *target* replication factor (only possible when the whole
    // cluster is short on live members) ⇒ the ack is degraded: the caller
    // should re-replicate as soon as capacity returns.
    Ok((affected, ack_sites.len() < catalog.membership().target_backups() + 1))
}

/// DML against a replicated table: one logical store, but the commit is
/// broadcast-confirmed by every live member (full-copy cache mode).
fn write_replicated(
    catalog: &Catalog,
    network: &Network,
    data: &TableData,
    op: &WriteOp,
    primary_key: &[usize],
) -> IcResult<(usize, bool)> {
    let guard = data.write_guard(0);
    let map = catalog.membership().snapshot();
    let down = network.liveness().down_sites();
    let live: Vec<SiteId> =
        map.members().iter().copied().filter(|s| !down.contains(s)).collect();
    let Some(&src) = live.first() else {
        return Err(IcError::SiteUnavailable {
            site: map.members().first().map(|s| s.0).unwrap_or(0),
            detail: "no live site to accept a replicated-table write".into(),
        });
    };
    let store = data.store(0);
    let (new_store, affected) = apply_op(&store, op, data.schema(), primary_key)?;
    if affected == 0 {
        return Ok((0, false));
    }
    let bytes = op.wire_bytes();
    let mut degraded = false;
    for &member in live.iter().skip(1) {
        match network.replicate(src, member, bytes) {
            Ok(()) => {}
            Err(NetError::SiteDead(s)) if s == member => degraded = true,
            Err(e) => {
                return Err(IcError::SiteUnavailable {
                    site: member.0,
                    detail: format!("replicated-table broadcast failed: {e:?}"),
                });
            }
        }
    }
    let sites = data.replica_sites(0);
    data.commit(0, &sites, store.version(), new_store).map_err(|found| {
        metrics().conflicts.inc();
        IcError::WriteConflict {
            partition: 0,
            expected_version: store.version(),
            found_version: found,
        }
    })?;
    drop(guard);
    Ok((affected, degraded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDistribution;
    use ic_common::{BinOp, DataType, Datum, Field, Schema};
    use ic_net::{FaultPlan, NetworkConfig, Topology};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int), Field::new("v", DataType::Int)])
    }

    fn setup(backups: usize) -> (Arc<Catalog>, Arc<Network>, TableId) {
        let cat = Catalog::new(Topology::with_backups(4, backups));
        let net = Network::new(NetworkConfig::instant());
        let id = cat
            .create_table(
                "t",
                schema(),
                vec![0],
                TableDistribution::HashPartitioned { key_cols: vec![0] },
            )
            .unwrap();
        (cat, net, id)
    }

    fn row(id: i64, v: i64) -> Row {
        Row(vec![Datum::Int(id), Datum::Int(v)])
    }

    fn eq_pred(col: usize, val: i64) -> Expr {
        Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::Col(col)),
            right: Box::new(Expr::Lit(Datum::Int(val))),
        }
    }

    #[test]
    fn insert_replicates_to_backups() {
        let (cat, net, id) = setup(1);
        let rows: Vec<Row> = (0..40).map(|i| row(i, i * 10)).collect();
        let out =
            execute_dml(&cat, &net, id, &WriteOp::Insert { rows }, None).unwrap();
        assert_eq!(out.rows_affected, 40);
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.total_rows(), 40);
        // Every partition's primary and backup replica agree.
        for p in 0..data.num_partitions() {
            let sites = data.replica_sites(p);
            assert_eq!(sites.len(), 2, "partition {p} should have 2 replicas");
            let stores: Vec<PartStore> =
                sites.iter().map(|&s| data.replica(p, s).unwrap()).collect();
            assert_eq!(stores[0].version(), stores[1].version());
            assert_eq!(stores[0].to_rows(), stores[1].to_rows());
        }
    }

    #[test]
    fn insert_is_pk_upsert() {
        let (cat, net, id) = setup(0);
        execute_dml(&cat, &net, id, &WriteOp::Insert { rows: vec![row(1, 10)] }, None).unwrap();
        execute_dml(&cat, &net, id, &WriteOp::Insert { rows: vec![row(1, 99)] }, None).unwrap();
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.total_rows(), 1);
        assert_eq!(data.all_rows()[0].0[1], Datum::Int(99));
    }

    #[test]
    fn update_and_delete_with_predicates() {
        let (cat, net, id) = setup(0);
        let rows: Vec<Row> = (0..10).map(|i| row(i, 0)).collect();
        execute_dml(&cat, &net, id, &WriteOp::Insert { rows }, None).unwrap();
        let upd = WriteOp::Update {
            assignments: vec![(1, Expr::Lit(Datum::Int(7)))],
            predicate: Some(eq_pred(0, 3)),
        };
        let out = execute_dml(&cat, &net, id, &upd, None).unwrap();
        assert_eq!(out.rows_affected, 1);
        let del = WriteOp::Delete { predicate: Some(eq_pred(1, 7)) };
        let out = execute_dml(&cat, &net, id, &del, None).unwrap();
        assert_eq!(out.rows_affected, 1);
        assert_eq!(cat.table_data(id).unwrap().total_rows(), 9);
    }

    #[test]
    fn dead_primary_fails_retryably() {
        let (cat, net, id) = setup(1);
        execute_dml(
            &cat,
            &net,
            id,
            &WriteOp::Insert { rows: (0..20).map(|i| row(i, 0)).collect() },
            None,
        )
        .unwrap();
        net.install_faults(FaultPlan::new(7).crash(SiteId(1), 0));
        let err = execute_dml(&cat, &net, id, &WriteOp::Delete { predicate: None }, None)
            .expect_err("primary of some partition is down");
        assert!(err.is_failover_retryable(), "got {err}");
    }

    #[test]
    fn dead_backup_blocks_commit_below_replication_floor() {
        let (cat, net, id) = setup(1);
        // Partition 2's primary is site2, backup site3. Kill the backup.
        // Two other members are live, so the replication floor is still 2
        // copies: the write must refuse retryably (nothing committed) until
        // a repair pass re-replicates onto a live member.
        net.install_faults(FaultPlan::new(7).crash(SiteId(3), 0));
        let data = cat.table_data(id).unwrap();
        let map = cat.membership().snapshot();
        let target_id = (0..1000)
            .find(|&i| map.partition_of_hash(row(i, 0).hash_key(&[0])) == 2)
            .unwrap();
        let err = execute_dml(
            &cat,
            &net,
            id,
            &WriteOp::Insert { rows: vec![row(target_id, 5)] },
            None,
        )
        .expect_err("write below the replication floor must refuse");
        assert!(err.is_failover_retryable(), "got {err}");
        let primary = data.replica(2, SiteId(2)).unwrap();
        let backup = data.replica(2, SiteId(3)).unwrap();
        assert_eq!(primary.num_rows(), 0, "a refused write must commit nothing");
        assert_eq!(backup.num_rows(), 0, "dead backup must not silently receive the write");
    }

    #[test]
    fn lone_survivor_commits_primary_only_and_reports_degraded() {
        // Two sites, backups=1: kill the backup and the floor adapts to
        // the single live member — the write acks on the primary alone,
        // flagged degraded so the caller re-replicates when capacity
        // returns.
        let cat = Catalog::new(Topology::with_backups(2, 1));
        let net = Network::new(NetworkConfig::instant());
        let id = cat
            .create_table(
                "t",
                schema(),
                vec![0],
                TableDistribution::HashPartitioned { key_cols: vec![0] },
            )
            .unwrap();
        net.install_faults(FaultPlan::new(7).crash(SiteId(1), 0));
        // Find a row routed to a partition whose primary is the live site 0.
        let map = cat.membership().snapshot();
        let target_id = (0..1000)
            .find(|&i| {
                let p = map.partition_of_hash(row(i, 0).hash_key(&[0]));
                map.primary_of(p) == SiteId(0)
            })
            .unwrap();
        let out = execute_dml(
            &cat,
            &net,
            id,
            &WriteOp::Insert { rows: vec![row(target_id, 5)] },
            None,
        )
        .unwrap();
        assert_eq!(out.rows_affected, 1);
        assert!(out.degraded, "a single-copy ack must be flagged degraded");
    }

    #[test]
    fn replicated_table_write_broadcasts() {
        let cat = Catalog::new(Topology::with_backups(3, 1));
        let net = Network::new(NetworkConfig::instant());
        let id = cat
            .create_table("r", schema(), vec![0], TableDistribution::Replicated)
            .unwrap();
        let out = execute_dml(
            &cat,
            &net,
            id,
            &WriteOp::Insert { rows: vec![row(1, 1), row(2, 2)] },
            None,
        )
        .unwrap();
        assert_eq!(out.rows_affected, 2);
        assert_eq!(cat.table_data(id).unwrap().total_rows(), 2);
    }
}
