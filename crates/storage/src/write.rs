//! The DML write path: per-partition apply with version counters and
//! synchronous primary→backup replication.
//!
//! A write batch against one partition proceeds in two phases under the
//! partition's write mutex, on top of the partition's newest copy: the
//! primary must hold a *current* copy of every hash-partitioned table
//! ([`Catalog::current_copy`], the currency rule reads and the repair
//! pass ask too), or the write refuses with a retryable
//! `RebalanceInProgress` before it replicates anything.
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
use crate::table::{write_set, ChunkWriter, PartStore, TableData};
use ic_common::eval::{eval_expr, eval_filter_sel};
use ic_common::hash::FxHashMap;
use ic_common::obs::{Counter, MetricsRegistry};
use ic_common::row::BATCH_SIZE;
use ic_common::{ColumnBatch, DataType, Expr, IcError, IcResult, Schema};
use ic_net::{split_by_partition, NetError, Network, ReplicaMap, SiteId, WireSize};
use std::sync::{Arc, OnceLock};

/// A bound, fully-typed DML operation, ready to apply to partition stores.
/// Produced by the binder/planner.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Upsert by primary key (Ignite's cache `put`) of constant rows packed
    /// by the table schema: a row whose key matches an existing row
    /// replaces it, otherwise it is appended.
    Insert { rows: ColumnBatch },
    /// Assign `exprs` (evaluated against the pre-image row) to columns of
    /// every row matching `predicate` (`None` = all rows).
    Update { assignments: Vec<(usize, Expr)>, predicate: Option<Expr> },
    /// Remove every row matching `predicate` (`None` = all rows).
    Delete { predicate: Option<Expr> },
}

impl WriteOp {
    /// Serialized size charged per replication message: the rows' column
    /// frame for inserts, a small control frame for predicate ops (backups
    /// apply the op deterministically, they receive no rows).
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

/// Route bulk-load and DML-insert rows to their partitions by the
/// distribution key ([`split_by_partition`]); a replicated table's one
/// partition takes them all.
pub(crate) fn split(
    rows: &ColumnBatch,
    dist: &TableDistribution,
    map: &ReplicaMap,
) -> Vec<(usize, ColumnBatch)> {
    match dist {
        TableDistribution::HashPartitioned { key_cols } => split_by_partition(rows, key_cols, map.num_partitions()),
        TableDistribution::Replicated => vec![(0, rows.clone())],
    }
}

/// Rows of a stored chunk matching `predicate` (`None` = all rows).
fn matching(predicate: &Option<Expr>, chunk: &ColumnBatch) -> IcResult<Vec<u32>> {
    match predicate {
        Some(p) => eval_filter_sel(p, chunk),
        None => Ok((0..chunk.num_rows() as u32).collect()),
    }
}

/// `chunk` with row `at[k]` replaced by row `k` of `rows`: one gather over
/// the two stacked, left as a view for the writer to pack.
fn splice(types: &[DataType], chunk: &ColumnBatch, rows: ColumnBatch, at: &[u32]) -> ColumnBatch {
    let len = chunk.num_rows() as u32;
    let mut idx: Vec<u32> = (0..len).collect();
    for (k, &i) in at.iter().enumerate() {
        idx[i as usize] = len + k as u32;
    }
    ColumnBatch::concat_as(types, &[chunk.clone(), rows]).with_sel(idx)
}

/// Upsert `rows` into `chunks` by primary key `pk`: the statement's last
/// row of each key replaces the first stored row with that key, in its
/// chunk, or else is appended at the position of the key's first row.
/// Keys match by `hash_keys`, confirmed by `eq_at` (NULL equals NULL).
fn upsert(
    chunks: &[Arc<ColumnBatch>],
    rows: &ColumnBatch,
    types: &[DataType],
    pk: &[usize],
) -> Vec<Arc<ColumnBatch>> {
    if pk.is_empty() {
        let mut w = ChunkWriter::appending(types, chunks);
        w.push(rows.clone());
        return w.finish();
    }
    let rows = rows.gather();
    let same = |a: &ColumnBatch, i: usize, b: &ColumnBatch, j: usize| {
        pk.iter().all(|&k| a.col(k).eq_at(i, b.col(k), j))
    };
    // The statement's keys in order of first appearance: (first row, last
    // row, stored position), with their ids by hash.
    let mut keys: Vec<(usize, usize, Option<_>)> = Vec::new();
    let mut by_hash: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (j, hash) in rows.hash_keys(pk).into_iter().enumerate() {
        let ids = by_hash.entry(hash).or_default();
        match ids.iter().find(|&&g| same(&rows, keys[g].0, &rows, j)) {
            Some(&g) => keys[g].1 = j,
            None => {
                ids.push(keys.len());
                keys.push((j, j, None));
            }
        }
    }
    let mut unmatched = keys.len();
    for (c, chunk) in chunks.iter().enumerate() {
        if unmatched == 0 {
            break;
        }
        for (i, hash) in chunk.hash_keys(pk).into_iter().enumerate() {
            let Some(ids) = by_hash.get(&hash) else { continue };
            let hit = ids.iter().find(|&&g| keys[g].2.is_none() && same(chunk, i, &rows, keys[g].0));
            if let Some(&g) = hit {
                keys[g].2 = Some((c, i as u32));
                unmatched -= 1;
            }
        }
    }
    let mut edits: Vec<Vec<(u32, u32)>> = vec![Vec::new(); chunks.len()];
    let mut appended: Vec<u32> = Vec::new();
    for &(_, last, stored) in &keys {
        match stored {
            Some((c, i)) => edits[c].push((i, last as u32)),
            None => appended.push(last as u32),
        }
    }
    let mut w = ChunkWriter::new(types);
    for (c, chunk) in chunks.iter().enumerate() {
        // A short tail stays open for the appended rows to top up.
        let open = c + 1 == chunks.len() && !appended.is_empty() && chunk.num_rows() < BATCH_SIZE;
        if edits[c].is_empty() && !open {
            w.share(chunk);
            continue;
        }
        let (at, from): (Vec<u32>, Vec<u32>) = edits[c].iter().copied().unzip();
        w.push(splice(types, chunk, rows.select_logical(&from), &at));
        if !open {
            w.flush();
        }
    }
    w.push(rows.select_logical(&appended));
    w.finish()
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
    let mut w = ChunkWriter::new(&types);
    let mut n = 0;
    match op {
        WriteOp::Insert { rows } => {
            let chunks = upsert(store.chunks(), rows, &types, primary_key);
            return Ok((store.succeed(chunks), rows.num_rows()));
        }
        WriteOp::Update { assignments, predicate } => {
            for chunk in store.chunks().iter() {
                let hit = matching(predicate, chunk)?;
                if hit.is_empty() {
                    w.share(chunk);
                    continue;
                }
                n += hit.len();
                // The hit rows' post-image: each SET expression evaluated
                // over their pre-image, every other column carried over,
                // all gathered once by the splice.
                let pre = chunk.with_sel(hit.clone());
                let mut post = pre.columns().to_vec();
                for (c, expr) in assignments {
                    post[*c] = eval_expr(expr, &pre)?;
                }
                w.push(splice(&types, chunk, pre.with_columns(post), &hit));
            }
        }
        WriteOp::Delete { predicate } => {
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
                w.push(chunk.with_sel(keep));
            }
        }
    }
    Ok((store.succeed(w.finish()), n))
}

/// Execute a DML op against `table` — the one router of a write: a
/// replicated table's broadcast, an insert's per-row split by the
/// distribution key, or a predicate op on the `pinned` partition when the
/// planner proved the key (`None` = every partition).
pub fn execute_dml(
    catalog: &Catalog,
    network: &Network,
    table: TableId,
    op: &WriteOp,
    pinned: Option<usize>,
) -> IcResult<WriteOutcome> {
    let def = catalog
        .table_def(table)
        .ok_or_else(|| IcError::Catalog(format!("unknown table {table}")))?;
    let data = catalog
        .table_data(table)
        .ok_or_else(|| IcError::Catalog(format!("no data handle for table {table}")))?;
    let mut outcome = WriteOutcome::default();
    let mut inserted: Vec<ColumnBatch> = Vec::new();
    let mut deleted = 0usize;
    let mut tally = |op: &WriteOp, (n, degraded): (usize, bool)| {
        match op {
            WriteOp::Insert { rows } => inserted.push(rows.clone()),
            WriteOp::Delete { .. } => deleted += n,
            WriteOp::Update { .. } => {}
        }
        outcome.batches += usize::from(n > 0);
        outcome.rows_affected += n;
        outcome.degraded |= degraded;
    };
    match (&def.distribution, op) {
        (TableDistribution::Replicated, _) => {
            tally(op, write_replicated(catalog, network, &data, op, &def.primary_key)?);
        }
        // Split the statement by distribution key; each partition gets its
        // own replicated commit.
        (dist, WriteOp::Insert { rows }) => {
            let map = catalog.membership().snapshot();
            for (p, rows) in split(rows, dist, &map) {
                let op = WriteOp::Insert { rows };
                tally(&op, write_partition(catalog, network, &data, p, &op, &def.primary_key)?);
            }
        }
        _ => {
            for p in pinned.map_or(0..data.num_partitions(), |p| p..p + 1) {
                tally(op, write_partition(catalog, network, &data, p, op, &def.primary_key)?);
            }
        }
    }
    metrics().rows.add(outcome.rows_affected as u64);
    metrics().batches.add(outcome.batches as u64);
    // Incremental stats: the cost model keeps seeing honest row counts and
    // value bounds without a full ANALYZE pass per write.
    catalog.note_write(table, &inserted, deleted);
    Ok(outcome)
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
    let tables = catalog.hash_tables();
    let guard = write_set(std::slice::from_ref(data), partition..partition + 1);
    // Ownership is stable while the write guard is held (the repair
    // pass takes it around every owner-list edit), so a snapshot
    // taken under the guard cannot go stale mid-write.
    let map = catalog.membership().snapshot();
    let owners = map.owners_of(partition).to_vec();
    if owners.is_empty() {
        return Err(IcError::RebalanceInProgress { partition });
    }
    let down = network.down_sites();
    let primary = owners[0];
    if down.contains(&primary) {
        return Err(IcError::SiteUnavailable {
            site: primary.0,
            detail: format!("primary owner of partition {partition} is down"),
        });
    }
    // Versions name one history only while every write commits on top of
    // the partition's newest copy, so the primary must hold a current copy
    // of every hash table (`Catalog::current_copy`). One that took over
    // while the newest copy of any table was down would number its commits
    // like writes it never saw, and no later resync could tell the two
    // apart. Refuse until that copy returns; so too while the primary's
    // replica is not installed yet (migration mid-flight).
    let store = match data.replica(partition, primary) {
        Some(store) if catalog.current_copy(partition, &tables, [primary]).is_some() => store,
        _ => return Err(IcError::RebalanceInProgress { partition }),
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
                // The backup went down since `down` was read (a crash
                // window opened at this message's tick): skip it like a
                // backup that was down already.
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
    let guard = write_set(std::slice::from_ref(data), 0..1);
    let map = catalog.membership().snapshot();
    let down = network.down_sites();
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
            // The broadcasting site itself died (`SiteDead(src)`) or the
            // link lost the message: abort with nothing changed, naming the
            // site the retry should probe.
            Err(e) => {
                return Err(IcError::SiteUnavailable {
                    site: if e == NetError::SiteDead(src) { src.0 } else { member.0 },
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
    use ic_common::{BinOp, DataType, Datum, Field, Row, Schema};
    use ic_net::{FaultPlan, NetworkConfig};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int), Field::new("v", DataType::Int)])
    }

    fn setup(backups: usize) -> (Arc<Catalog>, Arc<Network>, TableId) {
        let cat = Catalog::new(4, backups);
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

    fn insert(rows: Vec<Row>) -> WriteOp {
        WriteOp::Insert { rows: ColumnBatch::from_typed_rows(&schema().types(), &rows) }
    }

    /// The partition `id` routes to: its routing hash on `map`.
    fn partition_of(map: &ReplicaMap, id: i64) -> usize {
        let key = ColumnBatch::from_typed_rows(&[DataType::Int], &[Row(vec![Datum::Int(id)])]);
        map.partition_of_hash(key.hash_keys(&[0])[0])
    }

    fn rows_of(store: &PartStore) -> Vec<Row> {
        store.chunks().iter().flat_map(|c| c.to_rows()).collect()
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
        let out = execute_dml(&cat, &net, id, &insert(rows), None).unwrap();
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
            assert_eq!(rows_of(&stores[0]), rows_of(&stores[1]));
        }
    }

    #[test]
    fn insert_is_pk_upsert() {
        let (cat, net, id) = setup(0);
        execute_dml(&cat, &net, id, &insert(vec![row(1, 10)]), None).unwrap();
        execute_dml(&cat, &net, id, &insert(vec![row(1, 99)]), None).unwrap();
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.total_rows(), 1);
        let p = (0..data.num_partitions()).find(|&p| data.store(p).num_rows() == 1).unwrap();
        assert_eq!(data.store(p).chunks()[0].datum_at(1, 0), Datum::Int(99));
    }

    #[test]
    fn update_and_delete_with_predicates() {
        let (cat, net, id) = setup(0);
        let rows: Vec<Row> = (0..10).map(|i| row(i, 0)).collect();
        execute_dml(&cat, &net, id, &insert(rows), None).unwrap();
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

    /// The write guard asks for a current copy of *every* hash table: a
    /// primary whose copy of another table's partition is older than its
    /// backup's refuses, retryably and committing nothing, a write to this
    /// table, whose versions would otherwise fork the partition's history.
    #[test]
    fn a_primary_stale_in_another_table_refuses_writes() {
        let (cat, net, t) = setup(1);
        let dist = TableDistribution::HashPartitioned { key_cols: vec![0] };
        let u = cat.create_table("u", schema(), vec![0], dist).unwrap();
        let map = cat.membership().snapshot();
        let p = partition_of(&map, 1);
        execute_dml(&cat, &net, u, &insert(vec![row(1, 1)]), None).unwrap();
        cat.table_data(u).unwrap().install_replica(p, map.primary_of(p), PartStore::default());
        let err = execute_dml(&cat, &net, t, &insert(vec![row(1, 2)]), None).unwrap_err();
        assert!(matches!(err, IcError::RebalanceInProgress { partition } if partition == p), "{err}");
        assert_eq!(cat.table_data(t).unwrap().total_rows(), 0);
    }

    #[test]
    fn dead_primary_fails_retryably() {
        let (cat, net, id) = setup(1);
        execute_dml(
            &cat,
            &net,
            id,
            &insert((0..20).map(|i| row(i, 0)).collect()),
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
        let target_id = (0..1000).find(|&i| partition_of(&map, i) == 2).unwrap();
        let err = execute_dml(
            &cat,
            &net,
            id,
            &insert(vec![row(target_id, 5)]),
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
        let cat = Catalog::new(2, 1);
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
        let target_id =
            (0..1000).find(|&i| map.primary_of(partition_of(&map, i)) == SiteId(0)).unwrap();
        let out = execute_dml(
            &cat,
            &net,
            id,
            &insert(vec![row(target_id, 5)]),
            None,
        )
        .unwrap();
        assert_eq!(out.rows_affected, 1);
        assert!(out.degraded, "a single-copy ack must be flagged degraded");
    }

    /// Insert two rows into a replicated table on 3 members under `faults`:
    /// the outcome, and whether the store's version moved. The broadcaster
    /// is site 0, the lowest live member; its sends to sites 1 and 2 are
    /// ticks 0 and 1.
    fn replicated_write(faults: FaultPlan) -> (IcResult<WriteOutcome>, bool) {
        let cat = Catalog::new(3, 1);
        let net = Network::new(NetworkConfig::instant());
        let id = cat.create_table("r", schema(), vec![0], TableDistribution::Replicated).unwrap();
        net.install_faults(faults);
        let out = execute_dml(&cat, &net, id, &insert(vec![row(1, 1), row(2, 2)]), None);
        let data = cat.table_data(id).unwrap();
        assert_eq!(data.total_rows(), if out.is_ok() { 2 } else { 0 });
        (out, data.store(0).version() > 0)
    }

    #[test]
    fn replicated_table_write_broadcasts() {
        let (out, committed) = replicated_write(FaultPlan::new(7));
        assert_eq!((out.unwrap().rows_affected, committed), (2, true));
    }

    /// The broadcaster dies at its second send: the write names it, so the
    /// retry probes the site that is down, and commits nothing.
    #[test]
    fn replicated_write_names_a_broadcaster_that_dies() {
        let (out, committed) = replicated_write(FaultPlan::new(7).crash(SiteId(0), 1));
        assert!(matches!(out, Err(IcError::SiteUnavailable { site: 0, .. })), "{out:?}");
        assert!(!committed);
    }

    #[test]
    fn replicated_write_losing_a_message_commits_nothing() {
        let (out, committed) = replicated_write(FaultPlan::new(7).drop_link(SiteId(0), SiteId(2), 1.0, 0, u64::MAX));
        assert!(out.as_ref().is_err_and(IcError::is_failover_retryable), "{out:?}");
        assert!(!committed);
    }

    /// A member that dies at its own send is skipped like a backup: the
    /// write commits, acknowledged as degraded.
    #[test]
    fn replicated_write_skips_a_member_that_dies() {
        let (out, committed) = replicated_write(FaultPlan::new(7).crash(SiteId(2), 1));
        assert_eq!((out.unwrap().degraded, committed), (true, true));
    }

    #[test]
    fn replicated_write_with_every_member_down_fails() {
        let plan = (0..3).fold(FaultPlan::new(7), |plan, s| plan.crash(SiteId(s), 0));
        let (out, committed) = replicated_write(plan);
        assert!(matches!(out, Err(IcError::SiteUnavailable { .. })), "{out:?}");
        assert!(!committed);
    }
}
