//! The cluster facade: configuration, DDL, data loading and SQL execution
//! (Figure 6's end-to-end flow).

use crate::governor::{Admission, Governor, GovernorConfig};
use crate::plan_cache::{generations_of, Lookup, PlanCache, PlanCacheStats};
use crate::result::{DmlResult, QueryResult};
use ic_common::obs::{MetricsRegistry, SpanGuard, Trace, TraceSink};
use ic_common::{IcError, IcResult, Row, Schema};
use ic_exec::{execute_plan, ExecOptions, QueryStats};
use ic_net::{FaultInjector, FaultPlan, Network, NetworkConfig, SiteId};
use ic_opt::hep::hep_stage;
use ic_opt::params;
use ic_opt::pipeline::volcano_stage;
use ic_plan::dml::DmlPlan;
use ic_plan::ops::PhysPlan;
use ic_plan::PlannerFlags;
use ic_sql::ast::{self, Statement};
use ic_sql::{bind_statement, data_type_of, parse_sql, Bound};
use ic_storage::{Catalog, TableDistribution, TableId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three system configurations evaluated in §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemVariant {
    /// Baseline: stock Apache Ignite 2.16 + Calcite.
    IC,
    /// Query-planner changes + join optimizations (§4, §5.1, §5.2).
    ICPlus,
    /// IC+ with multithreaded execution plans (§5.3).
    ICPlusM,
}

impl SystemVariant {
    pub fn flags(&self) -> PlannerFlags {
        match self {
            SystemVariant::IC => PlannerFlags::ic(),
            SystemVariant::ICPlus => PlannerFlags::ic_plus(),
            SystemVariant::ICPlusM => PlannerFlags::ic_plus_m(),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            SystemVariant::IC => "IC",
            SystemVariant::ICPlus => "IC+",
            SystemVariant::ICPlusM => "IC+M",
        }
    }

    pub fn all() -> [SystemVariant; 3] {
        [SystemVariant::IC, SystemVariant::ICPlus, SystemVariant::ICPlusM]
    }
}

/// Cluster configuration (the paper's §6.1 methodology knobs).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of processing sites (the paper uses 4 and 8).
    pub sites: usize,
    pub variant: SystemVariant,
    /// Simulated network parameters.
    pub network: NetworkConfig,
    /// Per-query execution wall-clock limit (the paper's 4-hour cap,
    /// scaled down).
    pub exec_timeout: Option<Duration>,
    /// Override the Volcano exploration budget (None = variant default).
    pub planner_budget: Option<u64>,
    /// Per-query buffered-row memory budget (Ignite's resource limit).
    pub memory_limit_rows: u64,
    /// Replica copies per hash partition (Ignite's `backups=N`; the paper
    /// benchmarks 0). With `backups >= 1`, queries survive up to that many
    /// site deaths via failover to backup owners.
    pub backups: usize,
    /// Retry budget of the failover loop: how many times a query failing
    /// with a retryable [`IcError::SiteUnavailable`] is replanned against
    /// the surviving topology before [`IcError::RetriesExhausted`].
    pub max_retries: u32,
    /// Base backoff between failover retries (doubles per attempt).
    pub retry_backoff: Duration,
    /// Resource-governor sizing: admission slots, wait-queue bound, and
    /// the shared memory-pool budget all queries lease from.
    pub governor: GovernorConfig,
    /// Ignored: nothing reads it. Variant fragments (`SystemVariant::ICPlusM`)
    /// are the only intra-site parallelism; the field stays only so that
    /// callers which set it by name keep compiling.
    pub worker_threads: usize,
    /// Ignored, like `worker_threads`.
    pub morsel_rows: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            sites: 4,
            variant: SystemVariant::ICPlus,
            network: NetworkConfig::default(),
            exec_timeout: Some(Duration::from_secs(30)),
            planner_budget: None,
            memory_limit_rows: 60_000_000,
            backups: 0,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            governor: GovernorConfig::default(),
            worker_threads: 1,
            morsel_rows: 65_536,
        }
    }
}

impl ClusterConfig {
    /// Fast configuration for unit tests: no simulated network delay.
    pub fn test_default() -> ClusterConfig {
        ClusterConfig {
            sites: 2,
            variant: SystemVariant::ICPlus,
            network: NetworkConfig::instant(),
            exec_timeout: Some(Duration::from_secs(10)),
            planner_budget: None,
            memory_limit_rows: 60_000_000,
            backups: 0,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            governor: GovernorConfig::test_default(),
            worker_threads: 1,
            morsel_rows: 65_536,
        }
    }
}

/// A simulated Ignite+Calcite cluster. All methods take `&self`; a cluster
/// can serve concurrent clients from multiple threads (the §6.3 AQL
/// terminals).
pub struct Cluster {
    config: ClusterConfig,
    flags: PlannerFlags,
    catalog: Arc<Catalog>,
    network: Arc<Network>,
    governor: Arc<Governor>,
    /// This cluster's plans: its flags are fixed, and a cluster derived
    /// over the same catalog plans under other flags.
    plans: PlanCache,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Cluster {
        let catalog = Catalog::new(config.sites, config.backups);
        let governor = Governor::new(config.governor.clone());
        Cluster::assemble(config, catalog, governor)
    }

    /// A cluster running `config` over the given data and governor: planner
    /// flags derived from the variant, a *fresh* network (fault schedules
    /// and kills belong to one cluster) and an empty plan cache.
    fn assemble(config: ClusterConfig, catalog: Arc<Catalog>, governor: Arc<Governor>) -> Cluster {
        let mut flags = config.variant.flags();
        if let Some(b) = config.planner_budget {
            flags.planner_budget = b;
        }
        let network = Network::new(config.network.clone());
        Cluster { config, flags, catalog, network, governor, plans: PlanCache::new() }
    }

    /// A cluster sharing this one's catalog (and loaded data) under another
    /// configuration. The resource governor *is* shared: all derived
    /// clusters are sessions against the same simulated hardware, so they
    /// contend for the same slots and pool.
    fn reconfigured(&self, config: ClusterConfig) -> Cluster {
        Cluster::assemble(config, self.catalog.clone(), self.governor.clone())
    }

    /// A cluster sharing this one's data but running as a different system
    /// variant — how the harness compares IC / IC+ / IC+M on identical
    /// data without reloading.
    pub fn with_variant(&self, variant: SystemVariant) -> Cluster {
        self.reconfigured(ClusterConfig { variant, ..self.config.clone() })
    }

    /// The cluster's resource governor (admission control + memory pool).
    pub fn governor(&self) -> &Arc<Governor> {
        &self.governor
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn variant(&self) -> SystemVariant {
        self.config.variant
    }

    /// What this cluster's plan cache has answered so far.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Install a seeded, deterministic fault schedule on this cluster's
    /// network (replacing any previous one). Returns the injector so
    /// callers can read its logical clock and fault log.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        self.network.install_faults(plan)
    }

    /// Remove any fault schedule and lift every kill, resyncing replicas
    /// that went stale while their site was faulted so the now-live copies
    /// cannot serve stale reads.
    pub fn clear_faults(&self) {
        self.network.clear_faults();
        self.repair();
    }

    /// Take a site down until [`Cluster::revive_site`] (operator-style,
    /// plan or no plan): every message to or from it fails with
    /// `SiteDead`, and subsequent statements replan around it; with
    /// `backups = 0` its partitions are lost and partitioned queries fail.
    /// A synchronous repair pass then promotes and re-replicates what the
    /// site held, so a second kill cannot take a partition's last live copy.
    pub fn kill_site(&self, site: usize) {
        self.network.kill_site(SiteId(site));
        self.repair();
    }

    /// Bring a killed site back (the inverse of [`Cluster::kill_site`]; a
    /// crash window of an installed fault plan still counts). The revived
    /// site's replicas missed every write committed while it was down; a
    /// synchronous repair pass resyncs (or demotes) them before any read
    /// can route to a stale copy.
    pub fn revive_site(&self, site: usize) {
        self.network.revive_site(SiteId(site));
        self.repair();
    }

    /// Execute a DDL statement (CREATE TABLE / CREATE INDEX); DML is
    /// accepted too, its [`DmlResult`] dropped.
    pub fn run(&self, sql: &str) -> IcResult<()> {
        match self.parse(sql, None)? {
            Statement::CreateTable(ct) => {
                let fields: Vec<ic_common::Field> = ct
                    .columns
                    .iter()
                    .map(|(n, t)| Ok(ic_common::Field::new(n.clone(), data_type_of(t)?)))
                    .collect::<IcResult<_>>()?;
                let schema = Schema::new(fields);
                let pk = col_positions(&schema, &ct.name, &ct.primary_key)?;
                let distribution = if ct.replicated {
                    TableDistribution::Replicated
                } else {
                    let key_cols = match &ct.partition_by {
                        Some(cols) => col_positions(&schema, &ct.name, cols)?,
                        // Ignite's default affinity: partition by primary key.
                        None => pk.clone(),
                    };
                    if key_cols.is_empty() {
                        return Err(IcError::Catalog(format!(
                            "table '{}' needs a primary key or PARTITION BY",
                            ct.name
                        )));
                    }
                    TableDistribution::HashPartitioned { key_cols }
                };
                self.catalog.create_table(&ct.name, schema, pk, distribution).map(drop)
            }
            Statement::CreateIndex(ci) => {
                let table = self.table_id(&ci.table)?;
                let def = self.catalog.table_def(table).ok_or_else(|| {
                    IcError::Internal(format!("table '{}' resolved but has no definition", ci.table))
                })?;
                let cols = col_positions(&def.schema, &ci.table, &ci.columns)?;
                self.catalog.create_index(&ci.name, table, cols).map(drop)
            }
            Statement::Query(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_) => Err(
                IcError::Exec("use query() for SELECT statements".into()),
            ),
            dml => self.write(0, &dml, None).map(drop),
        }
    }

    /// Execute a DML statement (INSERT/UPDATE/DELETE) end-to-end: bind,
    /// route by the table's partitioning trait, and commit with synchronous
    /// primary→backup replication. An acknowledged statement is applied on
    /// the primary *and* every live backup of each touched partition, so no
    /// single site death can lose it. Failover-retryable failures (dead
    /// primary, ownership moved mid-write, version conflict) are retried
    /// like a query's ([`Cluster::query`]), re-routing against the replica
    /// map the repair pass between attempts leaves.
    ///
    /// Atomicity is per partition batch: a multi-partition statement that
    /// fails mid-way has committed some partitions and not others (each
    /// committed batch is fully replicated and durable); the retry
    /// re-applies the op, which is idempotent for upserts and predicate
    /// ops, and `rows_affected` reports the final attempt's count.
    pub fn dml(&self, sql: &str) -> IcResult<DmlResult> {
        self.dml_inner(0, sql, None)
    }

    /// [`Cluster::dml`] with a per-statement [`Trace`], returned even when
    /// the write fails; `client` seeds the backoff jitter.
    pub fn dml_traced(&self, client: u64, sql: &str) -> (IcResult<DmlResult>, Arc<Trace>) {
        let trace = Trace::new();
        let result = self.dml_inner(client, sql, Some(&trace));
        (result, trace)
    }

    fn dml_inner(&self, client: u64, sql: &str, trace: Option<&Arc<Trace>>) -> IcResult<DmlResult> {
        let root = trace.map(|t| t.span("query", "query", None, Trace::COORD_LANE));
        self.write(client, &self.parse(sql, root.as_ref())?, root.as_ref())
    }

    /// Refuse anything but DML, bind and plan it once, take an admission
    /// slot like a read does, then run [`Cluster::dml_stmt`] through the
    /// attempt loop. The plan is the partition pin, which depends on the
    /// statement and the partition count only: no failure or membership
    /// change between attempts moves it.
    fn write(&self, client: u64, stmt: &Statement, under: Under<'_>) -> IcResult<DmlResult> {
        if !matches!(stmt, Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)) {
            return Err(IcError::Exec("use query()/run() for non-DML statements".into()));
        }
        let bound = {
            let _span = under.map(|s| s.child("sql.bind", "plan"));
            ic_sql::bind_dml(stmt, &self.catalog)?
        };
        let plan = {
            let _span = under.map(|s| s.child("opt.dml_plan", "plan"));
            ic_opt::plan_dml(&self.catalog, bound)?
        };
        let _admission = self.admit(client, under)?;
        let (mut result, retries) =
            self.attempts(client, under, |attempt| self.dml_stmt(&plan, attempt))?;
        result.retries = retries;
        Ok(result)
    }

    /// One commit attempt of a planned write (no failover): `execute_dml`
    /// routes it over the replica map as it stands at this attempt.
    fn dml_stmt(&self, plan: &DmlPlan, under: Under<'_>) -> IcResult<DmlResult> {
        let mut span = under.map(|s| s.child("storage.execute_dml", "exec"));
        let out = ic_storage::execute_dml(
            &self.catalog,
            &self.network,
            plan.table,
            &plan.op,
            plan.pinned_partition(),
        )?;
        if let Some(span) = &mut span {
            span.arg("rows_affected", out.rows_affected as u64);
            span.arg("batches", out.batches as u64);
        }
        drop(span);
        if out.degraded {
            // The ack skipped a dead backup: re-replicate now so one more
            // failure cannot make the surviving copies of this write the
            // last ones.
            self.repair();
        }
        Ok(DmlResult { rows_affected: out.rows_affected, batches: out.batches, retries: 0 })
    }

    /// Bulk-insert rows (the benchmark loaders use this instead of
    /// generating INSERT statements).
    pub fn insert(&self, table: &str, rows: Vec<Row>) -> IcResult<usize> {
        let id = self
            .catalog
            .table_by_name(table)
            .ok_or_else(|| IcError::Catalog(format!("unknown table '{table}'")))?;
        self.catalog.insert(id, rows)
    }

    /// Recompute statistics and rebuild indexes for every table (run after
    /// bulk loading, like Ignite with statistics enabled).
    pub fn analyze_all(&self) -> IcResult<()> {
        for name in self.catalog.table_names() {
            let id = self.catalog.table_by_name(&name).ok_or_else(|| {
                IcError::Internal(format!("table '{name}' listed but not resolvable"))
            })?;
            self.catalog.analyze(id)?;
        }
        Ok(())
    }

    fn table_id(&self, name: &str) -> IcResult<TableId> {
        self.catalog
            .table_by_name(name)
            .ok_or_else(|| IcError::Catalog(format!("unknown table '{name}'")))
    }

    /// Row count of a table.
    pub fn table_rows(&self, name: &str) -> IcResult<usize> {
        let id = self.table_id(name)?;
        let data = self
            .catalog
            .table_data(id)
            .ok_or_else(|| IcError::Catalog(format!("no data handle for table '{name}'")))?;
        Ok(data.total_rows())
    }

    /// Execute a SELECT query end-to-end. `EXPLAIN SELECT …` returns the
    /// optimized physical plan as a single-column result.
    ///
    /// Once parsed and bound, the query passes admission control (see
    /// [`Cluster::query_as`] for the per-client form); it may be shed with
    /// the client-retryable [`IcError::Overloaded`], and its memory lease
    /// may be revoked under pool pressure ([`IcError::ResourcesRevoked`]).
    ///
    /// Failover-retryable failures ([`IcError::SiteUnavailable`]: a site
    /// crashed or a link dropped an exchange message mid-run) are retried
    /// up to `max_retries` times with exponential backoff; each retry
    /// replans the query against the surviving topology, substituting
    /// backup partition owners for dead sites. When every attempt fails
    /// retryably, the whole failure chain surfaces as
    /// [`IcError::RetriesExhausted`].
    pub fn query(&self, sql: &str) -> IcResult<QueryResult> {
        self.query_as(0, sql)
    }

    /// [`Cluster::query`] on behalf of a specific client (the governor's
    /// fair-share unit — one id per AQL terminal/session).
    pub fn query_as(&self, client: u64, sql: &str) -> IcResult<QueryResult> {
        self.query_inner(client, sql, None)
    }

    /// [`Cluster::query_as`] with a per-query [`Trace`]: every phase
    /// (parse, bind, admission, per-attempt planning stages and execution
    /// down to individual operators and transfers) is recorded as spans, and
    /// governor shed/revoke decisions and network faults as instant events.
    ///
    /// The trace is returned even when the query fails, so failed and
    /// failed-over attempts stay inspectable (render it with
    /// [`TraceSink`]).
    pub fn query_traced(&self, client: u64, sql: &str) -> (IcResult<QueryResult>, Arc<Trace>) {
        let trace = Trace::new();
        let result = self.query_inner(client, sql, Some(&trace));
        (result, trace)
    }

    fn query_inner(
        &self,
        client: u64,
        sql: &str,
        trace: Option<&Arc<Trace>>,
    ) -> IcResult<QueryResult> {
        let root = trace.map(|t| t.span("query", "query", None, Trace::COORD_LANE));
        let under = root.as_ref();
        let front = Instant::now();
        let (query, mode) = match self.parse(sql, under)? {
            Statement::Query(q) => (q, Mode::Rows),
            Statement::Explain(q) => (q, Mode::Explain),
            Statement::ExplainAnalyze(q) => (q, Mode::Analyze),
            _ => return Err(IcError::Exec("use run() for DDL statements".into())),
        };
        let bound = self.bind(&query, under)?;
        let front = front.elapsed();
        // The admission slot is held across the *whole* attempt loop:
        // replans are the same query, not new work, so they never re-enter
        // the queue — and each attempt opens a fresh pool lease, so buffer
        // budget is never double-counted across replans.
        let admission = self.admit(client, under)?;
        let (mut result, retries) =
            self.attempts(client, under, |attempt| self.query_attempt(&bound, mode, attempt))?;
        result.plan_time += front;
        result.retries = retries;
        result.stats.queue_wait = admission.queue_wait();
        Ok(result)
    }

    /// The one parse of a statement call.
    fn parse(&self, sql: &str, under: Under<'_>) -> IcResult<Statement> {
        let _span = under.map(|s| s.child("sql.parse", "plan"));
        parse_sql(sql)
    }

    /// The one bind of a SELECT: names and types do not depend on which
    /// sites are alive, so every attempt shares it.
    fn bind(&self, query: &ast::Query, under: Under<'_>) -> IcResult<Bound> {
        let _span = under.map(|s| s.child("sql.bind", "plan"));
        bind_statement(query, &self.catalog)
    }

    /// Admission control for a read or a write. The deadline is the
    /// statement's wall-clock budget: one whose budget would elapse in the
    /// queue is shed, not started.
    fn admit(&self, client: u64, under: Under<'_>) -> IcResult<Admission> {
        let deadline = self.config.exec_timeout.map(|t| Instant::now() + t);
        let mut span = under.map(|s| s.child("admission", "query"));
        let admitted = self.governor.admit(client, deadline);
        match (&admitted, &mut span) {
            (Ok(a), Some(span)) => span.arg("queue_wait_us", a.queue_wait().as_micros() as u64),
            (Err(e), Some(span)) => {
                span.trace().event("governor.shed", "query", Trace::COORD_LANE, e.to_string())
            }
            _ => {}
        }
        admitted
    }

    /// The attempt loop of every retryable statement, read or write: `body`
    /// under an `attempt N` span; on a failover-retryable error back off,
    /// probe the site found down (so the message clock moves), repair
    /// replicas (resync stale ones before a replanned read can route to one,
    /// promote live backups so a retried write has a primary) and go again;
    /// the retry places itself on the sites up at its own tick.
    /// Returns the answer and its retries.
    fn attempts<T>(
        &self,
        client: u64,
        under: Under<'_>,
        body: impl Fn(Under<'_>) -> IcResult<T>,
    ) -> IcResult<(T, u32)> {
        let mut chain: Vec<String> = Vec::new();
        let mut attempt: u32 = 0;
        loop {
            let span = under.map(|s| s.child(format!("attempt {attempt}"), "attempt"));
            match body(span.as_ref()) {
                Ok(out) => {
                    if attempt > 0 {
                        MetricsRegistry::global().counter("core.query.retries").add(attempt.into());
                    }
                    return Ok((out, attempt));
                }
                // Only site faults re-enter the loop. Shed/revoked queries
                // must exit immediately and release their slot — retrying
                // them here would defeat the governor's back-pressure.
                Err(e) if e.is_failover_retryable() => {
                    if let Some(s) = &span {
                        s.trace().event("attempt.failed", "attempt", Trace::COORD_LANE, e.to_string());
                    }
                    drop(span);
                    chain.push(e.to_string());
                    if attempt >= self.config.max_retries {
                        return Err(IcError::RetriesExhausted { attempts: attempt + 1, chain });
                    }
                    attempt += 1;
                    let backoff = self.retry_backoff(client, attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    if let IcError::SiteUnavailable { site, .. } = e {
                        self.probe(SiteId(site));
                    }
                    self.repair();
                }
                Err(e) => {
                    if let (Some(s), IcError::ResourcesRevoked { .. }) = (&span, &e) {
                        s.trace().event("governor.revoked", "query", Trace::COORD_LANE, e.to_string());
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Send one control frame from the lowest live member to `site`,
    /// ignoring the outcome. Crash windows are measured in messages, and an
    /// attempt that failed before sending any (a down primary, a partition
    /// with no live copy) would otherwise leave the clock, and so the down
    /// set, where it was for every retry.
    fn probe(&self, site: SiteId) {
        let down = self.network.down_sites();
        let map = self.catalog.membership().snapshot();
        if let Some(&from) = map.members().iter().find(|s| !down.contains(s)) {
            let _ = self.network.replicate(from, site, 64);
        }
    }

    /// Backoff before failover attempt `attempt` (1-based): exponential
    /// doubling capped at 2^8, scaled by a jitter factor in [0.5, 1.5).
    /// Pure doubling synchronizes retry storms — every client that lost
    /// the same site wakes at the same instant and hammers the failover
    /// target together. The jitter is drawn from the installed fault
    /// plan's seed (fixed constant when no plan is installed) mixed with
    /// the client id and attempt number, so chaos/fuzz runs replay the
    /// exact same sleep schedule from the same seed.
    fn retry_backoff(&self, client: u64, attempt: u32) -> Duration {
        let base = self.config.retry_backoff * 2u32.saturating_pow((attempt - 1).min(8));
        if base.is_zero() {
            return base;
        }
        const NO_PLAN_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
        let seed = self
            .network
            .fault_injector()
            .map(|inj| inj.plan().seed)
            .unwrap_or(NO_PLAN_SEED);
        let mut rng =
            ic_net::SplitMix64::new(seed ^ client.rotate_left(17) ^ (u64::from(attempt) << 32));
        base.mul_f64(0.5 + rng.next_f64())
    }

    /// The one place a bound query gets its plan, and the only optimizer
    /// call: a lookup before it is a planner run. The statement's literals
    /// are lifted out ([`params::lift`]); its shape either has a current
    /// template in this cluster's cache or is planned now —
    /// `ic_opt::optimize_query`'s two stages, a span each, on the *lifted*
    /// plan — and stored; either way the statement's own literals are bound
    /// back into a copy, so what executes holds no placeholder.
    ///
    /// Runs every attempt, and a failover replan is a hit: nothing in the
    /// optimizer reads liveness or ownership — a plan depends on the
    /// catalog's definitions, statistics and indexes (the per-table plan
    /// generations an entry is validated against) and on the membership
    /// map's partition *count*, which joins, leaves and failures never
    /// change. Placement on the sites alive now is `execute_plan`'s.
    /// A planner error is returned, never stored: IC's budget exhaustions
    /// recur on every submission.
    fn plan_query(&self, bound: &Bound, under: Under<'_>) -> IcResult<Planned> {
        let mut plan_span = under.map(|s| s.child("plan", "plan"));
        let params::Lifted { shape, params } = params::lift(&bound.plan);
        let (cache, template) = match self.plans.lookup(&shape, &self.catalog) {
            (cache, Some(template)) => (cache, template),
            (cache, None) => {
                let generations = generations_of(&shape, &self.catalog);
                let under = plan_span.as_ref();
                let logical = {
                    let _span = under.map(|s| s.child("opt.hep", "plan"));
                    hep_stage(Arc::clone(&shape), &self.flags)?
                };
                let mut span = under.map(|s| s.child("opt.volcano", "plan"));
                let template = Arc::new(volcano_stage(logical, &self.catalog, &self.flags)?);
                if let Some(span) = &mut span {
                    span.arg("rule_firings", template.rule_firings);
                }
                self.plans.store(shape, generations, Arc::clone(&template));
                (cache, template)
            }
        };
        if let Some(span) = &mut plan_span {
            span.arg("cache", cache as u64);
        }
        Ok(Planned {
            plan: params::bind(&template.plan, &params),
            rule_firings: template.rule_firings,
            reorder_disabled: template.reorder_disabled,
            cache,
        })
    }

    /// One planning + execution attempt of a bound query (no failover).
    fn query_attempt(&self, bound: &Bound, mode: Mode, under: Under<'_>) -> IcResult<QueryResult> {
        let plan_start = Instant::now();
        let planned = self.plan_query(bound, under)?;
        let plan_time = plan_start.elapsed();
        let result = |columns, rows, stats| QueryResult {
            columns,
            rows,
            stats,
            plan_time,
            rule_firings: planned.rule_firings,
            reorder_disabled: planned.reorder_disabled,
            retries: 0,
        };
        // A rendered plan as the statement's answer: one row per line.
        let plan_text = |text: String, stats| {
            let rows = text.lines().map(|l| Row(vec![ic_common::Datum::str(l)])).collect();
            result(vec!["plan".into()], rows, stats)
        };
        if mode == Mode::Explain {
            let text = ic_plan::explain::explain_physical(&planned.plan);
            return Ok(plan_text(text, QueryStats::default()));
        }
        // EXPLAIN ANALYZE executes traced even when the caller didn't ask
        // for a trace, then renders the attempt table's actuals, not rows.
        let trace = under
            .map(|s| Arc::clone(s.trace()))
            .or_else(|| (mode == Mode::Analyze).then(Trace::new));
        let opts = ExecOptions {
            variant_fragments: self.flags.variant_fragments,
            timeout: self.config.exec_timeout,
            memory_limit_rows: self.config.memory_limit_rows,
            pool: Some(self.governor.pool().clone()),
            trace: trace.clone(),
            trace_parent: under.map(SpanGuard::id),
            ..ExecOptions::default()
        };
        let (rows, stats) = execute_plan(&planned.plan, &self.catalog, &self.network, &opts)?;
        if mode == Mode::Analyze {
            let table = trace.and_then(|t| TraceSink::new(t).explain_analyze()).ok_or_else(|| {
                IcError::Internal("EXPLAIN ANALYZE executed without registering an attempt".into())
            })?;
            // Where the plan came from, then the plan with its actuals.
            let header = match planned.cache {
                Lookup::Hit => "plan: cached".to_string(),
                Lookup::Miss | Lookup::Stale => format!(
                    "plan: planned in {:.3} ms, {} firings",
                    plan_time.as_secs_f64() * 1e3,
                    planned.rule_firings
                ),
            };
            return Ok(plan_text(format!("{header}\n{table}"), stats));
        }
        Ok(result(bound.output_names.clone(), rows, stats))
    }

    /// EXPLAIN: the optimized physical plan as text.
    pub fn explain(&self, sql: &str) -> IcResult<String> {
        let (Statement::Query(q) | Statement::Explain(q) | Statement::ExplainAnalyze(q)) =
            self.parse(sql, None)?
        else {
            return Err(IcError::Exec("EXPLAIN requires a SELECT".into()));
        };
        let plan = self.query_attempt(&self.bind(&q, None)?, Mode::Explain, None)?;
        Ok(plan.rows.iter().map(|line| format!("{}\n", line.0[0])).collect())
    }
}

/// The span a traced call records under; `None` when it is not traced.
type Under<'a> = Option<&'a SpanGuard>;

/// What [`Cluster::plan_query`] answers: the statement's own plan — its
/// literals bound in, nothing left to substitute — with the telemetry of
/// the planner run that made its template.
struct Planned {
    plan: Arc<PhysPlan>,
    rule_firings: u64,
    reorder_disabled: bool,
    cache: Lookup,
}

/// What a SELECT answers with: rows, its plan (`EXPLAIN`, not executed),
/// or the plan annotated with the execution's actuals (`EXPLAIN ANALYZE`).
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Rows,
    Explain,
    Analyze,
}

/// Positions of the columns named `cols` in `table`'s schema.
fn col_positions(schema: &Schema, table: &str, cols: &[String]) -> IcResult<Vec<usize>> {
    let unknown = |c: &String| IcError::Catalog(format!("unknown column '{c}' in '{table}'"));
    cols.iter().map(|c| schema.index_of(c).ok_or_else(|| unknown(c))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::Datum;

    fn sample_cluster(variant: SystemVariant) -> Cluster {
        let cluster = Cluster::new(ClusterConfig {
            variant,
            ..ClusterConfig::test_default()
        });
        cluster
            .run("CREATE TABLE employee (id BIGINT, name VARCHAR, dept BIGINT, PRIMARY KEY (id))")
            .unwrap();
        cluster
            .run("CREATE TABLE sales (sale_id BIGINT, emp_id BIGINT, amount DOUBLE, PRIMARY KEY (sale_id))")
            .unwrap();
        let employees: Vec<Row> = (0..100)
            .map(|i| Row(vec![Datum::Int(i), Datum::str(format!("emp{i}")), Datum::Int(i % 5)]))
            .collect();
        let sales: Vec<Row> = (0..1000)
            .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 100), Datum::Double((i % 97) as f64)]))
            .collect();
        cluster.insert("employee", employees).unwrap();
        cluster.insert("sales", sales).unwrap();
        cluster.analyze_all().unwrap();
        cluster
    }

    /// The paper's running example (Figure 1, Query A).
    #[test]
    fn figure1_query_a_all_variants() {
        for variant in SystemVariant::all() {
            let cluster = sample_cluster(variant);
            let result = cluster
                .query("SELECT * FROM employee INNER JOIN sales ON employee.id = sales.emp_id WHERE employee.id = 10")
                .unwrap();
            assert_eq!(result.columns.len(), 6, "{variant:?}");
            assert_eq!(result.rows.len(), 10, "{variant:?}");
            for row in &result.rows {
                assert_eq!(row.0[0], Datum::Int(10));
                assert_eq!(row.0[4], Datum::Int(10));
            }
        }
    }

    #[test]
    fn variants_agree_on_aggregates() {
        let mut baseline: Option<Vec<Row>> = None;
        for variant in SystemVariant::all() {
            let cluster = sample_cluster(variant);
            let result = cluster
                .query(
                    "SELECT dept, count(*) AS c, sum(amount) AS total \
                     FROM employee, sales WHERE id = emp_id \
                     GROUP BY dept ORDER BY dept",
                )
                .unwrap();
            assert_eq!(result.rows.len(), 5);
            match &baseline {
                None => baseline = Some(result.rows),
                Some(b) => assert_eq!(*b, result.rows, "{variant:?} diverged"),
            }
        }
    }

    #[test]
    fn order_by_and_limit() {
        let cluster = sample_cluster(SystemVariant::ICPlusM);
        let result = cluster
            .query("SELECT id, name FROM employee ORDER BY id DESC LIMIT 3")
            .unwrap();
        let ids: Vec<i64> = result.rows.iter().map(|r| r.0[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![99, 98, 97]);
    }

    #[test]
    fn ddl_errors() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        assert!(cluster.run("CREATE TABLE employee (id BIGINT, PRIMARY KEY (id))").is_err());
        assert!(cluster.run("CREATE INDEX ix ON missing (x)").is_err());
        assert!(cluster.run("SELECT 1 FROM employee").is_err());
        assert!(cluster.query("CREATE TABLE t (id BIGINT, PRIMARY KEY (id))").is_err());
        // The wrong door refuses before anything executes.
        assert!(cluster.query("DELETE FROM employee").is_err());
        assert_eq!(cluster.table_rows("employee").unwrap(), 100);
        assert!(cluster.dml("CREATE TABLE t (id BIGINT, PRIMARY KEY (id))").is_err());
        assert!(cluster.catalog().table_by_name("t").is_none());
    }

    /// A statement that fails to parse, to bind, or at the door's kind check
    /// never takes an admission slot, and its trace is still well-formed.
    #[test]
    fn front_end_errors_precede_admission() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let admitted = cluster.governor().stats().admitted;
        // Type errors are bind errors too: the binder's coercion pass
        // rejects them before any slot is taken.
        let type_errors = [
            "SELECT id FROM employee WHERE id = 'a'",
            "SELECT id + 'a' FROM employee",
            "SELECT id FROM employee WHERE id LIKE 'a%'",
            "SELECT sum(name) FROM employee",
        ];
        for sql in ["SELEC id FROM employee", "SELECT nope FROM employee", "DELETE FROM employee"]
            .into_iter()
            .chain(type_errors)
        {
            let (result, trace) = cluster.query_traced(0, sql);
            assert!(result.is_err(), "{sql}");
            if type_errors.contains(&sql) {
                assert!(matches!(result, Err(IcError::Bind(_))), "{sql}: {result:?}");
            }
            trace.validate().expect("well-formed span tree");
            let spans = trace.spans();
            assert!(spans.iter().any(|s| s.name == "sql.parse"), "{sql}");
            assert!(!spans.iter().any(|s| s.name == "admission" || s.cat == "attempt"), "{sql}");
        }
        assert_eq!(cluster.governor().stats().admitted, admitted);
        cluster.query("SELECT id FROM employee").unwrap();
        assert_eq!(cluster.governor().stats().admitted, admitted + 1);
    }

    #[test]
    fn explain_shows_physical_plan() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let plan = cluster
            .explain("SELECT count(*) FROM sales WHERE amount > 50")
            .unwrap();
        assert!(plan.contains("TableScan(sales)"), "{plan}");
        assert!(plan.contains("Exchange"), "{plan}");
    }

    #[test]
    fn exec_timeout_enforced() {
        let cluster = Cluster::new(ClusterConfig {
            exec_timeout: Some(Duration::from_millis(1)),
            ..ClusterConfig::test_default()
        });
        cluster
            .run("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
            .unwrap();
        let rows: Vec<Row> = (0..30_000)
            .map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 100)]))
            .collect();
        cluster.insert("t", rows).unwrap();
        cluster.analyze_all().unwrap();
        // A cross-ish join big enough to exceed 1 ms.
        let err = cluster
            .query("SELECT count(*) FROM t x, t y WHERE x.b = y.b")
            .unwrap_err();
        assert!(matches!(err, IcError::ExecTimeout { .. }), "{err}");
    }

    #[test]
    fn concurrent_clients() {
        let cluster = Arc::new(sample_cluster(SystemVariant::ICPlus));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = cluster.clone();
                std::thread::spawn(move || {
                    c.query("SELECT count(*) FROM sales").unwrap().rows[0].0[0]
                        .as_int()
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1000);
        }
    }

    /// `QueryStats::net_*` are the query's own cross-site traffic: with a
    /// second join shipping on the same network the whole time, every reply
    /// still reports its solo numbers.
    #[test]
    fn concurrent_queries_count_their_own_traffic() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let a = "SELECT count(*) FROM employee INNER JOIN sales ON employee.id = sales.emp_id";
        let b = "SELECT dept, sum(amount) FROM sales INNER JOIN employee ON emp_id = id \
                 WHERE amount > 20 GROUP BY dept";
        let traffic = |sql: &str| {
            let stats = cluster.query(sql).unwrap().stats;
            (stats.net_messages, stats.net_bytes)
        };
        let (solo_a, solo_b) = (traffic(a), traffic(b));
        assert!(solo_a.1 > 0 && solo_b.1 > 0 && solo_a != solo_b, "{solo_a:?} {solo_b:?}");
        let done = std::sync::atomic::AtomicBool::new(false);
        let (a_runs, b_runs) = std::thread::scope(|scope| {
            // `a` back to back until every `b` below has run against it.
            let background = scope.spawn(|| {
                let mut seen = Vec::new();
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    seen.push(traffic(a));
                }
                seen
            });
            let b_runs: Vec<_> = (0..50).map(|_| traffic(b)).collect();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            (background.join().unwrap(), b_runs)
        });
        assert!(a_runs.iter().all(|t| *t == solo_a), "a beside b: {a_runs:?} vs {solo_a:?}");
        assert!(b_runs.iter().all(|t| *t == solo_b), "b beside a: {b_runs:?} vs {solo_b:?}");
    }

    #[test]
    fn explain_statement_via_query() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let r = cluster.query("EXPLAIN SELECT count(*) FROM sales WHERE amount > 10").unwrap();
        assert_eq!(r.columns, vec!["plan".to_string()]);
        let text: Vec<String> =
            r.rows.iter().map(|row| row.0[0].as_str().unwrap().to_string()).collect();
        assert!(text.iter().any(|l| l.contains("TableScan(sales)")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("HashAggregate")), "{text:?}");
    }

    #[test]
    fn explain_analyze_annotates_actuals() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let r = cluster
            .query(
                "EXPLAIN ANALYZE SELECT * FROM employee INNER JOIN sales ON employee.id = sales.emp_id",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["plan".to_string()]);
        let lines = |r: &QueryResult| -> Vec<String> {
            r.rows.iter().map(|row| row.0[0].as_str().unwrap().to_string()).collect()
        };
        // One header line says where the plan came from: planned here, the
        // template bound on the statement's second submission.
        let header = lines(&r).remove(0);
        assert!(header.starts_with("plan: planned in ") && header.ends_with(" firings"), "{header}");
        let again = cluster
            .query(
                "EXPLAIN ANALYZE SELECT * FROM employee INNER JOIN sales ON employee.id = sales.emp_id",
            )
            .unwrap();
        assert_eq!(lines(&again)[0], "plan: cached");
        assert_eq!(again.rule_firings, r.rule_firings, "the template's telemetry");
        let text = lines(&r).split_off(1);
        // Every plan line carries est-vs-actual rows, batches and self-time.
        assert!(text.iter().all(|l| l.contains("rows est=") && l.contains(" act=")), "{text:?}");
        assert!(text.iter().all(|l| l.contains("batches=") && l.contains("self=")), "{text:?}");
        // The root's actual row count is the join cardinality (1000 sales
        // rows, each matching one employee).
        assert!(text[0].contains("act=1000"), "{text:?}");
        // A distributed join ships data: some Exchange line reports bytes.
        assert!(
            text.iter().any(|l| l.contains("Exchange") && l.contains("shipped=")),
            "{text:?}"
        );
    }

    #[test]
    fn query_traced_produces_wellformed_trace() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let (result, trace) = cluster.query_traced(
            0,
            "SELECT dept, count(*) FROM employee INNER JOIN sales ON employee.id = sales.emp_id GROUP BY dept",
        );
        let result = result.unwrap();
        trace.validate().expect("well-formed span tree");
        assert_eq!(trace.open_spans(), 0, "spans left open after the query finished");
        let spans = trace.spans();
        for cat in ["query", "plan", "exec", "fragment", "operator"] {
            assert!(spans.iter().any(|s| s.cat == cat), "missing {cat} span");
        }
        // The stages of the statement path, each exactly once on the first
        // execution of a shape that needed one attempt.
        for stage in ["sql.parse", "sql.bind", "admission", "plan", "opt.hep", "opt.volcano"] {
            assert_eq!(spans.iter().filter(|s| s.name == stage).count(), 1, "{stage}");
        }
        let volcano = spans.iter().find(|s| s.name == "opt.volcano").unwrap();
        assert_eq!(volcano.args, vec![("rule_firings", result.rule_firings)]);
        let plan = spans.iter().find(|s| s.name == "plan").unwrap();
        assert_eq!(plan.args, vec![("cache", Lookup::Miss as u64)]);
        // The root operator's traced rows equal the rows the client got.
        let attempts = trace.attempts();
        let attempt = attempts.last().expect("one attempt");
        assert_eq!(attempt.rows(0), result.rows.len() as u64);
        // Chrome export stays structurally sound on a real query.
        let json = ic_common::obs::chrome_trace_json(&trace);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // A traced distributed join feeds the process-wide registry.
        let metrics = MetricsRegistry::global().render_text();
        for name in ["exec.batch.rows", "exec.batch.batches", "net.transfer.bytes"] {
            assert!(metrics.contains(name), "metrics registry missing {name}:\n{metrics}");
        }
        // The second execution of the shape — other literals would do —
        // binds the template: a `plan` span with no optimizer stage under it.
        let (again, trace) = cluster.query_traced(
            0,
            "SELECT dept, count(*) FROM employee INNER JOIN sales ON employee.id = sales.emp_id GROUP BY dept",
        );
        let again = again.unwrap();
        trace.validate().expect("well-formed span tree on a cache hit");
        let spans = trace.spans();
        let plan = spans.iter().find(|s| s.name == "plan").expect("plan span");
        assert_eq!(plan.args, vec![("cache", Lookup::Hit as u64)]);
        assert!(!spans.iter().any(|s| s.name.starts_with("opt.")), "planned on a hit");
        let sorted = |mut rows: Vec<Row>| {
            rows.sort();
            rows
        };
        assert_eq!(sorted(again.rows), sorted(result.rows));
        assert_eq!(again.rule_firings, result.rule_firings);
    }

    #[test]
    fn memory_limit_surfaces_as_error() {
        let mut config = ClusterConfig::test_default();
        config.memory_limit_rows = 500;
        config.exec_timeout = Some(Duration::from_secs(30));
        let cluster = Cluster::new(config);
        cluster.run("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))").unwrap();
        let rows: Vec<Row> =
            (0..5000).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 3)])).collect();
        cluster.insert("t", rows).unwrap();
        cluster.analyze_all().unwrap();
        let err = cluster.query("SELECT count(*) FROM t x, t y WHERE x.b = y.b").unwrap_err();
        assert!(
            matches!(err, IcError::MemoryLimit { .. } | IcError::ExecTimeout { .. }),
            "{err}"
        );
    }

    #[test]
    fn with_variant_shares_data() {
        let base = sample_cluster(SystemVariant::IC);
        let plus = base.with_variant(SystemVariant::ICPlus);
        assert_eq!(plus.table_rows("sales").unwrap(), 1000);
        assert_eq!(plus.variant(), SystemVariant::ICPlus);
    }

    fn failover_cluster(sites: usize, backups: usize) -> Cluster {
        cluster_with_t(ClusterConfig { sites, backups, ..ClusterConfig::test_default() })
    }

    fn cluster_with_t(config: ClusterConfig) -> Cluster {
        let cluster = Cluster::new(config);
        cluster
            .run("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
            .unwrap();
        let rows: Vec<Row> =
            (0..2000).map(|i| Row(vec![Datum::Int(i), Datum::Int(i % 7)])).collect();
        cluster.insert("t", rows).unwrap();
        cluster.analyze_all().unwrap();
        cluster
    }

    #[test]
    fn dead_site_failover_with_backups() {
        let cluster = failover_cluster(4, 1);
        let baseline = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(baseline.rows[0].0[0].as_int(), Some(2000));
        cluster.kill_site(2);
        // The dead site's partition is served by its backup owner: the
        // plan made while every site was alive is the plan still — a cache
        // hit — and execution places it on the survivors, so no retries.
        let r = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows[0].0[0].as_int(), Some(2000));
        assert_eq!(r.retries, 0);
        let stats = cluster.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.stale), (1, 1, 0), "liveness is not in the key");
        cluster.revive_site(2);
        let r = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows[0].0[0].as_int(), Some(2000));
    }

    #[test]
    fn dead_site_without_backups_exhausts_retries() {
        let cluster = failover_cluster(4, 0);
        cluster.kill_site(2);
        let err = cluster.query("SELECT count(*) FROM t").unwrap_err();
        match err {
            IcError::RetriesExhausted { attempts, chain } => {
                assert_eq!(attempts, cluster.config().max_retries + 1);
                assert_eq!(chain.len() as u32, attempts);
                assert!(chain[0].contains("partition"), "{chain:?}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn dml_roundtrip_insert_update_delete() {
        let cluster = sample_cluster(SystemVariant::ICPlus);
        let r = cluster
            .dml("INSERT INTO employee (id, name, dept) VALUES (200, 'new hire', 9)")
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        let q = cluster.query("SELECT name, dept FROM employee WHERE id = 200").unwrap();
        assert_eq!(q.rows.len(), 1);
        assert_eq!(q.rows[0].0[1], Datum::Int(9));
        let r = cluster.dml("UPDATE employee SET dept = dept + 1 WHERE id = 200").unwrap();
        assert_eq!(r.rows_affected, 1);
        let q = cluster.query("SELECT dept FROM employee WHERE id = 200").unwrap();
        assert_eq!(q.rows[0].0[0], Datum::Int(10));
        let r = cluster.dml("DELETE FROM employee WHERE id = 200").unwrap();
        assert_eq!(r.rows_affected, 1);
        let q = cluster.query("SELECT count(*) FROM employee").unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(100));
        // run() routes DML too (no result surfaced).
        cluster.run("INSERT INTO employee (id, name, dept) VALUES (201, 'x', 1)").unwrap();
        assert_eq!(cluster.table_rows("employee").unwrap(), 101);
        // INSERT is a PK upsert: same key replaces, count is unchanged.
        cluster.dml("INSERT INTO employee (id, name, dept) VALUES (201, 'y', 2)").unwrap();
        assert_eq!(cluster.table_rows("employee").unwrap(), 101);
    }

    #[test]
    fn dml_survives_dead_primary_via_promotion() {
        let cluster = failover_cluster(4, 1);
        // A crash window runs no repair pass (a kill would: see the test
        // below), so the write is the first to meet the dead site.
        cluster.install_faults(FaultPlan::new(1).crash(SiteId(2), 0));
        // An unpinned DELETE touches every partition; site 2 is a dead
        // primary or backup of three of them, so the first attempt fails
        // retryably, the repair pass promotes and re-replicates, and the
        // retry commits.
        // Partition batches are atomic but the statement is not: partitions
        // committed by the first attempt report zero matches on the retry,
        // so rows_affected counts the final attempt only — the end state is
        // what the assertions below pin.
        let (r, trace) = cluster.dml_traced(0, "DELETE FROM t WHERE a < 100");
        let r = r.unwrap();
        assert!(r.rows_affected <= 100);
        assert!(r.retries >= 1, "expected a failover retry, got {}", r.retries);
        // The write's trace has the read's skeleton: one parse, one bind and
        // one routing plan at the root, a span per attempt with the lost
        // one's event, and the commit stage under the attempt that answered.
        trace.validate().expect("well-formed span tree despite the dead primary");
        let spans = trace.spans();
        let root = spans.iter().find(|s| s.parent.is_none() && s.name == "query").unwrap().id;
        for stage in ["sql.parse", "sql.bind", "opt.dml_plan"] {
            let at: Vec<_> = spans.iter().filter(|s| s.name == stage).map(|s| s.parent).collect();
            assert_eq!(at, [Some(root)], "{stage}");
        }
        let attempts: Vec<_> = spans.iter().filter(|s| s.cat == "attempt").collect();
        assert_eq!(attempts.len() as u32, r.retries + 1);
        assert!(trace.events().iter().any(|e| e.name == "attempt.failed"));
        let answered = attempts.iter().max_by_key(|s| s.id.0).unwrap().id;
        let under_answered = |name: &str| {
            spans.iter().find(|s| s.name == name && s.parent == Some(answered)).cloned()
        };
        let commit = under_answered("storage.execute_dml").expect("commit stage");
        assert_eq!(
            commit.args,
            vec![("rows_affected", r.rows_affected as u64), ("batches", r.batches as u64)]
        );
        // One slot for the whole statement, held across both attempts.
        assert_eq!(spans.iter().filter(|s| s.name == "admission").count(), 1);
        let q = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(1900));
        // The repair promoted a live owner: writes now ack on first try.
        let r = cluster.dml("INSERT INTO t (a, b) VALUES (5000, 1)").unwrap();
        assert_eq!((r.rows_affected, r.retries), (1, 0));
    }

    /// A kill runs the repair pass itself, so the first write after it
    /// finds every partition on live, current owners.
    #[test]
    fn dml_after_a_kill_acks_without_a_retry() {
        let cluster = failover_cluster(4, 1);
        cluster.kill_site(2);
        let r = cluster.dml("DELETE FROM t WHERE a < 100").unwrap();
        assert_eq!((r.rows_affected, r.retries), (100, 0));
        let q = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!((q.rows[0].0[0].as_int(), q.retries), (Some(1900), 0));
    }

    /// Kill, write, kill, read: the write touches neither partition the
    /// first kill left on one live copy, so only the pass run by the kill
    /// itself keeps the second kill from taking partition 2's last copy.
    #[test]
    fn a_second_kill_finds_every_partition_repaired() {
        let cluster = failover_cluster(4, 1);
        cluster.kill_site(2);
        let k = keys_routed_to(&cluster, 0, 5000).next().unwrap();
        cluster.dml(&format!("INSERT INTO t (a, b) VALUES ({k}, 1)")).unwrap();
        cluster.kill_site(3);
        let q = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!((q.rows[0].0[0].as_int(), q.retries), (Some(2001), 0));
    }

    /// A write is admitted like a read: behind a held slot it is shed, a
    /// write that fails after admission gives its slot back, and front-end
    /// errors are reported before any slot is asked for.
    #[test]
    fn writes_take_an_admission_slot() {
        let cluster = cluster_with_t(ClusterConfig {
            sites: 4,
            governor: GovernorConfig {
                max_concurrent: 1,
                max_queue: 0,
                ..GovernorConfig::test_default()
            },
            ..ClusterConfig::test_default()
        });
        let insert = "INSERT INTO t (a, b) VALUES (5000, 1)";
        let held = cluster.governor().admit(7, None).unwrap();
        let before = cluster.governor().stats();
        let (shed, trace) = cluster.dml_traced(0, insert);
        assert!(matches!(shed, Err(IcError::Overloaded { .. })), "{shed:?}");
        assert!(trace.events().iter().any(|e| e.name == "governor.shed"));
        assert_eq!(cluster.table_rows("t").unwrap(), 2000, "a shed write applies nothing");
        // Parse, bind and wrong-door failures surface as themselves even with
        // the only slot taken: they never reach the governor.
        for sql in ["INSER INTO t", "INSERT INTO t (a, nope) VALUES (1, 1)", "SELECT a FROM t"] {
            let err = cluster.dml(sql).unwrap_err();
            assert!(!matches!(err, IcError::Overloaded { .. }), "{sql}: {err}");
        }
        let after = cluster.governor().stats();
        assert_eq!((after.admitted, after.shed), (before.admitted, before.shed + 1));
        drop(held);
        // No backups and a dead primary: the write fails *after* admission.
        cluster.kill_site(1);
        let err = cluster.dml("DELETE FROM t").unwrap_err();
        assert!(matches!(err, IcError::RetriesExhausted { .. }), "{err}");
        // With one slot and no queue, a leaked slot would shed this one.
        cluster.revive_site(1);
        let r = cluster.dml(insert).unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(cluster.governor().stats().admitted, before.admitted + 2);
    }

    #[test]
    fn dml_without_backups_exhausts_retries_on_dead_site() {
        let cluster = failover_cluster(4, 0);
        cluster.kill_site(1);
        let err = cluster.dml("DELETE FROM t").unwrap_err();
        assert!(matches!(err, IcError::RetriesExhausted { .. }), "{err}");
    }

    /// Every owner list of `cluster` is its partition's target: the first
    /// `copies` entries of the affinity ranking of the members.
    fn assert_on_target(cluster: &Cluster, copies: usize) {
        let map = cluster.catalog().membership().snapshot();
        for p in 0..map.num_partitions() {
            let target: Vec<SiteId> = ic_net::affinity(map.members(), p).take(copies).collect();
            assert_eq!(map.owners_of(p), target, "partition {p}");
        }
    }

    /// A join copies only what the 5-member targets ask for: partition 3's
    /// backup moves from site 0 to site 4.
    #[test]
    fn join_site_migrates_and_serves() {
        let cluster = failover_cluster(4, 1);
        assert_eq!(cluster.join_site(4), 1);
        let map = cluster.catalog().membership().snapshot();
        assert_eq!(map.members().len(), 5);
        assert_eq!(map.partitions_hosted_by(SiteId(4)), [3]);
        assert_eq!(map.owners_of(3), [SiteId(3), SiteId(4)]);
        assert_on_target(&cluster, 2);
        let tables = cluster.catalog().hash_tables();
        assert!(tables.iter().all(|d| d.replica(3, SiteId(0)).is_none()), "the trimmed copy stayed");
        let q = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(2000));
        let r = cluster.dml("INSERT INTO t (a, b) VALUES (9001, 3)").unwrap();
        assert_eq!(r.rows_affected, 1);
    }

    /// Site 1 misses a write, then site 0 — the only holder of that write —
    /// goes down: the stale copy on site 1 takes over but must not accept
    /// writes, or their version numbers would collide with the one it
    /// missed and the resync after site 0 returns would keep the wrong
    /// history.
    #[test]
    fn stale_takeover_refuses_writes_until_the_newest_copy_returns() {
        let cluster = failover_cluster(2, 1);
        cluster.kill_site(1);
        cluster.dml("INSERT INTO t (a, b) VALUES (5000, 1), (5001, 1), (5002, 1), (5003, 1)").unwrap();
        cluster.kill_site(0);
        cluster.revive_site(1);
        let err = cluster.dml("INSERT INTO t (a, b) VALUES (6000, 2), (6001, 2), (6002, 2), (6003, 2)");
        assert!(matches!(err, Err(IcError::RetriesExhausted { .. })), "{err:?}");
        cluster.revive_site(0);
        let q = cluster.query("SELECT count(*) FROM t WHERE a >= 5000 AND a < 5004").unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(4), "an acknowledged write was lost");
        let r = cluster.dml("INSERT INTO t (a, b) VALUES (6000, 2)").unwrap();
        assert_eq!(r.rows_affected, 1);
    }

    /// Four sites, one backup, two empty hash tables `t1` and `t2`, and two
    /// keys (one per table) that route to partition 0, owned by sites 0
    /// and 1.
    fn two_tables_on_partition_0() -> (Cluster, i64, i64) {
        let cluster = Cluster::new(ClusterConfig { sites: 4, backups: 1, ..ClusterConfig::test_default() });
        for t in ["t1", "t2"] {
            cluster.run(&format!("CREATE TABLE {t} (k BIGINT, v BIGINT, PRIMARY KEY (k))")).unwrap();
        }
        let map = cluster.catalog().membership().snapshot();
        assert_eq!(map.owners_of(0), &[SiteId(0), SiteId(1)]);
        let mut keys = keys_routed_to(&cluster, 0, 0);
        (cluster, keys.next().unwrap(), keys.next().unwrap())
    }

    /// Integer keys from `from` up that a one-column key routes to
    /// partition `p`.
    fn keys_routed_to(cluster: &Cluster, p: usize, from: i64) -> impl Iterator<Item = i64> {
        let map = cluster.catalog().membership().snapshot();
        let hash = |k: i64| {
            let key = ic_common::ColumnBatch::from_typed_rows(
                &[ic_common::DataType::Int],
                &[Row(vec![Datum::Int(k)])],
            );
            key.hash_keys(&[0])[0]
        };
        (from..).filter(move |&k| map.partition_of_hash(hash(k)) == p)
    }

    fn rows_of(cluster: &Cluster, table: &str) -> IcResult<Vec<(i64, i64)>> {
        let q = cluster.query(&format!("SELECT k, v FROM {table} ORDER BY k"))?;
        Ok(q.rows.iter().map(|r| (r.0[0].as_int().unwrap(), r.0[1].as_int().unwrap())).collect())
    }

    /// Steps (1)–(2) of the histories below, in crash windows, which run
    /// no repair pass: site 1 misses a `t2` write that sites 0 and 2
    /// acknowledge (the write's retry repaired site 2 in), then both of
    /// those go down and site 1 returns. Site 1 is current for `t1` but
    /// not for `t2`.
    fn stale_for_t2_only(cluster: &Cluster, k2: i64) {
        cluster.install_faults(FaultPlan::new(1).crash(SiteId(1), 0));
        let r = cluster.dml(&format!("INSERT INTO t2 (k, v) VALUES ({k2}, 2)")).unwrap();
        assert_eq!((r.rows_affected, r.retries), (1, 1));
        let owners = cluster.catalog().membership().snapshot().owners_of(0).to_vec();
        assert_eq!(owners, [SiteId(0), SiteId(2), SiteId(1)], "repair added site 2");
        cluster.install_faults(FaultPlan::new(1).crash(SiteId(0), 0).crash(SiteId(2), 0));
    }

    /// The same steps by kills: each kill runs the pass, so site 3 takes
    /// partition 0 over before site 2 goes down, and the revive copies
    /// site 1 current from it.
    fn kills_around_a_t2_write(cluster: &Cluster, k2: i64) {
        cluster.kill_site(1);
        let r = cluster.dml(&format!("INSERT INTO t2 (k, v) VALUES ({k2}, 2)")).unwrap();
        assert_eq!((r.rows_affected, r.retries), (1, 0));
        cluster.kill_site(0);
        cluster.kill_site(2);
        cluster.revive_site(1);
        let owners = cluster.catalog().membership().snapshot().owners_of(0).to_vec();
        assert_eq!(owners, [SiteId(1), SiteId(3), SiteId(2), SiteId(0)]);
    }

    /// The currency of a partition is decided over all its tables: a `t1`
    /// write must not commit on site 1's copy while site 0 and 2, down,
    /// hold a newer `t2`. Committed, it would leave every owner one write
    /// ahead in one table, and the resync after they return would keep site
    /// 1's copy — losing the acknowledged `t2` row everywhere.
    #[test]
    fn a_write_cannot_fork_a_partition_across_tables() {
        let (cluster, k1, k2) = two_tables_on_partition_0();
        stale_for_t2_only(&cluster, k2);
        let t1_write = cluster.dml(&format!("INSERT INTO t1 (k, v) VALUES ({k1}, 1)"));
        cluster.clear_faults();
        assert_eq!(rows_of(&cluster, "t2").unwrap(), [(k2, 2)], "an acknowledged t2 write was lost");
        let t1_rows = rows_of(&cluster, "t1").unwrap();
        assert!(matches!(t1_write, Err(IcError::RetriesExhausted { .. })), "{t1_write:?}");
        assert_eq!(t1_rows, [], "a refused write applied");
    }

    /// After the same history by kills, site 1 is current for both tables
    /// and the `t1` write commits at once, beside the `t2` write.
    #[test]
    fn after_kills_a_write_commits_without_a_retry() {
        let (cluster, k1, k2) = two_tables_on_partition_0();
        kills_around_a_t2_write(&cluster, k2);
        let r = cluster.dml(&format!("INSERT INTO t1 (k, v) VALUES ({k1}, 1)")).unwrap();
        assert_eq!((r.rows_affected, r.retries), (1, 0));
        cluster.revive_site(0);
        cluster.revive_site(2);
        assert_eq!(rows_of(&cluster, "t2").unwrap(), [(k2, 2)]);
        assert_eq!(rows_of(&cluster, "t1").unwrap(), [(k1, 1)]);
    }

    /// A read served by a copy older than a down owner's would miss an
    /// acknowledged write: it fails retryably instead, and succeeds with
    /// the row once the owner holding the newest copy returns.
    #[test]
    fn reads_refuse_a_copy_older_than_a_down_owner() {
        let (cluster, _, k2) = two_tables_on_partition_0();
        stale_for_t2_only(&cluster, k2);
        match rows_of(&cluster, "t2") {
            Err(IcError::RetriesExhausted { chain, .. }) => {
                assert!(chain.iter().all(|e| e.contains("partition 0 is rebalancing")), "{chain:?}")
            }
            other => panic!("a copy older than a down owner served the read: {other:?}"),
        }
        assert_eq!(rows_of(&cluster, "t1").unwrap(), [], "site 1 is current for t1");
        cluster.install_faults(FaultPlan::new(1).crash(SiteId(2), 0));
        assert_eq!(rows_of(&cluster, "t2").unwrap(), [(k2, 2)]);
    }

    /// After the same history by kills, the read is served at once.
    #[test]
    fn after_kills_a_read_is_served_without_a_retry() {
        let (cluster, _, k2) = two_tables_on_partition_0();
        kills_around_a_t2_write(&cluster, k2);
        let q = cluster.query("SELECT k, v FROM t2").unwrap();
        assert_eq!((q.rows.len(), q.rows[0].0[0].as_int(), q.retries), (1, Some(k2), 0));
    }

    /// A down site that holds the only copy of a write cannot hand it off,
    /// so leaving keeps its replica (and membership) until it can.
    #[test]
    fn down_leaver_keeps_the_only_newest_copy() {
        let cluster = failover_cluster(2, 1);
        cluster.kill_site(1);
        cluster.dml("INSERT INTO t (a, b) VALUES (5000, 1), (5001, 1), (5002, 1), (5003, 1)").unwrap();
        cluster.kill_site(0);
        cluster.revive_site(1);
        cluster.leave_site(0);
        assert!(cluster.catalog().membership().snapshot().members().contains(&SiteId(0)));
        cluster.revive_site(0);
        let q = cluster.query("SELECT count(*) FROM t WHERE a >= 5000").unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(4), "an acknowledged write was lost");
    }

    /// Site 1 misses an acknowledged write inside a crash window and comes
    /// back live but stale, so the leaver, site 0, holds the only current
    /// copy of partition 0: the pass sources from it, catches site 1 up and
    /// hands off, and site 0 leaves without a trace.
    #[test]
    fn live_leaver_hands_off_the_only_current_copy() {
        let cluster = failover_cluster(2, 1);
        cluster.install_faults(FaultPlan::new(5).transient_crash(SiteId(1), 0, 3));
        let k = keys_routed_to(&cluster, 0, 5000).next().unwrap();
        cluster.dml(&format!("INSERT INTO t (a, b) VALUES ({k}, 1)")).unwrap();
        // Traffic moves the clock past the window (a closed window needs no
        // revive, so no repair resyncs site 1).
        while !cluster.network().down_sites().is_empty() {
            let _ = cluster.network().replicate(SiteId(0), SiteId(1), 64);
        }
        let tables = cluster.catalog().hash_tables();
        assert_eq!(cluster.catalog().current_copy(0, &tables, [SiteId(0), SiteId(1)]), Some(SiteId(0)));
        cluster.leave_site(0);
        let map = cluster.catalog().membership().snapshot();
        assert_eq!(map.members(), &[SiteId(1)]);
        for p in 0..map.num_partitions() {
            assert_eq!(map.owners_of(p), &[SiteId(1)], "partition {p}");
            assert!(tables.iter().all(|d| d.replica(p, SiteId(0)).is_none()), "partition {p}");
        }
        let q = cluster.query(&format!("SELECT count(*) FROM t WHERE a < 2000 OR a = {k}")).unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(2001), "an acknowledged write was lost");
    }

    /// A statement that fails before sending anything (a down primary, a
    /// partition with no live copy) still moves the message clock once per
    /// retry, so a crash window of three messages closes under the fourth
    /// attempt instead of exhausting the retries.
    #[test]
    fn a_retry_moves_the_fault_clock() {
        let config = ClusterConfig {
            sites: 2,
            backups: 0,
            retry_backoff: Duration::ZERO,
            max_retries: 4,
            ..ClusterConfig::test_default()
        };
        let crash = || FaultPlan::new(1).transient_crash(SiteId(1), 0, 3);
        let cluster = cluster_with_t(config.clone());
        cluster.install_faults(crash());
        let k = keys_routed_to(&cluster, 1, 5000).next().unwrap();
        let r = cluster.dml(&format!("INSERT INTO t (a, b) VALUES ({k}, 1)")).unwrap();
        assert_eq!((r.rows_affected, r.retries), (1, 3));
        let cluster = cluster_with_t(config);
        cluster.install_faults(crash());
        let q = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!((q.rows[0].0[0].as_int(), q.retries), (Some(2000), 3));
    }

    /// A leave results in the 3-member rotation: every partition on its
    /// target without the departed site, at the full replication factor.
    #[test]
    fn leave_site_keeps_data_and_replication() {
        let cluster = failover_cluster(4, 1);
        assert!(cluster.leave_site(0) > 0);
        let map = cluster.catalog().membership().snapshot();
        assert_eq!(map.members(), [SiteId(1), SiteId(2), SiteId(3)]);
        let owners: Vec<&[SiteId]> = (0..4).map(|p| map.owners_of(p)).collect();
        let (s1, s2, s3) = (SiteId(1), SiteId(2), SiteId(3));
        assert_eq!(owners, [&[s1, s2][..], &[s2, s3], &[s3, s1], &[s1, s2]]);
        assert_on_target(&cluster, 2);
        let q = cluster.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(2000));
    }

    /// The layout after a failure depends on membership, not history: a
    /// site that missed a write and returns is resynced, leads its
    /// partition again, and the copies made while it was down are trimmed,
    /// so every partition is back to its boot owners.
    #[test]
    fn a_revived_site_gets_its_partitions_back() {
        let cluster = failover_cluster(4, 1);
        cluster.kill_site(2);
        let k = keys_routed_to(&cluster, 2, 5000).next().unwrap();
        cluster.dml(&format!("INSERT INTO t (a, b) VALUES ({k}, 1)")).unwrap();
        cluster.revive_site(2);
        for _ in 0..3 {
            cluster.repair();
        }
        assert_on_target(&cluster, 2);
        let map = cluster.catalog().membership().snapshot();
        assert_eq!(map.primary_of(2), SiteId(2));
        assert!((0..4).all(|p| map.owners_of(p).len() == 2), "{map:?}");
        let q = cluster.query(&format!("SELECT count(*) FROM t WHERE a < 2000 OR a = {k}")).unwrap();
        assert_eq!(q.rows[0].0[0].as_int(), Some(2001));
    }

    #[test]
    fn mid_run_crash_recovers_via_retry() {
        let cluster = failover_cluster(4, 1);
        // Crash from tick 1: site3 is alive when the query is planned. Ticks
        // are messages and a link's end-of-stream rides its last batch, so a
        // one-exchange `count(*)` would put site3 on a single transfer, which
        // may well be tick 0; this self-join repartitions, site3 is on a
        // transfer to and from every other site, at most one of those is
        // tick 0 — the first attempt hits the crash mid-run by construction
        // and the retry must replan.
        let sql = "SELECT count(*) FROM t x, t y WHERE x.b = y.a";
        let plan = cluster.explain(sql).unwrap();
        assert!(plan.contains("Exchange[hash") || plan.contains("Exchange[broadcast]"), "{plan}");
        cluster.install_faults(FaultPlan::new(77).crash(SiteId(3), 1));
        let r = cluster.query(sql).unwrap();
        assert_eq!(r.rows[0].0[0].as_int(), Some(2000));
        assert!(r.retries >= 1, "expected at least one failover retry");
        // Every replanned attempt bound the first attempt's template.
        let stats = cluster.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.stale), (1, 1 + u64::from(r.retries), 0));
    }

    /// The attempt loop re-enters only on a failover-retryable error: that
    /// body runs `max_retries + 1` times and ends in `RetriesExhausted`,
    /// every other error's body runs once and the error comes back as is.
    #[test]
    fn attempts_retry_only_failover_errors() {
        let cluster =
            Cluster::new(ClusterConfig { retry_backoff: Duration::ZERO, ..ClusterConfig::test_default() });
        let (s, max_retries) = (String::new, cluster.config.max_retries);
        let every = [
            IcError::Parse(s()),
            IcError::Bind(s()),
            IcError::Plan(s()),
            IcError::PlannerBudgetExceeded { rules_fired: 1, budget: 1 },
            IcError::Unsupported(s()),
            IcError::Exec(s()),
            IcError::ExecTimeout { limit_ms: 1 },
            IcError::MemoryLimit { limit_rows: 1 },
            IcError::Catalog(s()),
            IcError::SiteUnavailable { site: 1, detail: s() },
            IcError::Overloaded { retry_after_ms: 1 },
            IcError::ResourcesRevoked { lease_cells: 1 },
            IcError::RetriesExhausted { attempts: 1, chain: vec![] },
            IcError::WriteConflict { partition: 0, expected_version: 1, found_version: 2 },
            IcError::RebalanceInProgress { partition: 0 },
            IcError::Internal(s()),
            IcError::Cancelled,
        ];
        for e in every {
            // No wildcard arm: a new variant fails to compile until listed.
            match e {
                IcError::Parse(_)
                | IcError::Bind(_)
                | IcError::Plan(_)
                | IcError::PlannerBudgetExceeded { .. }
                | IcError::Unsupported(_)
                | IcError::Exec(_)
                | IcError::ExecTimeout { .. }
                | IcError::MemoryLimit { .. }
                | IcError::Catalog(_)
                | IcError::SiteUnavailable { .. }
                | IcError::Overloaded { .. }
                | IcError::ResourcesRevoked { .. }
                | IcError::RetriesExhausted { .. }
                | IcError::WriteConflict { .. }
                | IcError::RebalanceInProgress { .. }
                | IcError::Internal(_)
                | IcError::Cancelled => {}
            }
            let runs = std::cell::Cell::new(0);
            let out = cluster.attempts(0, None, |_| -> IcResult<()> {
                runs.set(runs.get() + 1);
                Err(e.clone())
            });
            let err = out.unwrap_err();
            if e.is_failover_retryable() {
                assert_eq!(runs.get(), max_retries + 1, "{e}");
                assert!(matches!(err, IcError::RetriesExhausted { attempts, .. } if attempts == max_retries + 1));
            } else {
                assert_eq!((runs.get(), &err), (1, &e));
            }
        }
    }
}
