//! Deterministic whole-cluster simulation: one `u64` seed controls the
//! data, the query, the fault schedule, and the lease-pressure timing.
//!
//! [`Scenario::from_seed`] derives every input of one fuzz case from the
//! seed via a private [`SplitMix64`] stream; [`run_scenario`] drives the
//! case through the full differential battery:
//!
//! 1. local bind + [`reference`](crate::reference) evaluation (oracle 2),
//! 2. fault-free runs on a 1-site cluster (oracle 3 baseline) and on the
//!    N-site cluster under the `IC` (unoptimized), `ICPlus`, and
//!    (sometimes) `ICPlusM` variants (oracle 1) — on each cluster the
//!    statement is submitted twice, so the plan cache answers once with a
//!    fresh template and once with a stored one, and executed a third time
//!    from the plan the uncached `ic_opt::optimize_query` makes for it
//!    (on `ICPlusM` at three variant fragments, not the cluster's two),
//! 3. a faulted N-site run under the seed-derived [`FaultPlan`] and
//!    optional governor lease pressure, which must either agree with the
//!    reference or refuse with a retryable/terminal error.
//!
//! Every engine call runs under `catch_unwind`: a panic is a
//! disagreement, never a crash of the harness. The scenario digest
//! (inputs + canonical reference result) is deterministic, so replaying a
//! seed twice must produce byte-identical digests — the fuzzer checks
//! this on a sample of seeds each run.

use crate::gen::{generate_query, SchemaInfo};
use crate::oracle::{classify, compare_limited, compare_rows, ErrorClass};
use crate::reference;
use ic_common::FxHashMap;
use ic_core::{Cluster, ClusterConfig, NetworkConfig, SystemVariant};
use ic_net::{FaultPlan, SiteId, SplitMix64};
use ic_sql::ast::{Query, Statement};
use ic_sql::{bind_statement, parse_sql, unparse};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Scale factor for the bench data — small enough that a scenario runs in
/// milliseconds, large enough that joins and aggregates see real fan-out.
pub const DATA_SF: f64 = 0.002;
/// Seed of the bench data generator. Fixed: the scenario seed varies the
/// *query and schedule*, not the data (fixtures stay valid across runs).
pub const DATA_SEED: u64 = 42;

/// Which bench schema a scenario runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchSchema {
    Tpch,
    Ssb,
}

impl BenchSchema {
    pub fn as_str(&self) -> &'static str {
        match self {
            BenchSchema::Tpch => "tpch",
            BenchSchema::Ssb => "ssb",
        }
    }

    pub fn parse(s: &str) -> Result<BenchSchema, String> {
        match s {
            "tpch" => Ok(BenchSchema::Tpch),
            "ssb" => Ok(BenchSchema::Ssb),
            other => Err(format!("unknown schema '{other}' (expected tpch|ssb)")),
        }
    }
}

/// One fully-determined fuzz case.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    pub schema: BenchSchema,
    pub sites: usize,
    pub backups: usize,
    pub query: Query,
    pub faults: Option<FaultPlan>,
    /// Hold a hog lease over most of the governor pool during the faulted
    /// run, so revocation paths fire.
    pub lease_pressure: bool,
    /// Also run the multithreaded `ICPlusM` variant in the battery.
    pub run_icplusm: bool,
}

impl Scenario {
    /// Derive every input of scenario `seed` from its own rng stream.
    pub fn from_seed(seed: u64, env: &mut Env) -> Scenario {
        // Domain-separation constant so the scenario stream never
        // collides with FaultPlan::random's use of the raw seed.
        const SCENARIO_STREAM: u64 = 0x8f0c_3b2d_9e15_6a47;
        let mut rng = SplitMix64::new(seed ^ SCENARIO_STREAM);
        let schema =
            if rng.next_below(2) == 0 { BenchSchema::Tpch } else { BenchSchema::Ssb };
        let sites = 2 + rng.next_below(3) as usize;
        let query = generate_query(&mut rng, env.schema_info(schema));
        let fault_roll = rng.next_below(100);
        let fault_seed = rng.next_u64();
        let faults = if fault_roll < 30 {
            None
        } else if fault_roll < 80 {
            Some(FaultPlan::random(fault_seed, sites, 60))
        } else {
            // Hard case: one non-coordinator site dead from the first tick.
            let victim = 1 + (fault_seed as usize) % (sites - 1);
            Some(FaultPlan::new(fault_seed).crash(SiteId(victim), 1))
        };
        let lease_pressure = rng.next_below(100) < 15;
        let run_icplusm = rng.next_below(100) < 50;
        Scenario {
            seed,
            schema,
            sites,
            backups: 1,
            query,
            faults,
            lease_pressure,
            run_icplusm,
        }
    }

    /// The scenario's query rendered back to SQL.
    pub fn sql(&self) -> String {
        unparse(&self.query)
    }
}

/// Cached clusters + schema snapshots shared across scenarios. Building a
/// loaded cluster costs ~100ms; the cache bounds that to one build per
/// (schema, sites, variant) triple.
pub struct Env {
    clusters: FxHashMap<(BenchSchema, usize, SystemVariant), Arc<Cluster>>,
    schemas: FxHashMap<BenchSchema, SchemaInfo>,
}

impl Default for Env {
    fn default() -> Self {
        Self::new()
    }
}

impl Env {
    pub fn new() -> Env {
        Env { clusters: FxHashMap::default(), schemas: FxHashMap::default() }
    }

    /// The generator's snapshot of `schema` (built once per schema).
    pub fn schema_info(&mut self, schema: BenchSchema) -> &SchemaInfo {
        if !self.schemas.contains_key(&schema) {
            let cluster = self.cluster(schema, 1, SystemVariant::ICPlus);
            let info = SchemaInfo::from_catalog(cluster.catalog());
            self.schemas.insert(schema, info);
        }
        &self.schemas[&schema]
    }

    /// A loaded cluster for (schema, sites, variant); `sites == 1` is the
    /// oracle-3 baseline and carries no backups.
    pub fn cluster(
        &mut self,
        schema: BenchSchema,
        sites: usize,
        variant: SystemVariant,
    ) -> Arc<Cluster> {
        let key = (schema, sites, variant);
        if let Some(c) = self.clusters.get(&key) {
            return Arc::clone(c);
        }
        // Variants share the loaded catalog of the ICPlus cluster.
        let cluster = if variant != SystemVariant::ICPlus {
            let base = self.cluster(schema, sites, SystemVariant::ICPlus);
            Arc::new(base.with_variant(variant))
        } else {
            let config = ClusterConfig {
                sites,
                backups: if sites > 1 { 1 } else { 0 },
                variant,
                network: NetworkConfig::instant(),
                exec_timeout: Some(Duration::from_secs(60)),
                memory_limit_rows: 20_000_000,
                ..ClusterConfig::default()
            };
            let cluster = Cluster::new(config);
            let (ddl, index_ddl, data) = match schema {
                BenchSchema::Tpch => (
                    ic_benchdata::tpch::DDL,
                    ic_benchdata::tpch::INDEX_DDL,
                    ic_benchdata::tpch::generate(DATA_SF, DATA_SEED),
                ),
                BenchSchema::Ssb => (
                    ic_benchdata::ssb::DDL,
                    ic_benchdata::ssb::INDEX_DDL,
                    ic_benchdata::ssb::generate(DATA_SF, DATA_SEED),
                ),
            };
            for stmt in ddl.iter().chain(index_ddl) {
                #[expect(clippy::expect_used, reason = "the embedded bench DDL is a compile-time constant; failure is a fixture bug, not a runtime condition")]
                cluster.run(stmt).expect("bench DDL must load");
            }
            for t in data {
                #[expect(clippy::expect_used, reason = "the generated bench rows are deterministic for a fixed seed; failure is a fixture bug")]
                cluster.insert(t.name, t.rows).expect("bench data must load");
            }
            #[expect(clippy::expect_used, reason = "analyze over freshly loaded constant tables cannot fail unless the fixture itself is broken")]
            cluster.analyze_all().expect("analyze must succeed");
            Arc::new(cluster)
        };
        self.clusters.insert(key, Arc::clone(&cluster));
        cluster
    }
}

/// What one engine run produced.
enum EngineOutcome {
    Rows(Vec<ic_core::Row>),
    Error(ic_core::IcError),
    Panic(String),
}

fn outcome_of(run: impl FnOnce() -> ic_core::IcResult<Vec<ic_core::Row>>) -> EngineOutcome {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(rows)) => EngineOutcome::Rows(rows),
        Ok(Err(e)) => EngineOutcome::Error(e),
        Err(payload) => EngineOutcome::Panic(ic_common::panic_message(&*payload)),
    }
}

fn run_engine(cluster: &Cluster, client: u64, sql: &str) -> EngineOutcome {
    outcome_of(|| cluster.query_as(client, sql).map(|qr| qr.rows))
}

/// Variant fragments per eligible fragment for an IC+M uncached run: odd,
/// and not the cluster's own width, so the oracle holds two splitter
/// strides against each other.
const UNCACHED_VARIANTS: usize = 3;

/// The plan cache's oracle: `query` planned with its literals in place by
/// the public, uncached `optimize_query` under `cluster`'s flags, executed
/// with `cluster`'s own execution settings — but an IC+M cluster at
/// [`UNCACHED_VARIANTS`] variants.
fn run_uncached(cluster: &Cluster, query: &Query) -> EngineOutcome {
    outcome_of(|| {
        let bound = bind_statement(query, cluster.catalog())?;
        let flags = cluster.variant().flags();
        let plan = ic_opt::optimize_query(bound.plan, cluster.catalog(), &flags)?.plan;
        let config = cluster.config();
        let variant_fragments = match flags.variant_fragments {
            1 => 1,
            _ => UNCACHED_VARIANTS,
        };
        let opts = ic_exec::ExecOptions {
            variant_fragments,
            timeout: config.exec_timeout,
            memory_limit_rows: config.memory_limit_rows,
            pool: Some(Arc::clone(cluster.governor().pool())),
            ..ic_exec::ExecOptions::default()
        };
        let (rows, _) = ic_exec::execute_plan(&plan, cluster.catalog(), cluster.network(), &opts)?;
        Ok(rows)
    })
}

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Deterministic digest of the scenario inputs + canonical reference
    /// result; identical across replays of the same seed.
    pub digest: String,
    /// First oracle violation, if any.
    pub disagreement: Option<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.disagreement.is_none()
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Drive `scenario` through the full differential battery.
pub fn run_scenario(env: &mut Env, scenario: &Scenario) -> Outcome {
    let sql = scenario.sql();
    let fault_spec = scenario.faults.as_ref().map(FaultPlan::to_spec);
    let mut digest = format!(
        "seed={} schema={} sites={} backups={} pressure={} sql={} faults={}",
        scenario.seed,
        scenario.schema.as_str(),
        scenario.sites,
        scenario.backups,
        scenario.lease_pressure,
        sql,
        fault_spec.as_deref().unwrap_or("none"),
    );
    let fail = |digest: &str, msg: String| Outcome {
        digest: digest.to_string(),
        disagreement: Some(msg),
    };

    // --- Local bind + reference evaluation (oracle 2's trusted side).
    let nsite = env.cluster(scenario.schema, scenario.sites, SystemVariant::ICPlus);
    let bound = (|| {
        let stmt = parse_sql(&sql)?;
        let Statement::Query(q) = stmt else {
            return Err(ic_core::IcError::Internal("generator emitted non-query".into()));
        };
        bind_statement(&q, nsite.catalog())
    })();
    let bound = match bound {
        Ok(b) => b,
        Err(e) => {
            // The generator stays inside the supported dialect; a local
            // rejection is a generator/dialect gap worth surfacing.
            return fail(&digest, format!("generated SQL failed to bind: {e}\nsql: {sql}"));
        }
    };
    let reference = match reference::eval_plan(&bound.plan, nsite.catalog()) {
        Ok(rows) => Some(rows),
        Err(ic_core::IcError::MemoryLimit { .. }) => None, // budget blown: engines-only
        Err(e) => {
            return fail(&digest, format!("reference evaluation failed: {e}\nsql: {sql}"));
        }
    };
    match &reference {
        Some(rows) => {
            let mut keys: Vec<String> =
                rows.iter().map(|r| format!("{r:?}")).collect();
            keys.sort();
            digest.push_str(&format!(
                " ref_rows={} ref_hash={:016x}",
                rows.len(),
                fnv1a(&keys.join("\n"))
            ));
        }
        None => digest.push_str(" ref=unavailable"),
    }

    let limit = scenario.query.limit;
    let client = scenario.seed % 7;

    // --- Fault-free battery: 1-site baseline + N-site variants.
    let one_site = env.cluster(scenario.schema, 1, SystemVariant::ICPlus);
    let mut variants: Vec<(String, Arc<Cluster>)> = vec![
        ("1site/ICPlus".into(), one_site),
        (
            format!("{}site/IC", scenario.sites),
            env.cluster(scenario.schema, scenario.sites, SystemVariant::IC),
        ),
        (format!("{}site/ICPlus", scenario.sites), Arc::clone(&nsite)),
    ];
    if scenario.run_icplusm {
        variants.push((
            format!("{}site/ICPlusM", scenario.sites),
            env.cluster(scenario.schema, scenario.sites, SystemVariant::ICPlusM),
        ));
    }

    // The baseline every engine result is compared against: the reference
    // rows when available, else the first successful engine result.
    let mut baseline: Option<(String, Vec<ic_core::Row>)> =
        reference.as_ref().map(|r| ("reference".to_string(), r.clone()));

    // How a result is held against the baseline.
    let agrees = |(base_label, base_rows): &(String, Vec<ic_core::Row>), rows: &[ic_core::Row]| {
        if base_label == "reference" {
            compare_limited(base_rows, rows, limit)
        } else if limit.is_none() {
            compare_rows(base_rows, rows)
        } else if base_rows.len() == rows.len() {
            // Engine-vs-engine under LIMIT: counts only.
            Ok(())
        } else {
            Err(format!("row count {} vs {}", base_rows.len(), rows.len()))
        }
    };

    for (label, cluster) in &variants {
        // Through the plan cache twice — the second submission binds the
        // template the first one left (or an earlier seed's, when the shape
        // recurred) — then around it.
        let runs = [
            (label.clone(), run_engine(cluster, client, &sql)),
            (format!("{label} (resubmitted)"), run_engine(cluster, client, &sql)),
            (format!("{label} (planned uncached)"), run_uncached(cluster, &scenario.query)),
        ];
        for (label, outcome) in runs {
            match outcome {
                EngineOutcome::Rows(rows) => match &baseline {
                    Some(base) => {
                        if let Err(msg) = agrees(base, &rows) {
                            return fail(
                                &digest,
                                format!("{label} disagrees with {}: {msg}\nsql: {sql}", base.0),
                            );
                        }
                    }
                    None => baseline = Some((label, rows)),
                },
                EngineOutcome::Error(e) => match classify(&e) {
                    // No faults installed: refusing to answer is a bug.
                    ErrorClass::Retryable | ErrorClass::Rejected | ErrorClass::Bug => {
                        return fail(
                            &digest,
                            format!("{label} failed on a clean cluster: {e}\nsql: {sql}"),
                        );
                    }
                    // Budget verdicts are per-variant legitimate (IC's plans
                    // really are worse); skip the comparison.
                    ErrorClass::Resource => {}
                },
                EngineOutcome::Panic(msg) => {
                    return fail(&digest, format!("{label} panicked: {msg}\nsql: {sql}"));
                }
            }
        }
    }

    // --- Faulted run (oracle 3): N-site ICPlus under the seed's schedule
    //     and optional lease pressure. Must agree or refuse cleanly.
    if let Some(plan) = &scenario.faults {
        let cluster = Arc::clone(&nsite);
        cluster.install_faults(plan.clone());
        let hog = if scenario.lease_pressure {
            let pool = Arc::clone(cluster.governor().pool());
            let lease = pool.lease(u64::MAX);
            // Grab ~80% of the pool so concurrent grants trigger the
            // governor's revocation path.
            let _ = lease.reserve(pool.capacity() * 4 / 5);
            Some(lease)
        } else {
            None
        };
        let outcome = run_engine(&cluster, client, &sql);
        drop(hog);
        cluster.clear_faults();
        match outcome {
            EngineOutcome::Rows(rows) => {
                if let Some(base) = &baseline {
                    if let Err(msg) = agrees(base, &rows) {
                        return fail(
                            &digest,
                            format!(
                                "faulted run returned wrong rows vs {}: {msg}\n\
                                 faults: {}\nsql: {sql}",
                                base.0,
                                fault_spec.as_deref().unwrap_or("none")
                            ),
                        );
                    }
                }
            }
            // Under faults any retryable/terminal refusal is legitimate.
            EngineOutcome::Error(e) => match classify(&e) {
                ErrorClass::Retryable | ErrorClass::Resource => {}
                ErrorClass::Rejected | ErrorClass::Bug => {
                    return fail(
                        &digest,
                        format!(
                            "faulted run failed with a non-retryable error: {e}\n\
                             faults: {}\nsql: {sql}",
                            fault_spec.as_deref().unwrap_or("none")
                        ),
                    );
                }
            },
            EngineOutcome::Panic(msg) => {
                return fail(
                    &digest,
                    format!(
                        "faulted run panicked: {msg}\nfaults: {}\nsql: {sql}",
                        fault_spec.as_deref().unwrap_or("none")
                    ),
                );
            }
        }
    }

    Outcome { digest, disagreement: None }
}
