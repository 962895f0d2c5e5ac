//! Simulated cluster substrate.
//!
//! The paper runs Ignite+Calcite on 4 or 8 physical machines joined by
//! 10 GbE. This crate replaces that testbed with logical [`SiteId`] *sites*
//! inside one process: fragments execute on real threads, and any data that
//! crosses a site boundary flows through a [`Network`] that charges a
//! per-message latency plus a per-byte bandwidth delay and keeps traffic
//! statistics. Same-site transfers are free, so plans that avoid shipping
//! large relations (the paper's §5.1.1 fully-distributed joins) are rewarded
//! exactly as on real hardware.
//!
//! The network also hosts the deterministic fault layer: install a seeded
//! [`FaultPlan`] with [`Network::install_faults`] and every cross-site
//! transfer consults the replayable [`FaultInjector`], which drops messages,
//! crashes sites (updating the shared [`Liveness`] view) and inflates
//! latency exactly as scheduled.

pub mod channel;
pub mod fault;
pub mod membership;
pub mod topology;
pub mod wire;

pub use channel::{net_channel, NetError, NetObs, NetReceiver, NetSender};
pub use fault::{
    FaultDecision, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRecord, Liveness,
    SiteState, SplitMix64, TICK_FOREVER,
};
pub use membership::{Membership, ReplicaMap};
pub use topology::{Assignment, FailoverError, SiteId, Topology};
pub use wire::WireSize;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Predicate polled during long bandwidth sleeps; returning `true` aborts
/// the in-flight transfer (deadline passed / query cancelled).
pub type AbortFn = dyn Fn() -> bool + Send + Sync;

/// Network model parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Fixed cost per cross-site message (default 50 µs — LAN round-trip
    /// scale, matching a 10 GbE cluster's per-message overhead).
    pub latency: Duration,
    /// Payload bandwidth in bytes/second (default 1 GB/s ≈ 10 GbE goodput).
    pub bandwidth_bytes_per_sec: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: Duration::from_micros(50),
            bandwidth_bytes_per_sec: 1_000_000_000,
        }
    }
}

impl NetworkConfig {
    /// A zero-delay network, useful in unit tests.
    pub fn instant() -> NetworkConfig {
        NetworkConfig { latency: Duration::ZERO, bandwidth_bytes_per_sec: u64::MAX }
    }

    /// Delay charged for shipping `bytes` in one message.
    pub fn transfer_delay(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec == u64::MAX {
            return self.latency;
        }
        let secs = bytes as f64 / self.bandwidth_bytes_per_sec as f64;
        self.latency + Duration::from_secs_f64(secs)
    }
}

/// Cumulative cross-site traffic counters: one per cluster ([`Network::stats`])
/// and one per execution, shared by all of that execution's channels
/// ([`NetSender::with_tally`]).
#[derive(Debug, Default)]
pub struct NetStats {
    pub messages: AtomicU64,
    pub bytes: AtomicU64,
    pub local_messages: AtomicU64,
}

impl NetStats {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.messages.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.local_messages.load(Ordering::Relaxed),
        )
    }
}

/// The shared simulated network: config + stats + the deterministic fault
/// layer (an optional [`FaultInjector`] plus the cluster [`Liveness`] view).
pub struct Network {
    pub config: NetworkConfig,
    pub stats: NetStats,
    faults: Mutex<Option<Arc<FaultInjector>>>,
    liveness: Liveness,
    /// Process-wide metric handles (`net.transfer.*`), resolved once at
    /// construction so the transfer path never touches the registry lock.
    m_messages: Arc<ic_common::obs::Counter>,
    m_bytes: Arc<ic_common::obs::Counter>,
    m_faults: Arc<ic_common::obs::Counter>,
    /// The wire charge split into the two terms of
    /// [`NetworkConfig::transfer_delay`] (each × the fault layer's delay
    /// factor): what a message costs for existing, and what for its size.
    m_latency_ns: Arc<ic_common::obs::Counter>,
    m_bandwidth_ns: Arc<ic_common::obs::Counter>,
    /// Replication traffic class (`net.replicate.*`): primary→backup write
    /// effects and rebalance chunk copies, kept separate from query
    /// exchange traffic so experiments can attribute overhead.
    m_repl_messages: Arc<ic_common::obs::Counter>,
    m_repl_bytes: Arc<ic_common::obs::Counter>,
    m_repl_failures: Arc<ic_common::obs::Counter>,
}

impl Network {
    pub fn new(config: NetworkConfig) -> Arc<Network> {
        let reg = ic_common::obs::MetricsRegistry::global();
        Arc::new(Network {
            config,
            stats: NetStats::default(),
            faults: Mutex::named(None, "network.faults"),
            liveness: Liveness::default(),
            m_messages: reg.counter("net.transfer.messages"),
            m_bytes: reg.counter("net.transfer.bytes"),
            m_faults: reg.counter("net.transfer.faults"),
            m_latency_ns: reg.counter("net.transfer.latency_ns"),
            m_bandwidth_ns: reg.counter("net.transfer.bandwidth_ns"),
            m_repl_messages: reg.counter("net.replicate.messages"),
            m_repl_bytes: reg.counter("net.replicate.bytes"),
            m_repl_failures: reg.counter("net.replicate.failures"),
        })
    }

    /// Install a seeded fault schedule; replaces any previous one. The
    /// injector's logical clock starts at zero, so the same plan replays
    /// the same fault sequence.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = FaultInjector::new(plan);
        injector.refresh(&self.liveness);
        *self.faults.lock() = Some(injector.clone());
        injector
    }

    /// Remove the fault schedule and return every site to `Alive`.
    pub fn clear_faults(&self) {
        *self.faults.lock() = None;
        self.liveness.reset();
    }

    /// The currently installed injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.faults.lock().clone()
    }

    /// Cluster-wide site-health view.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// Re-evaluate scheduled crash windows at the current logical time so
    /// recovered sites rejoin and newly-due crashes take effect. No-op
    /// without an installed fault plan.
    pub fn refresh_liveness(&self) {
        if let Some(injector) = self.fault_injector() {
            injector.refresh(&self.liveness);
        }
    }

    /// Record (and simulate) a transfer of `bytes` from `src` to `dst`.
    pub fn transfer(&self, src: SiteId, dst: SiteId, bytes: usize) -> Result<(), NetError> {
        self.transfer_cancellable(src, dst, bytes, None, None)
    }

    /// [`Network::transfer`], but the bandwidth sleep is chunked and polls
    /// `abort` between chunks so an in-flight transfer stops as soon as the
    /// query's deadline/cancellation fires rather than overshooting it.
    /// A message counted into [`Network::stats`] is counted into `tally` as
    /// well — how one execution's senders keep that execution's own traffic
    /// apart from the cluster totals.
    pub fn transfer_cancellable(
        &self,
        src: SiteId,
        dst: SiteId,
        bytes: usize,
        abort: Option<&AbortFn>,
        tally: Option<&NetStats>,
    ) -> Result<(), NetError> {
        self.charge(Traffic::Exchange, src, dst, bytes, abort, tally)
    }

    /// Ship a replication message (a write's effect ops, or one rebalance
    /// chunk) from `src` to `dst`. Same fault/delay model as
    /// [`transfer`](Self::transfer) — link drops and site crashes hit real
    /// writes — but accounted to the `net.replicate.*` traffic class so the
    /// synchronous-replication overhead is separable from query exchange.
    pub fn replicate(&self, src: SiteId, dst: SiteId, bytes: usize) -> Result<(), NetError> {
        self.charge(Traffic::Replicate, src, dst, bytes, None, None)
    }

    /// The one charge path: a same-site message is free, a cross-site one
    /// takes the fault layer's decision (one tick), is counted — into
    /// `class`'s process-wide counters, [`Network::stats`] and `tally` — and
    /// then costs its sender the simulated wire time.
    fn charge(
        &self,
        class: Traffic,
        src: SiteId,
        dst: SiteId,
        bytes: usize,
        abort: Option<&AbortFn>,
        tally: Option<&NetStats>,
    ) -> Result<(), NetError> {
        if src == dst {
            self.stats.local_messages.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let (m_messages, m_bytes, m_faults) = match class {
            Traffic::Exchange => (&self.m_messages, &self.m_bytes, &self.m_faults),
            Traffic::Replicate => (&self.m_repl_messages, &self.m_repl_bytes, &self.m_repl_failures),
        };
        // Clone the injector out so the faults lock is never held across a
        // sleep.
        let mut delay_factor: u32 = 1;
        if let Some(injector) = self.fault_injector() {
            match injector.decide(src, dst, &self.liveness) {
                FaultDecision::Deliver { delay_factor: f } => delay_factor = f,
                FaultDecision::Drop => {
                    m_faults.inc();
                    return Err(NetError::LinkFault);
                }
                FaultDecision::SiteDown(site) => {
                    m_faults.inc();
                    return Err(NetError::SiteDead(site));
                }
            }
        }
        for stats in [Some(&self.stats), tally].into_iter().flatten() {
            stats.messages.fetch_add(1, Ordering::Relaxed);
            stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        m_messages.inc();
        m_bytes.add(bytes as u64);
        let delay = self.config.transfer_delay(bytes) * delay_factor;
        if let Traffic::Exchange = class {
            let latency = self.config.latency * delay_factor;
            self.m_latency_ns.add(latency.as_nanos() as u64);
            self.m_bandwidth_ns.add(delay.saturating_sub(latency).as_nanos() as u64);
        }
        if delay.is_zero() {
            return Ok(());
        }
        match abort {
            // ic-lint: allow(L004) because the delay simulator is the one sanctioned wall-clock boundary
            None => std::thread::sleep(delay),
            Some(abort) => {
                const CHUNK: Duration = Duration::from_millis(1);
                let mut remaining = delay;
                while !remaining.is_zero() {
                    if abort() {
                        return Err(NetError::Aborted);
                    }
                    let step = remaining.min(CHUNK);
                    // ic-lint: allow(L004) because chunked sleeping models link bandwidth while staying abortable
                    std::thread::sleep(step);
                    remaining = remaining.saturating_sub(step);
                }
            }
        }
        Ok(())
    }
}

/// Which process-wide counters a charged message is accounted to.
#[derive(Clone, Copy)]
enum Traffic {
    /// Query exchange: `net.transfer.*`, with the wire charge split into
    /// its latency and bandwidth terms.
    Exchange,
    /// Write replication and rebalance copies: `net.replicate.*`.
    Replicate,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("liveness", &self.liveness)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn delay_model() {
        let cfg = NetworkConfig { latency: Duration::from_micros(100), bandwidth_bytes_per_sec: 1_000_000 };
        // 1 MB at 1 MB/s = 1 s + latency.
        let d = cfg.transfer_delay(1_000_000);
        assert!(d >= Duration::from_secs(1));
        assert!(d < Duration::from_secs(2));
        assert_eq!(NetworkConfig::instant().transfer_delay(1_000_000), Duration::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let net = Network::new(NetworkConfig::instant());
        assert!(net.transfer(SiteId(0), SiteId(1), 100).is_ok());
        assert!(net.transfer(SiteId(0), SiteId(0), 100).is_ok());
        let (msgs, bytes, local) = net.stats.snapshot();
        assert_eq!((msgs, bytes, local), (1, 100, 1));
    }

    #[test]
    fn fault_plan_fails_link_and_clears() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).drop_link(SiteId(0), SiteId(2), 1.0, 0, TICK_FOREVER));
        assert!(net.transfer(SiteId(0), SiteId(1), 10).is_ok());
        assert_eq!(net.transfer(SiteId(0), SiteId(2), 10), Err(NetError::LinkFault));
        net.clear_faults();
        assert!(net.transfer(SiteId(0), SiteId(2), 10).is_ok());
    }

    #[test]
    fn site_crash_updates_liveness() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).crash(SiteId(1), 0));
        assert_eq!(net.transfer(SiteId(0), SiteId(1), 10), Err(NetError::SiteDead(SiteId(1))));
        assert_eq!(net.liveness().state(SiteId(1)), SiteState::Dead);
        assert!(net.liveness().down_sites().contains(&SiteId(1)));
        net.clear_faults();
        assert!(net.liveness().is_alive(SiteId(1)));
    }

    #[test]
    fn scheduled_crash_applies_on_refresh_without_traffic() {
        let net = Network::new(NetworkConfig::instant());
        // Crash active from tick 0: install_faults' immediate refresh
        // marks the site dead before any message flows.
        net.install_faults(FaultPlan::new(1).crash(SiteId(3), 0));
        assert_eq!(net.liveness().state(SiteId(3)), SiteState::Dead);
    }

    #[test]
    fn cancellable_sleep_aborts() {
        let cfg = NetworkConfig { latency: Duration::ZERO, bandwidth_bytes_per_sec: 1_000 };
        let net = Network::new(cfg);
        // 10 KB at 1 KB/s = 10 s uncancelled; the abort hook fires at once.
        let fired = AtomicBool::new(true);
        let abort = move || fired.load(Ordering::Relaxed);
        let start = std::time::Instant::now();
        let r = net.transfer_cancellable(SiteId(0), SiteId(1), 10_000, Some(&abort), None);
        assert_eq!(r, Err(NetError::Aborted));
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn replicate_is_fault_injected() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).crash(SiteId(2), 0));
        assert!(net.replicate(SiteId(0), SiteId(1), 64).is_ok());
        assert_eq!(net.replicate(SiteId(0), SiteId(2), 64), Err(NetError::SiteDead(SiteId(2))));
        // Same-site replication (replicated-table local copy) is free.
        assert!(net.replicate(SiteId(1), SiteId(1), 64).is_ok());
    }

    #[test]
    fn latency_spike_multiplies_delay() {
        let cfg = NetworkConfig { latency: Duration::from_millis(5), bandwidth_bytes_per_sec: u64::MAX };
        let net = Network::new(cfg);
        net.install_faults(FaultPlan::new(1).latency_spike(4, 0, TICK_FOREVER));
        let start = std::time::Instant::now();
        assert!(net.transfer(SiteId(0), SiteId(1), 10).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
