//! Simulated cluster substrate.
//!
//! The paper runs Ignite+Calcite on 4 or 8 physical machines joined by
//! 10 GbE. This crate replaces that testbed with logical [`SiteId`] *sites*
//! inside one process: fragments execute on real threads, and any data that
//! crosses a site boundary flows through a [`Network`] that keeps traffic
//! statistics and models each site's NIC: a message occupies its source
//! site's egress for bytes ÷ bandwidth, queued behind that site's earlier
//! messages, and lands one per-message latency later ([`Reservation`]).
//! Senders do not wait for the wire; whoever receives a message does, until
//! it is due. Same-site transfers are free, so plans that avoid shipping
//! large relations (the paper's §5.1.1 fully-distributed joins) are rewarded
//! exactly as on real hardware.
//!
//! Every message takes one of two calls, both charged by the one wire and
//! fault model: an exchange message goes through [`NetSender::send`] (and
//! is received with [`NetReceiver::recv_timeout`]), a write's or a
//! rebalance's copy through [`Network::replicate`].
//!
//! The network also hosts the deterministic fault layer: install a seeded
//! [`FaultPlan`] with [`Network::install_faults`] and every cross-site
//! message consults the replayable [`FaultInjector`], which drops messages,
//! crashes sites (updating the shared [`Liveness`] view) and inflates
//! latency exactly as scheduled.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod channel;
pub mod fault;
pub mod membership;
pub mod topology;
pub mod wire;

pub use channel::{net_channel, NetError, NetObs, NetReceiver, NetSender};
pub use fault::{
    FaultDecision, FaultEvent, FaultInjector, FaultKind, FaultPlan, Liveness, SiteState,
    SplitMix64, TICK_FOREVER,
};
pub use membership::{Membership, ReplicaMap};
pub use topology::{Assignment, FailoverError, SiteId};
pub use wire::WireSize;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Network model parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Fixed cost per cross-site message (default 50 µs — LAN round-trip
    /// scale, matching a 10 GbE cluster's per-message overhead).
    pub latency: Duration,
    /// Payload bandwidth of each site's NIC in bytes/second (default
    /// 1 GB/s ≈ 10 GbE goodput).
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

    /// What one message of `bytes` costs on the wire, in ns, each term ×
    /// the fault layer's `delay_factor`: how long it occupies its site's
    /// NIC (bytes ÷ bandwidth), and the latency after it leaves.
    pub fn wire_terms(&self, bytes: usize, delay_factor: u32) -> (u64, u64) {
        let occupancy = bytes as u128 * 1_000_000_000 / self.bandwidth_bytes_per_sec.max(1) as u128;
        let factor = u128::from(delay_factor);
        let ns = |t: u128| u64::try_from(t * factor).unwrap_or(u64::MAX);
        (ns(occupancy), ns(self.latency.as_nanos()))
    }
}

/// One message's place on its source site's NIC, in ns since the network's
/// epoch: handed over at `sent_at`, on the NIC from `start` (once the site's
/// earlier messages have left) to `end` (the site's new `busy_until`), and
/// due at its receiver at `deliver_at`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reservation {
    pub sent_at: u64,
    pub start: u64,
    pub end: u64,
    pub deliver_at: u64,
}

impl Reservation {
    /// The whole wire model: a message sent at `now` to a NIC that is busy
    /// until `busy_until` occupies it for `occupancy` ns from whichever is
    /// later, then arrives `latency` ns after it leaves.
    pub fn new(now: u64, busy_until: u64, occupancy: u64, latency: u64) -> Reservation {
        let start = now.max(busy_until);
        let end = start.saturating_add(occupancy);
        Reservation { sent_at: now, start, end, deliver_at: end.saturating_add(latency) }
    }

    /// Time spent queued behind the site's earlier messages.
    pub fn queue_ns(&self) -> u64 {
        self.start - self.sent_at
    }

    /// Send to delivery: queue + occupancy + latency.
    pub fn wire_ns(&self) -> u64 {
        self.deliver_at - self.sent_at
    }
}

/// Every site's egress clock, `busy_until`: when its NIC is free again, in
/// ns since the network's epoch. One port per machine serializes what that
/// machine sends; distinct machines send in parallel. Sites join at
/// runtime, so the table grows on demand.
#[derive(Debug, Default)]
pub struct Nics(Vec<u64>);

impl Nics {
    /// Reserve `src`'s NIC for a message sent at `now` ([`Reservation::new`])
    /// and advance its clock past it.
    pub fn reserve(&mut self, src: SiteId, now: u64, occupancy: u64, latency: u64) -> Reservation {
        if self.0.len() <= src.0 {
            self.0.resize(src.0 + 1, 0);
        }
        let busy_until = &mut self.0[src.0];
        let r = Reservation::new(now, *busy_until, occupancy, latency);
        *busy_until = r.end;
        r
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

/// The shared simulated network: config + stats + the sites' NIC clocks +
/// the deterministic fault layer (an optional [`FaultInjector`] plus the
/// cluster [`Liveness`] view).
pub struct Network {
    pub config: NetworkConfig,
    pub stats: NetStats,
    /// Time zero of every [`Reservation`].
    epoch: Instant,
    nics: Mutex<Nics>,
    faults: Mutex<Option<Arc<FaultInjector>>>,
    liveness: Liveness,
    /// Process-wide metric handles (`net.transfer.*`), resolved once at
    /// construction so the transfer path never touches the registry lock.
    m_messages: Arc<ic_common::obs::Counter>,
    m_bytes: Arc<ic_common::obs::Counter>,
    m_faults: Arc<ic_common::obs::Counter>,
    /// The wire charge in the terms of [`NetworkConfig::wire_terms`] (each ×
    /// the fault layer's delay factor) — what a message costs for existing,
    /// and what for its size — plus the time it queued behind its site's
    /// earlier messages.
    m_latency_ns: Arc<ic_common::obs::Counter>,
    m_bandwidth_ns: Arc<ic_common::obs::Counter>,
    m_queue_ns: Arc<ic_common::obs::Counter>,
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
            #[expect(clippy::disallowed_methods, reason = "the wire model's clock is anchored here, once; every reservation is an offset from it")]
            epoch: Instant::now(),
            nics: Mutex::named(Nics::default(), "network.nics"),
            faults: Mutex::named(None, "network.faults"),
            liveness: Liveness::default(),
            m_messages: reg.counter("net.transfer.messages"),
            m_bytes: reg.counter("net.transfer.bytes"),
            m_faults: reg.counter("net.transfer.faults"),
            m_latency_ns: reg.counter("net.transfer.latency_ns"),
            m_bandwidth_ns: reg.counter("net.transfer.bandwidth_ns"),
            m_queue_ns: reg.counter("net.transfer.queue_ns"),
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

    /// Nanoseconds since the network's epoch: the clock of every
    /// [`Reservation`].
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Block the calling thread until [`Network::now_ns`] reads `at`: the
    /// one place simulated wire time is spent on a real thread — a
    /// receiver's wait for a message to land, or a replication's for its
    /// own.
    pub(crate) fn sleep_until(&self, at: u64) {
        let now = self.now_ns();
        if at > now {
            #[expect(clippy::disallowed_methods, reason = "waiting out a modelled delivery time is the one sanctioned wall-clock boundary")]
            std::thread::sleep(Duration::from_nanos(at - now));
        }
    }

    /// Ship a replication message (a write's effect ops, or one rebalance
    /// chunk) from `src` to `dst` and wait for it to land: replication is
    /// synchronous. Same fault and wire model as an exchange message sent
    /// through [`NetSender::send`] — link drops and site crashes hit real
    /// writes, and the message takes its turn on `src`'s NIC — but accounted
    /// to the `net.replicate.*` traffic class so the replication overhead is
    /// separable from query exchange.
    pub fn replicate(&self, src: SiteId, dst: SiteId, bytes: usize) -> Result<(), NetError> {
        self.charge(Traffic::Replicate, src, dst, bytes, None)
            .map(|r| self.sleep_until(r.deliver_at))
    }

    /// The one charge path: a same-site message is free and due at once; a
    /// cross-site one takes the fault layer's decision (one tick), is
    /// counted — into `class`'s process-wide counters, [`Network::stats`]
    /// and `tally` — and reserves its turn on `src`'s NIC. Nobody waits
    /// here: the returned [`Reservation`] says when the message is due.
    fn charge(
        &self,
        class: Traffic,
        src: SiteId,
        dst: SiteId,
        bytes: usize,
        tally: Option<&NetStats>,
    ) -> Result<Reservation, NetError> {
        if src == dst {
            self.stats.local_messages.fetch_add(1, Ordering::Relaxed);
            return Ok(Reservation::default());
        }
        let (m_messages, m_bytes, m_faults) = match class {
            Traffic::Exchange => (&self.m_messages, &self.m_bytes, &self.m_faults),
            Traffic::Replicate => (&self.m_repl_messages, &self.m_repl_bytes, &self.m_repl_failures),
        };
        // Clone the injector out so the faults lock is never held across
        // the NIC lock.
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
        let (occupancy, latency) = self.config.wire_terms(bytes, delay_factor);
        // An instant network reserves nothing: the message is due at once.
        let r = match (occupancy, latency) {
            (0, 0) => Reservation::default(),
            _ => self.nics.lock().reserve(src, self.now_ns(), occupancy, latency),
        };
        if let Traffic::Exchange = class {
            self.m_latency_ns.add(latency);
            self.m_bandwidth_ns.add(occupancy);
            self.m_queue_ns.add(r.queue_ns());
        }
        Ok(r)
    }
}

/// Which process-wide counters a charged message is accounted to.
#[derive(Clone, Copy)]
enum Traffic {
    /// Query exchange: `net.transfer.*`, with the wire charge split into
    /// its latency, bandwidth and queueing terms.
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
#[expect(clippy::disallowed_methods, reason = "the wall-clock lower bounds check that a modelled delivery really waits")]
mod tests {
    use super::*;

    #[test]
    fn delay_model() {
        let cfg = NetworkConfig { latency: Duration::from_micros(100), bandwidth_bytes_per_sec: 1_000_000 };
        // 1 MB at 1 MB/s = 1 s on the NIC, then the latency.
        assert_eq!(cfg.wire_terms(1_000_000, 1), (1_000_000_000, 100_000));
        assert_eq!(NetworkConfig::instant().wire_terms(1_000_000, 1), (0, 0));
    }

    #[test]
    fn stats_accumulate() {
        let net = Network::new(NetworkConfig::instant());
        assert!(net.replicate(SiteId(0), SiteId(1), 100).is_ok());
        assert!(net.replicate(SiteId(0), SiteId(0), 100).is_ok());
        let (msgs, bytes, local) = net.stats.snapshot();
        assert_eq!((msgs, bytes, local), (1, 100, 1));
    }

    #[test]
    fn fault_plan_fails_link_and_clears() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).drop_link(SiteId(0), SiteId(2), 1.0, 0, TICK_FOREVER));
        assert!(net.replicate(SiteId(0), SiteId(1), 10).is_ok());
        assert_eq!(net.replicate(SiteId(0), SiteId(2), 10), Err(NetError::LinkFault));
        net.clear_faults();
        assert!(net.replicate(SiteId(0), SiteId(2), 10).is_ok());
    }

    #[test]
    fn site_crash_updates_liveness() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).crash(SiteId(1), 0));
        assert_eq!(net.replicate(SiteId(0), SiteId(1), 10), Err(NetError::SiteDead(SiteId(1))));
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
        assert!(net.replicate(SiteId(0), SiteId(1), 10).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
