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
//! message consults the replayable [`FaultInjector`], which drops messages
//! and inflates latency exactly as scheduled. One rule says which sites are
//! down: a site is down at a tick when an operator killed it
//! ([`Network::kill_site`]) or a crash window of the installed plan covers
//! that tick. Every cross-site message touching a down site fails with
//! [`NetError::SiteDead`], and every reader of site health —
//! [`Network::down_sites`] — asks the same rule.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod channel;
pub mod fault;
pub mod membership;
pub mod topology;
pub mod wire;

pub use channel::{net_channel, NetError, NetObs, NetReceiver, NetSender};
pub use fault::{
    FaultDecision, FaultEvent, FaultInjector, FaultKind, FaultPlan, SplitMix64, TICK_FOREVER,
};
pub use membership::{affinity, Membership, ReplicaMap};
pub use topology::{split_by_partition, Assignment, FailoverError, SiteId};
pub use wire::WireSize;

use ic_common::hash::FxHashSet;
use ic_common::sync::Mutex;
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

/// What can take a site down: the installed fault plan's crash windows and
/// the operator's kills.
#[derive(Debug, Default)]
struct Faults {
    injector: Option<Arc<FaultInjector>>,
    killed: FxHashSet<SiteId>,
}

impl Faults {
    /// The message clock: the installed plan's next tick, 0 without a plan.
    fn tick(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.now())
    }

    /// The failure rule: `site` is down at `tick` iff an operator killed it
    /// (and has not revived it) or a crash window of the installed plan
    /// covers `tick`.
    fn is_down(&self, site: SiteId, tick: u64) -> bool {
        self.killed.contains(&site)
            || self.injector.as_ref().is_some_and(|i| i.plan().crashed(site, tick))
    }

    /// One cross-site message: its tick's link-fault decision, failed with
    /// [`NetError::SiteDead`] first when either end is down at that tick.
    /// Returns the delay factor of a delivered message.
    fn admit(&self, src: SiteId, dst: SiteId) -> Result<u32, NetError> {
        let (tick, decision) = match &self.injector {
            Some(injector) => injector.decide(src, dst),
            None => (0, FaultDecision::Deliver { delay_factor: 1 }),
        };
        if let Some(site) = [src, dst].into_iter().find(|&s| self.is_down(s, tick)) {
            return Err(NetError::SiteDead(site));
        }
        match decision {
            FaultDecision::Deliver { delay_factor } => Ok(delay_factor),
            FaultDecision::Drop => Err(NetError::LinkFault),
        }
    }
}

/// What charging a message reads and writes, under the network's one lock:
/// the fault layer and the NIC clocks.
#[derive(Debug, Default)]
struct Wire {
    faults: Faults,
    nics: Nics,
}

/// The shared simulated network: config + stats + the sites' NIC clocks +
/// the deterministic fault layer (an optional [`FaultInjector`] plus the
/// operator's kill set).
pub struct Network {
    pub config: NetworkConfig,
    pub stats: NetStats,
    /// Time zero of every [`Reservation`].
    epoch: Instant,
    wire: Mutex<Wire>,
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
            wire: Mutex::default(),
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
        self.wire.lock().faults.injector = Some(injector.clone());
        injector
    }

    /// Remove the fault schedule and lift every kill.
    pub fn clear_faults(&self) {
        self.wire.lock().faults = Faults::default();
    }

    /// The currently installed injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.wire.lock().faults.injector.clone()
    }

    /// Take `site` down until [`Network::revive_site`], plan or no plan.
    pub fn kill_site(&self, site: SiteId) {
        self.wire.lock().faults.killed.insert(site);
    }

    /// Lift a kill. A crash window of the installed plan still counts.
    pub fn revive_site(&self, site: SiteId) {
        self.wire.lock().faults.killed.remove(&site);
    }

    /// The sites down at the current tick: the kill set plus every site a
    /// crash window of the installed plan covers.
    pub fn down_sites(&self) -> FxHashSet<SiteId> {
        let faults = &self.wire.lock().faults;
        let tick = faults.tick();
        let planned = faults.injector.iter().flat_map(|i| i.plan().crash_sites());
        faults.killed.iter().copied().chain(planned).filter(|&s| faults.is_down(s, tick)).collect()
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
    /// cross-site one takes, under one lock, the fault layer's decision (one
    /// tick), failing if either end is down at that tick, and its turn on
    /// `src`'s NIC; a delivered one is counted into `class`'s process-wide
    /// counters, [`Network::stats`] and `tally`. Nobody waits here: the
    /// returned [`Reservation`] says when the message is due.
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
        let (r, occupancy, latency) = {
            let mut wire = self.wire.lock();
            let delay_factor = wire.faults.admit(src, dst).inspect_err(|_| m_faults.inc())?;
            let (occupancy, latency) = self.config.wire_terms(bytes, delay_factor);
            // An instant network reserves nothing: the message is due at once.
            let r = match (occupancy, latency) {
                (0, 0) => Reservation::default(),
                _ => wire.nics.reserve(src, self.now_ns(), occupancy, latency),
            };
            (r, occupancy, latency)
        };
        for stats in [Some(&self.stats), tally].into_iter().flatten() {
            stats.messages.fetch_add(1, Ordering::Relaxed);
            stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        m_messages.inc();
        m_bytes.add(bytes as u64);
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
            .field("wire", &*self.wire.lock())
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
        assert!(net.down_sites().contains(&SiteId(1)));
        net.clear_faults();
        assert!(net.down_sites().is_empty());
        assert!(net.replicate(SiteId(0), SiteId(1), 10).is_ok());
    }

    #[test]
    fn scheduled_crash_is_down_before_any_traffic() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).crash(SiteId(3), 0));
        assert_eq!(net.down_sites().into_iter().collect::<Vec<_>>(), vec![SiteId(3)]);
    }

    #[test]
    fn killed_site_fails_without_a_plan() {
        struct Blob;
        impl WireSize for Blob {
            fn wire_size(&self) -> usize {
                10
            }
        }
        let net = Network::new(NetworkConfig::instant());
        net.kill_site(SiteId(1));
        assert_eq!(net.replicate(SiteId(0), SiteId(1), 10), Err(NetError::SiteDead(SiteId(1))));
        assert_eq!(net.replicate(SiteId(1), SiteId(0), 10), Err(NetError::SiteDead(SiteId(1))));
        let (tx, _rx) = net_channel::<Blob>(net.clone(), SiteId(1), SiteId(2), 1);
        assert_eq!(tx.send(Blob), Err(NetError::SiteDead(SiteId(1))));
        assert_eq!(net.down_sites().into_iter().collect::<Vec<_>>(), vec![SiteId(1)]);
        net.revive_site(SiteId(1));
        assert!(net.down_sites().is_empty());
        assert_eq!(tx.send(Blob), Ok(10));
        // `clear_faults` lifts every kill too.
        net.kill_site(SiteId(2));
        net.clear_faults();
        assert!(net.replicate(SiteId(0), SiteId(2), 10).is_ok());
    }

    #[test]
    fn transient_window_opens_and_closes_at_its_ticks() {
        let net = Network::new(NetworkConfig::instant());
        let injector = net.install_faults(FaultPlan::new(1).transient_crash(SiteId(1), 3, 6));
        for tick in 0..8 {
            assert_eq!(injector.now(), tick);
            assert_eq!(net.down_sites().contains(&SiteId(1)), (3..6).contains(&tick), "tick {tick}");
            // Traffic that never touches site 1 advances the clock.
            assert!(net.replicate(SiteId(0), SiteId(2), 10).is_ok());
        }
    }

    #[test]
    fn revive_lifts_a_kill_but_not_a_window() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(1).crash(SiteId(2), 0));
        net.kill_site(SiteId(2));
        net.revive_site(SiteId(2));
        assert!(net.down_sites().contains(&SiteId(2)));
        assert_eq!(net.replicate(SiteId(0), SiteId(2), 10), Err(NetError::SiteDead(SiteId(2))));
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
