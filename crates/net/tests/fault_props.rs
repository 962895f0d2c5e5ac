//! Property tests for the deterministic fault layer: any seeded
//! [`FaultPlan`] must replay identically (same seed → same drop/crash
//! sequence), and failover assignments must stay total whenever the
//! backup count covers the dead-site count.

use ic_net::{FaultInjector, FaultPlan, Membership, NetworkConfig, Network, SiteId, TICK_FOREVER};
use proptest::prelude::*;
use ic_common::hash::FxHashSet;

/// Drive a network with `plan` installed through a fixed serial probe
/// sequence, returning per message the injector's decision (its tick, drop
/// and delay factor) and the network's down set after it.
fn replay(plan: FaultPlan, probes: &[(usize, usize)]) -> Vec<(String, Vec<SiteId>)> {
    let net = Network::new(NetworkConfig::instant());
    let injector = net.install_faults(plan);
    probes
        .iter()
        .map(|&(s, d)| {
            let outcome = format!("{:?}", injector.decide(SiteId(s), SiteId(d)));
            let mut down: Vec<SiteId> = net.down_sites().into_iter().collect();
            down.sort();
            (outcome, down)
        })
        .collect()
}

proptest! {
    /// `FaultPlan::random` is a pure function of its inputs.
    #[test]
    fn random_plans_replay_identically(seed in any::<u64>(), sites in 1usize..9, horizon in 1u64..10_000) {
        let a = FaultPlan::random(seed, sites, horizon);
        let b = FaultPlan::random(seed, sites, horizon);
        prop_assert_eq!(&a, &b, "plans diverged for seed {} (sites={}, horizon={})", seed, sites, horizon);
        prop_assert_eq!(a.timeline(), b.timeline(), "timelines diverged for seed {}", seed);
    }

    /// Replaying any seeded plan over the same message sequence yields the
    /// identical outcome and down set after every message — the property
    /// that makes chaos runs reproducible.
    #[test]
    fn decisions_replay_identically(
        seed in any::<u64>(),
        sites in 2usize..7,
        horizon in 10u64..500,
        probes in prop::collection::vec((0usize..7, 0usize..7), 1..200),
    ) {
        let probes: Vec<(usize, usize)> =
            probes.into_iter().map(|(s, d)| (s % sites, d % sites)).collect();
        let plan = FaultPlan::random(seed, sites, horizon);
        prop_assert_eq!(
            replay(plan.clone(), &probes),
            replay(plan, &probes),
            "decisions or down sets diverged for seed {}",
            seed
        );
    }

    /// Per-link drop decisions depend only on the per-link message number,
    /// so interleaving traffic on *other* links never changes a link's
    /// drop pattern.
    #[test]
    fn link_decisions_independent_of_other_links(
        seed in any::<u64>(),
        prob in 0.0f64..1.0,
        noise in prop::collection::vec(0usize..2, 0..50),
    ) {
        let plan = FaultPlan::new(seed).drop_link(SiteId(0), SiteId(1), prob, 0, TICK_FOREVER);
        // Run 1: only the faulted link.
        let inj = FaultInjector::new(plan.clone());
        let bare: Vec<String> =
            (0..20).map(|_| format!("{:?}", inj.decide(SiteId(0), SiteId(1)).1)).collect();
        // Run 2: same link traffic interleaved with unrelated messages.
        let inj = FaultInjector::new(plan);
        let mut mixed = Vec::new();
        for i in 0..20 {
            for &n in noise.iter().skip(i % 3) {
                // Unrelated links (2 -> 3 or 3 -> 2).
                inj.decide(SiteId(2 + n), SiteId(3 - n));
            }
            mixed.push(format!("{:?}", inj.decide(SiteId(0), SiteId(1)).1));
        }
        // Delay factors are identical (no latency events), so the
        // sequences must match exactly.
        prop_assert_eq!(bare, mixed, "per-link drop pattern diverged for seed {}", seed);
    }

    /// Whenever at most `backups` sites die, the failover assignment
    /// exists, uses only live sites, and covers every partition.
    #[test]
    fn assignment_total_when_backups_cover_deaths(
        sites in 2usize..9,
        backups in 1usize..4,
        dead_raw in prop::collection::hash_set(0usize..9, 0..4),
    ) {
        let backups = backups.min(sites - 1);
        let map = Membership::new(sites, backups).snapshot();
        let dead: FxHashSet<SiteId> = dead_raw
            .into_iter()
            .map(|s| SiteId(s % sites))
            .take(backups)
            .collect();
        let assignment = map.assignment(&dead).unwrap();
        for site in assignment.live_sites() {
            prop_assert!(!dead.contains(site));
        }
        prop_assert!(!dead.contains(&assignment.coordinator()));
        for p in 0..map.num_partitions() {
            let owner = assignment.owner_of_partition(p);
            prop_assert!(!dead.contains(&owner));
            prop_assert!(map.owners_of(p).contains(&owner));
        }
    }
}

/// `net.transfer.latency_ns` / `net.transfer.bandwidth_ns` are the two terms
/// of `NetworkConfig::wire_terms`, each × the fault layer's delay factor;
/// a same-site send adds to neither. (The counters are process-wide: no
/// other test in this binary sends an exchange message, so the deltas are
/// exact.)
#[test]
fn wire_charge_splits_into_latency_and_bandwidth() {
    use ic_net::{net_channel, Network, NetworkConfig, WireSize};
    struct Blob(usize);
    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            self.0
        }
    }
    let counter = |name| ic_common::obs::MetricsRegistry::global().counter(name);
    let (latency, bandwidth) =
        (counter("net.transfer.latency_ns"), counter("net.transfer.bandwidth_ns"));
    let net = Network::new(NetworkConfig {
        latency: std::time::Duration::from_micros(300),
        bandwidth_bytes_per_sec: 1_000_000,
    });
    net.install_faults(FaultPlan::new(1).latency_spike(2, 0, TICK_FOREVER));
    let before = (latency.get(), bandwidth.get());
    // 500 B at 1 MB/s = 500 µs; the spike doubles both terms.
    let (cross, _cross_rx) = net_channel::<Blob>(net.clone(), SiteId(0), SiteId(1), 1);
    let (local, _local_rx) = net_channel::<Blob>(net, SiteId(1), SiteId(1), 1);
    cross.send(Blob(500)).unwrap();
    local.send(Blob(500)).unwrap();
    assert_eq!((latency.get() - before.0, bandwidth.get() - before.1), (600_000, 1_000_000));
}
