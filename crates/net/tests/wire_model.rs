//! The wire model: a message occupies its source site's NIC for
//! bytes ÷ bandwidth, queued behind that site's earlier messages, and lands
//! one latency after it leaves.
//!
//! The model itself is a pure function of (now, busy until, occupancy,
//! latency), so its properties are checked exactly. Against the wall clock
//! only lower bounds are asserted: a sleep can overshoot, never undershoot.

#![expect(clippy::disallowed_methods, reason = "the wall-clock lower bounds check that a modelled delivery really waits")]

use ic_common::obs::Trace;
use ic_net::{
    net_channel, NetError, NetObs, Network, NetworkConfig, Nics, Reservation, SiteId, WireSize,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

proptest! {
    /// n messages sent at once from one site leave its NIC back to back:
    /// the k-th has finished its occupancy k × occ after the first started.
    #[test]
    fn one_site_serializes_its_messages(
        now in 0u64..1 << 40,
        busy in 0u64..1 << 40,
        occ in 0u64..1 << 20,
        lat in 0u64..1 << 20,
        n in 1u64..64,
    ) {
        let mut busy_until = busy;
        let first = Reservation::new(now, busy_until, occ, lat);
        for k in 1..=n {
            let r = Reservation::new(now, busy_until, occ, lat);
            prop_assert_eq!(r.end, first.start + k * occ);
            prop_assert_eq!(r.deliver_at, r.end + lat);
            prop_assert_eq!(r.queue_ns(), r.start - now);
            busy_until = r.end;
        }
    }

    /// Sites do not queue on each other: a site's reservations are the same
    /// whether or not other sites send in between.
    #[test]
    fn sites_never_queue_on_each_other(
        ours in prop::collection::vec((0u64..5_000, 1u64..5_000), 1..40),
        theirs in prop::collection::vec((1usize..4, 0u64..5_000), 0..80),
        lat in 0u64..10_000,
    ) {
        let mut alone = Nics::default();
        let mut shared = Nics::default();
        let mut now = 0;
        let mut noise = theirs.iter().cycle();
        for &(gap, occ) in &ours {
            now += gap;
            // Another site's message goes first, at the same instant.
            if !theirs.is_empty() {
                let &(site, occ) = noise.next().unwrap();
                shared.reserve(SiteId(site), now, occ, lat);
            }
            prop_assert_eq!(
                shared.reserve(SiteId(0), now, occ, lat),
                alone.reserve(SiteId(0), now, occ, lat)
            );
        }
    }

    /// One site's deliveries are strictly increasing: its NIC clock only
    /// moves forward, so per source the link order is the arrival order.
    #[test]
    fn one_site_delivers_in_send_order(
        sends in prop::collection::vec((0u64..5_000, 1u64..5_000), 2..60),
        lat in 0u64..10_000,
    ) {
        let mut nics = Nics::default();
        let mut now = 0;
        let mut last = None;
        for (gap, occ) in sends {
            now += gap;
            let r = nics.reserve(SiteId(2), now, occ, lat);
            if let Some(last) = last {
                prop_assert!(r.deliver_at > last);
            }
            last = Some(r.deliver_at);
        }
    }

    /// A latency spike of factor f multiplies both terms — the occupancy and
    /// the latency — so an idle NIC delivers f times later.
    #[test]
    fn latency_spike_multiplies_both_terms(
        bytes in 0usize..1 << 20,
        factor in 1u32..1000,
        latency_us in 0u64..1000,
        bandwidth in 1u64..10_000_000_000,
    ) {
        let cfg = NetworkConfig {
            latency: Duration::from_micros(latency_us),
            bandwidth_bytes_per_sec: bandwidth,
        };
        let (occ, lat) = cfg.wire_terms(bytes, 1);
        let f = u64::from(factor);
        prop_assert_eq!(cfg.wire_terms(bytes, factor), (occ * f, lat * f));
        let idle = |(occ, lat)| Reservation::new(7, 0, occ, lat).wire_ns();
        prop_assert_eq!(idle(cfg.wire_terms(bytes, factor)), f * idle((occ, lat)));
    }
}

/// A payload of exactly its stated number of bytes on the wire.
struct Blob(usize);

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        self.0
    }
}

/// 20 ms latency, 1 KB = 10 ms on the NIC.
fn slow_network() -> std::sync::Arc<Network> {
    Network::new(NetworkConfig {
        latency: Duration::from_millis(20),
        bandwidth_bytes_per_sec: 100_000,
    })
}

/// A message is never received before send + latency + bytes ÷ bandwidth.
#[test]
fn a_message_never_lands_early() {
    let (tx, mut rx) = net_channel::<Blob>(slow_network(), SiteId(0), SiteId(1), 4);
    let sent = Instant::now();
    tx.send(Blob(1_000)).unwrap();
    rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(sent.elapsed() >= Duration::from_millis(30), "landed after {:?}", sent.elapsed());
}

/// n back-to-back sends from one site arrive no earlier than
/// n × bytes ÷ bandwidth + latency, on whichever links they take.
#[test]
fn back_to_back_sends_share_their_site_nic() {
    const N: usize = 5;
    let net = slow_network();
    let links: Vec<_> =
        (1..=N).map(|dst| net_channel::<Blob>(net.clone(), SiteId(0), SiteId(dst), 1)).collect();
    let sent = Instant::now();
    for (tx, _) in &links {
        tx.send(Blob(1_000)).unwrap();
    }
    for (_, mut rx) in links {
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let floor = Duration::from_millis(N as u64 * 10 + 20);
    assert!(sent.elapsed() >= floor, "{N} messages landed after {:?}", sent.elapsed());
}

/// The wait for the wire is the receiver's, and it never outlasts the
/// receiver's timeout: a message due in 10 s is not handed out by a 10 ms
/// receive, which returns `Timeout` at once — and the message is kept for
/// when it is due: with the sender gone the link still answers `Timeout`,
/// not `Disconnected`.
#[test]
fn cancellable_sleep_aborts() {
    let net = Network::new(NetworkConfig { latency: Duration::ZERO, bandwidth_bytes_per_sec: 1_000 });
    let (tx, mut rx) = net_channel::<Blob>(net, SiteId(0), SiteId(1), 4);
    // 10 KB at 1 KB/s: due 10 s after the send.
    tx.send(Blob(10_000)).unwrap();
    let start = Instant::now();
    assert_eq!(rx.recv_timeout(Duration::from_millis(10)).err(), Some(NetError::Timeout));
    assert!(start.elapsed() < Duration::from_secs(2));
    drop(tx);
    assert_eq!(rx.recv_timeout(Duration::from_millis(10)).err(), Some(NetError::Timeout));
}

/// `send` returns without waiting for the wire: right after it, the one
/// message the network counted is on the link but not due.
#[test]
fn send_does_not_wait_for_the_wire() {
    let net = Network::new(NetworkConfig { latency: Duration::from_secs(10), ..NetworkConfig::default() });
    let (tx, mut rx) = net_channel::<Blob>(net.clone(), SiteId(0), SiteId(1), 4);
    tx.send(Blob(100)).unwrap();
    assert_eq!(net.stats.snapshot(), (1, 100, 0));
    assert_eq!(rx.recv_timeout(Duration::from_millis(1)).err(), Some(NetError::Timeout));
}

/// A traced message's span runs from send to delivery on the model's clock:
/// latency + bytes ÷ bandwidth + the time it queued behind the site's
/// earlier messages, exactly.
#[test]
fn traced_span_is_the_modelled_wire_time() {
    let cfg = NetworkConfig { latency: Duration::from_micros(300), bandwidth_bytes_per_sec: 1_000_000 };
    let trace = Trace::new();
    let (mut tx, _rx) = net_channel::<Blob>(Network::new(cfg.clone()), SiteId(1), SiteId(0), 4);
    tx.set_obs(NetObs { trace: trace.clone(), lane: 3 });
    for _ in 0..3 {
        tx.send(Blob(2_000)).unwrap();
    }
    let spans = trace.spans();
    assert_eq!(spans.len(), 3);
    for span in &spans {
        let arg = |name| span.args.iter().find(|(k, _)| *k == name).unwrap().1;
        let (occupancy, latency) = cfg.wire_terms(arg("bytes") as usize, 1);
        assert_eq!(span.end_ns - span.start_ns, latency + occupancy + arg("queue_ns"));
        assert_eq!((span.lane, span.parent, arg("src"), arg("dst")), (3, None, 1, 0));
    }
    trace.validate().unwrap();
}
