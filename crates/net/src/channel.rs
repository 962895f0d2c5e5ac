//! Site-to-site channels: crossbeam channels whose messages land when the
//! simulated wire says they do.
//!
//! These back the executor's sender/receiver operator pairs (the paper's
//! §3.2.3 exchange splitting). A [`NetSender`] charges the shared
//! [`Network`] for each batch according to its wire size — a reservation on
//! its source site's NIC — and enqueues it with its delivery time, without
//! waiting for the wire; the bounded window is all that can block it. A
//! [`NetReceiver`] never hands a message out before it is due. Faults
//! injected by the network surface at the sender as typed [`NetError`]s so
//! the executor can tell a dead site from a dropped message.

use crate::topology::SiteId;
use crate::wire::WireSize;
use crate::{NetStats, Network, Traffic};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use ic_common::obs::Trace;
use std::sync::Arc;
use std::time::Duration;

/// Tracing context for a network endpoint: where to record per-message
/// spans (bytes + modelled wire time) and fault events.
#[derive(Debug, Clone)]
pub struct NetObs {
    /// The owning query's trace (and clock).
    pub trace: Arc<Trace>,
    /// Lane of the sending fragment-instance thread.
    pub lane: u32,
}

/// Sending half of a simulated network link.
pub struct NetSender<T> {
    tx: Sender<(u64, T)>,
    net: Arc<Network>,
    src: SiteId,
    dst: SiteId,
    obs: Option<NetObs>,
    tally: Option<Arc<NetStats>>,
}

/// Receiving half of a simulated network link.
pub struct NetReceiver<T> {
    rx: Receiver<(u64, T)>,
    net: Arc<Network>,
    /// A message taken off the link before it was due, with its delivery
    /// time: the next one handed out.
    held: Option<(u64, T)>,
    pub src: SiteId,
    pub dst: SiteId,
}

/// Error returned when the peer hung up or a fault was injected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// All senders/receivers on the link dropped.
    Disconnected,
    /// The message was lost to a link fault (both endpoints stay alive).
    LinkFault,
    /// An endpoint of the link has crashed.
    SiteDead(SiteId),
    /// A receive timed out.
    Timeout,
}

/// Create a simulated link from `src` to `dst` with a bounded in-flight
/// window (backpressure, like Ignite's window of unacknowledged batches).
pub fn net_channel<T: WireSize>(
    net: Arc<Network>,
    src: SiteId,
    dst: SiteId,
    window: usize,
) -> (NetSender<T>, NetReceiver<T>) {
    let (tx, rx) = bounded(window);
    (
        NetSender { tx, net: net.clone(), src, dst, obs: None, tally: None },
        NetReceiver { rx, net, held: None, src, dst },
    )
}

impl<T: WireSize> NetSender<T> {
    /// Ship one payload: reserve its turn on the source site's NIC, then
    /// enqueue it with its delivery time (blocking only while the window is
    /// full). Returns the bytes charged to the wire: the payload's wire size
    /// on a cross-site link, 0 on a same-site one — that hand-off is free,
    /// so it is counted (`local_messages`) but never sized or traced.
    /// Traced senders record one span per cross-site message — send to
    /// delivery on the model's clock, `bytes` the wire size, `queue_ns` the
    /// wait behind the site's earlier messages — and an instant event for
    /// every injected fault.
    pub fn send(&self, payload: T) -> Result<usize, NetError> {
        let local = self.src == self.dst;
        let bytes = if local { 0 } else { payload.wire_size() };
        let traced = self.obs.as_ref().filter(|_| !local).map(|o| (o, o.trace.now_ns()));
        let charged =
            self.net.charge(Traffic::Exchange, self.src, self.dst, bytes, self.tally.as_deref());
        if let Some((o, t0)) = traced {
            match &charged {
                // A message can land after the fragment that sent it has
                // ended, so its span has no parent to nest in.
                Ok(r) => o.trace.record_span(
                    format!("xfer {}->{}", self.src, self.dst),
                    "net",
                    None,
                    o.lane,
                    t0,
                    t0 + r.wire_ns(),
                    vec![
                        ("bytes", bytes as u64),
                        ("src", self.src.0 as u64),
                        ("dst", self.dst.0 as u64),
                        ("queue_ns", r.queue_ns()),
                    ],
                ),
                Err(e) => o.trace.event(
                    "net.fault",
                    "net",
                    o.lane,
                    format!("{}->{}: {e:?}", self.src, self.dst),
                ),
            }
        }
        let due = charged?.deliver_at;
        self.tx.send((due, payload)).map_err(|_| NetError::Disconnected)?;
        Ok(bytes)
    }
}

impl<T> NetSender<T> {
    /// A clone of this sender attributed to a different source site —
    /// used when several fragment instances share one receiver endpoint.
    pub fn with_src(&self, src: SiteId) -> NetSender<T> {
        NetSender { src, ..self.clone() }
    }

    /// Count every cross-site message this endpoint (and its clones) is
    /// charged for into `tally` — one shared tally per execution gives a
    /// query its own `net_messages` / `net_bytes`, whatever else the
    /// cluster is shipping meanwhile.
    pub fn with_tally(mut self, tally: Arc<NetStats>) -> NetSender<T> {
        self.tally = Some(tally);
        self
    }

    /// Attach per-transfer tracing to this endpoint.
    pub fn set_obs(&mut self, obs: NetObs) {
        self.obs = Some(obs);
    }
}

impl<T> Clone for NetSender<T> {
    fn clone(&self) -> Self {
        NetSender {
            tx: self.tx.clone(),
            net: self.net.clone(),
            src: self.src,
            dst: self.dst,
            obs: self.obs.clone(),
            tally: self.tally.clone(),
        }
    }
}

impl<T> NetReceiver<T> {
    /// Receive with a timeout, used by the executor's runtime-limit checks.
    /// Never hands a message out before it is due and never waits past
    /// `timeout`: a message that will not have landed by then is held, and
    /// handed out by a later call.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, NetError> {
        let deadline = self.net.now_ns().saturating_add(timeout.as_nanos() as u64);
        let (due, payload) = match self.held.take() {
            Some(held) => held,
            None => self.rx.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => NetError::Timeout,
                RecvTimeoutError::Disconnected => NetError::Disconnected,
            })?,
        };
        if due > deadline {
            self.held = Some((due, payload));
            self.net.sleep_until(deadline);
            return Err(NetError::Timeout);
        }
        self.net.sleep_until(due);
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, NetworkConfig, TICK_FOREVER};
    use ic_common::{ColumnBatch, Datum, Row};

    /// Long enough for any message of these tests to land.
    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn send_recv_roundtrip() {
        let net = Network::new(NetworkConfig::instant());
        let (tx, mut rx) = net_channel::<ColumnBatch>(net.clone(), SiteId(0), SiteId(1), 4);
        let batch = ColumnBatch::from_rows(&[Row(vec![Datum::Int(1)])]);
        assert_eq!(tx.send(batch.clone()), Ok(batch.wire_size()));
        assert_eq!(rx.recv_timeout(WAIT).unwrap().to_rows(), batch.to_rows());
        let (msgs, _, _) = net.stats.snapshot();
        assert_eq!(msgs, 1);
    }

    /// A same-site hand-off is free, so it must not pay for sizing the
    /// payload either: it is delivered and counted, nothing else.
    #[test]
    fn same_site_send_is_never_sized() {
        struct Unsizable;
        impl WireSize for Unsizable {
            fn wire_size(&self) -> usize {
                panic!("a free link sized its payload")
            }
        }
        let net = Network::new(NetworkConfig::instant());
        let tally = Arc::new(NetStats::default());
        let (tx, mut rx) = net_channel::<Unsizable>(net.clone(), SiteId(2), SiteId(2), 4);
        assert_eq!(tx.with_tally(tally.clone()).send(Unsizable), Ok(0));
        assert!(rx.recv_timeout(WAIT).is_ok());
        assert_eq!(net.stats.snapshot(), (0, 0, 1));
        assert_eq!(tally.snapshot(), (0, 0, 0));
    }

    #[test]
    fn disconnect_detected() {
        let net = Network::new(NetworkConfig::instant());
        let (tx, mut rx) = net_channel::<ColumnBatch>(net, SiteId(0), SiteId(1), 4);
        drop(tx);
        assert_eq!(rx.recv_timeout(WAIT).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn fault_injection_propagates() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(
            FaultPlan::new(3).drop_link(SiteId(0), SiteId(1), 1.0, 0, TICK_FOREVER),
        );
        let (tx, _rx) = net_channel::<ColumnBatch>(net, SiteId(0), SiteId(1), 4);
        assert_eq!(tx.send(ColumnBatch::empty(1)).unwrap_err(), NetError::LinkFault);
    }

    #[test]
    fn dead_site_surfaces_in_send() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(3).crash(SiteId(1), 0));
        let (tx, _rx) = net_channel::<ColumnBatch>(net, SiteId(0), SiteId(1), 4);
        assert_eq!(tx.send(ColumnBatch::empty(1)).unwrap_err(), NetError::SiteDead(SiteId(1)));
    }

    #[test]
    fn timeout_fires() {
        let net = Network::new(NetworkConfig::instant());
        let (_tx, mut rx) = net_channel::<ColumnBatch>(net, SiteId(0), SiteId(1), 4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn cross_thread_transfer() {
        let net = Network::new(NetworkConfig::instant());
        let (tx, mut rx) = net_channel::<ColumnBatch>(net, SiteId(0), SiteId(1), 2);
        let h = std::thread::spawn(move || {
            for i in 0..100i64 {
                tx.send(ColumnBatch::from_rows(&[Row(vec![Datum::Int(i)])])).unwrap();
            }
        });
        let mut total = 0;
        while let Ok(b) = rx.recv_timeout(WAIT) {
            total += b.num_rows();
        }
        h.join().unwrap();
        assert_eq!(total, 100);
    }
}
