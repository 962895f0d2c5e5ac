//! Site-to-site channels: crossbeam channels with simulated network delay.
//!
//! These back the executor's sender/receiver operator pairs (the paper's
//! §3.2.3 exchange splitting). A [`NetSender`] charges the shared
//! [`Network`] for each batch according to its wire size before it is
//! delivered; faults injected by the network surface here as typed
//! [`NetError`]s so the executor can tell a dead site from a dropped
//! message.

use crate::topology::SiteId;
use crate::wire::WireSize;
use crate::{AbortFn, NetStats, Network};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use ic_common::obs::{SpanId, Trace};
use std::sync::Arc;
use std::time::Duration;

/// Tracing context for a network endpoint: where to record per-transfer
/// spans (bytes + charged latency) and fault events.
#[derive(Debug, Clone)]
pub struct NetObs {
    /// The owning query's trace (and clock).
    pub trace: Arc<Trace>,
    /// Lane of the sending fragment-instance thread.
    pub lane: u32,
    /// Span the transfers nest under (the fragment-instance span).
    pub parent: Option<SpanId>,
}

/// Sending half of a simulated network link.
pub struct NetSender<T> {
    tx: Sender<T>,
    net: Arc<Network>,
    src: SiteId,
    dst: SiteId,
    abort: Option<Arc<AbortFn>>,
    obs: Option<NetObs>,
    tally: Option<Arc<NetStats>>,
}

/// Receiving half of a simulated network link.
pub struct NetReceiver<T> {
    rx: Receiver<T>,
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
    /// The transfer was abandoned mid-flight (query deadline/cancellation).
    Aborted,
}

/// Create a simulated link from `src` to `dst` with a bounded in-flight
/// window (backpressure, like Ignite's per-connection message window).
pub fn net_channel<T: WireSize>(
    net: Arc<Network>,
    src: SiteId,
    dst: SiteId,
    window: usize,
) -> (NetSender<T>, NetReceiver<T>) {
    let (tx, rx) = bounded(window);
    (
        NetSender { tx, net, src, dst, abort: None, obs: None, tally: None },
        NetReceiver { rx, src, dst },
    )
}

impl<T: WireSize> NetSender<T> {
    /// Ship one payload: charges network delay (abortable mid-flight when
    /// an abort hook is attached), then delivers (blocking if the
    /// receiver's window is full). Returns the bytes charged to the wire:
    /// the payload's wire size on a cross-site link, 0 on a same-site one —
    /// that hand-off is free, so it is counted (`local_messages`) but never
    /// sized or traced. Traced senders record one span per cross-site
    /// transfer — the span duration is the charged latency, `bytes` the
    /// wire size — and an instant event for every injected fault.
    pub fn send(&self, payload: T) -> Result<usize, NetError> {
        let local = self.src == self.dst;
        let bytes = if local { 0 } else { payload.wire_size() };
        let traced = self.obs.as_ref().filter(|_| !local).map(|o| (o, o.trace.now_ns()));
        let charged = self.net.transfer_cancellable(
            self.src,
            self.dst,
            bytes,
            self.abort.as_deref(),
            self.tally.as_deref(),
        );
        if let Some((o, t0)) = traced {
            match &charged {
                Ok(()) => o.trace.record_span(
                    format!("xfer {}->{}", self.src, self.dst),
                    "net",
                    o.parent,
                    o.lane,
                    t0,
                    o.trace.now_ns(),
                    vec![("bytes", bytes as u64), ("src", self.src.0 as u64), ("dst", self.dst.0 as u64)],
                ),
                Err(e) => o.trace.event(
                    "net.fault",
                    "net",
                    o.lane,
                    format!("{}->{}: {e:?}", self.src, self.dst),
                ),
            }
        }
        charged?;
        self.tx.send(payload).map_err(|_| NetError::Disconnected)?;
        Ok(bytes)
    }
}

impl<T> NetSender<T> {
    /// A clone of this sender attributed to a different source site —
    /// used when several fragment instances share one receiver endpoint.
    pub fn with_src(&self, src: SiteId) -> NetSender<T> {
        NetSender { src, ..self.clone() }
    }

    /// Attach an abort hook polled during long bandwidth sleeps so
    /// in-flight sends stop at the query deadline instead of overshooting.
    pub fn with_abort(mut self, abort: Arc<AbortFn>) -> NetSender<T> {
        self.abort = Some(abort);
        self
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
            abort: self.abort.clone(),
            obs: self.obs.clone(),
            tally: self.tally.clone(),
        }
    }
}

impl<T> NetReceiver<T> {
    /// Blocking receive; `Err(Disconnected)` when all senders dropped.
    pub fn recv(&self) -> Result<T, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    /// Receive with a timeout, used by the executor's runtime-limit checks.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, NetworkConfig, TICK_FOREVER};
    use ic_common::{Datum, Row};

    #[test]
    fn send_recv_roundtrip() {
        let net = Network::new(NetworkConfig::instant());
        let (tx, rx) = net_channel::<Vec<Row>>(net.clone(), SiteId(0), SiteId(1), 4);
        let batch = vec![Row(vec![Datum::Int(1)])];
        assert_eq!(tx.send(batch.clone()), Ok(batch.wire_size()));
        assert_eq!(rx.recv().unwrap(), batch);
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
        let (tx, rx) = net_channel::<Unsizable>(net.clone(), SiteId(2), SiteId(2), 4);
        assert_eq!(tx.with_tally(tally.clone()).send(Unsizable), Ok(0));
        assert!(rx.recv().is_ok());
        assert_eq!(net.stats.snapshot(), (0, 0, 1));
        assert_eq!(tally.snapshot(), (0, 0, 0));
    }

    #[test]
    fn disconnect_detected() {
        let net = Network::new(NetworkConfig::instant());
        let (tx, rx) = net_channel::<Vec<Row>>(net, SiteId(0), SiteId(1), 4);
        drop(tx);
        assert_eq!(rx.recv().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn fault_injection_propagates() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(
            FaultPlan::new(3).drop_link(SiteId(0), SiteId(1), 1.0, 0, TICK_FOREVER),
        );
        let (tx, _rx) = net_channel::<Vec<Row>>(net, SiteId(0), SiteId(1), 4);
        assert_eq!(tx.send(vec![]).unwrap_err(), NetError::LinkFault);
    }

    #[test]
    fn dead_site_surfaces_in_send() {
        let net = Network::new(NetworkConfig::instant());
        net.install_faults(FaultPlan::new(3).crash(SiteId(1), 0));
        let (tx, _rx) = net_channel::<Vec<Row>>(net, SiteId(0), SiteId(1), 4);
        assert_eq!(tx.send(vec![]).unwrap_err(), NetError::SiteDead(SiteId(1)));
    }

    #[test]
    fn timeout_fires() {
        let net = Network::new(NetworkConfig::instant());
        let (_tx, rx) = net_channel::<Vec<Row>>(net, SiteId(0), SiteId(1), 4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn cross_thread_transfer() {
        let net = Network::new(NetworkConfig::instant());
        let (tx, rx) = net_channel::<Vec<Row>>(net, SiteId(0), SiteId(1), 2);
        let h = std::thread::spawn(move || {
            for i in 0..100i64 {
                tx.send(vec![Row(vec![Datum::Int(i)])]).unwrap();
            }
        });
        let mut total = 0;
        while let Ok(b) = rx.recv() {
            total += b.len();
        }
        h.join().unwrap();
        assert_eq!(total, 100);
    }
}
