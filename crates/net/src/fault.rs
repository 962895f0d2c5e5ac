//! Deterministic fault injection.
//!
//! The paper's headline result is a *failure inventory*: eight of 22 TPC-H
//! queries fail on the baseline stack. Reproducing the infrastructure side
//! of that inventory needs more than an ad-hoc fault closure — it needs a
//! *seeded, replayable* fault layer. A [`FaultPlan`] is a schedule of fault
//! events (link drops, transient/permanent site crashes, latency spikes)
//! whose activation windows are expressed in *ticks* — one tick per
//! cross-site message — so the same plan produces the same fault sequence
//! on every run, independent of wall-clock jitter. The per-message drop
//! decisions of probabilistic faults are pure functions of
//! `(seed, src, dst, per-link message number)`, which makes chaos runs
//! replay exactly.
//!
//! A site is down at a tick exactly when a crash window covers it
//! ([`FaultPlan::crashed`]) or an operator killed it; the network asks that
//! rule for every message and for every reader of site health
//! (`Network::down_sites`).

use crate::topology::SiteId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel tick for "never ends".
pub const TICK_FOREVER: u64 = u64::MAX;

/// One class of injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Drop each message on the directed link `src → dst` with probability
    /// `prob` (decided deterministically from the plan seed and the
    /// link-local message number).
    LinkDrop { src: SiteId, dst: SiteId, prob: f64 },
    /// The site is down while the window is open: every transfer touching
    /// it fails. A permanent crash is a window that never closes.
    SiteCrash { site: SiteId },
    /// Multiply every transfer delay by `factor` (congestion).
    LatencySpike { factor: u32 },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LinkDrop { src, dst, prob } => {
                write!(f, "drop({src}->{dst}, p={prob:.2})")
            }
            FaultKind::SiteCrash { site } => write!(f, "crash({site})"),
            FaultKind::LatencySpike { factor } => write!(f, "latency(x{factor})"),
        }
    }
}

/// One scheduled fault: `kind` is active for ticks in `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub kind: FaultKind,
    pub start: u64,
    pub end: u64,
}

impl FaultEvent {
    /// Whether the event is active at `tick`.
    fn covers(&self, tick: u64) -> bool {
        self.start <= tick && tick < self.end
    }
}

/// A seeded, deterministic fault schedule. Two plans built with the same
/// seed (and the same builder calls / [`FaultPlan::random`] parameters)
/// are identical, and replaying one against the same message sequence
/// yields the identical drop/crash sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Add an event active for ticks `[start, end)`.
    pub fn event(mut self, kind: FaultKind, start: u64, end: u64) -> FaultPlan {
        self.events.push(FaultEvent { kind, start, end });
        self
    }

    /// Permanently crash `site` at tick `at`.
    pub fn crash(self, site: SiteId, at: u64) -> FaultPlan {
        self.event(FaultKind::SiteCrash { site }, at, TICK_FOREVER)
    }

    /// Crash `site` for ticks `[start, end)`, then recover.
    pub fn transient_crash(self, site: SiteId, start: u64, end: u64) -> FaultPlan {
        self.event(FaultKind::SiteCrash { site }, start, end)
    }

    /// Drop messages on `src → dst` with probability `prob` during
    /// `[start, end)`.
    pub fn drop_link(self, src: SiteId, dst: SiteId, prob: f64, start: u64, end: u64) -> FaultPlan {
        self.event(FaultKind::LinkDrop { src, dst, prob }, start, end)
    }

    /// Multiply transfer delays by `factor` during `[start, end)`.
    pub fn latency_spike(self, factor: u32, start: u64, end: u64) -> FaultPlan {
        self.event(FaultKind::LatencySpike { factor }, start, end)
    }

    /// Whether a crash window of this plan covers `site` at `tick`.
    pub fn crashed(&self, site: SiteId, tick: u64) -> bool {
        self.events.iter().any(|ev| {
            matches!(ev.kind, FaultKind::SiteCrash { site: s } if s == site) && ev.covers(tick)
        })
    }

    /// Every site some crash window of this plan names.
    pub fn crash_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.events.iter().filter_map(|ev| match ev.kind {
            FaultKind::SiteCrash { site } => Some(site),
            _ => None,
        })
    }

    /// Generate a random chaos schedule over `horizon` ticks for a
    /// `sites`-site cluster: one permanent site crash (never the
    /// coordinator, site 0 — the paper's "site that received the original
    /// request" is assumed to stay up), plus transient crashes, latency
    /// spikes and lossy links. Deterministic in `seed`.
    pub fn random(seed: u64, sites: usize, horizon: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new(seed);
        let span = horizon.max(10);
        if sites > 1 {
            // The headline fault: one permanent crash mid-run.
            let victim = SiteId(1 + (rng.next_u64() as usize % (sites - 1)));
            let at = span / 4 + rng.next_below(span / 4);
            plan = plan.crash(victim, at);
            // A transient crash of a different site early on.
            let flaky = SiteId(1 + (rng.next_u64() as usize % (sites - 1)));
            let start = rng.next_below(span / 8);
            plan = plan.transient_crash(flaky, start, start + span / 16 + 1);
            // A lossy link into a random site.
            let dst = SiteId(rng.next_u64() as usize % sites);
            let src = SiteId(rng.next_u64() as usize % sites);
            if src != dst {
                let s = rng.next_below(span / 2);
                plan = plan.drop_link(src, dst, 0.05 + rng.next_f64() * 0.2, s, s + span / 8 + 1);
            }
        }
        // A congestion window.
        let s = rng.next_below(span / 2);
        plan = plan.latency_spike(2 + (rng.next_u64() % 3) as u32, s, s + span / 8 + 1);
        plan
    }

    /// Serialize the plan to a single-line spec, e.g.
    /// `seed=7; crash(2)@5; crash(1)@[0,3); drop(0->1,0.25)@[0,100);
    /// latency(x3)@[10,20)` — a crash window that never closes is written
    /// by its start tick alone. The format is the on-disk representation of
    /// fuzz regression fixtures, so
    /// [`FaultPlan::parse_spec`] round-trips it exactly (floats use
    /// shortest-round-trip formatting).
    pub fn to_spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        let tick = |t: u64| {
            if t == TICK_FOREVER {
                "inf".to_string()
            } else {
                t.to_string()
            }
        };
        for ev in &self.events {
            let window = format!("[{},{})", tick(ev.start), tick(ev.end));
            let part = match &ev.kind {
                FaultKind::SiteCrash { site } if ev.end == TICK_FOREVER => {
                    format!("crash({})@{}", site.0, ev.start)
                }
                FaultKind::SiteCrash { site } => format!("crash({})@{window}", site.0),
                FaultKind::LinkDrop { src, dst, prob } => {
                    format!("drop({}->{},{prob})@{window}", src.0, dst.0)
                }
                FaultKind::LatencySpike { factor } => format!("latency(x{factor})@{window}"),
            };
            parts.push(part);
        }
        parts.join("; ")
    }

    /// Parse a spec produced by [`FaultPlan::to_spec`].
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan: Option<FaultPlan> = None;
        for raw in spec.split(';') {
            let part = raw.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(seed) = part.strip_prefix("seed=") {
                let seed = seed.trim().parse::<u64>().map_err(|e| format!("bad seed: {e}"))?;
                plan = Some(FaultPlan::new(seed));
                continue;
            }
            let plan_ref = plan.as_mut().ok_or("spec must start with seed=N")?;
            let (head, window) = part
                .split_once('@')
                .ok_or_else(|| format!("event '{part}' missing @window"))?;
            let (name, args) = head
                .split_once('(')
                .and_then(|(n, rest)| rest.strip_suffix(')').map(|a| (n.trim(), a.trim())))
                .ok_or_else(|| format!("malformed event '{part}'"))?;
            let (start, end) = parse_window(window.trim())?;
            let kind = match name {
                "crash" => FaultKind::SiteCrash { site: SiteId(parse_usize(args)?) },
                "drop" => {
                    let (link, prob) =
                        args.split_once(',').ok_or_else(|| format!("bad drop args '{args}'"))?;
                    let (src, dst) = link
                        .split_once("->")
                        .ok_or_else(|| format!("bad drop link '{link}'"))?;
                    FaultKind::LinkDrop {
                        src: SiteId(parse_usize(src)?),
                        dst: SiteId(parse_usize(dst)?),
                        prob: prob
                            .trim()
                            .parse::<f64>()
                            .map_err(|e| format!("bad drop prob '{prob}': {e}"))?,
                    }
                }
                "latency" => {
                    let factor = args
                        .strip_prefix('x')
                        .ok_or_else(|| format!("bad latency factor '{args}'"))?;
                    FaultKind::LatencySpike {
                        factor: factor
                            .trim()
                            .parse::<u32>()
                            .map_err(|e| format!("bad latency factor '{args}': {e}"))?,
                    }
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            plan_ref.events.push(FaultEvent { kind, start, end });
        }
        plan.ok_or_else(|| "empty fault spec".to_string())
    }

    /// Human-readable schedule, sorted by start tick — identical for
    /// identical seeds, which is what makes chaos reports comparable
    /// across runs.
    pub fn timeline(&self) -> String {
        let mut lines: Vec<(u64, String)> = self
            .events
            .iter()
            .map(|e| {
                let end = if e.end == TICK_FOREVER { "∞".to_string() } else { e.end.to_string() };
                (e.start, format!("[{:>6}, {:>6}) {}", e.start, end, e.kind))
            })
            .collect();
        lines.sort();
        lines.into_iter().map(|(_, l)| l).collect::<Vec<_>>().join("\n")
    }
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.trim().parse::<usize>().map_err(|e| format!("bad site id '{s}': {e}"))
}

/// Parse `[start,end)` / `inf` windows or a bare `@start` crash tick.
fn parse_window(w: &str) -> Result<(u64, u64), String> {
    let parse_tick = |t: &str| -> Result<u64, String> {
        let t = t.trim();
        if t == "inf" {
            Ok(TICK_FOREVER)
        } else {
            t.parse::<u64>().map_err(|e| format!("bad tick '{t}': {e}"))
        }
    };
    if let Some(inner) = w.strip_prefix('[').and_then(|r| r.strip_suffix(')')) {
        let (s, e) = inner.split_once(',').ok_or_else(|| format!("bad window '{w}'"))?;
        Ok((parse_tick(s)?, parse_tick(e)?))
    } else {
        Ok((parse_tick(w)?, TICK_FOREVER))
    }
}

/// Minimal deterministic RNG (SplitMix64) so the fault layer does not
/// depend on an external crate and streams are stable across platforms.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)` (`0` when `bound == 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Pure drop decision for probabilistic link faults: a function of the
/// plan seed, the link, and the link-local message number only — so the
/// decision sequence per link is identical on every replay.
fn link_drop_decision(seed: u64, src: SiteId, dst: SiteId, n: u64, prob: f64) -> bool {
    let mix = seed
        ^ (src.0 as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (dst.0 as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ n.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    SplitMix64::new(mix).next_f64() < prob
}

/// What the injector's link faults and latency spikes make of one transfer.
/// Whether its endpoints are up is the network's rule, asked at the same
/// tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Deliver, with the transfer delay multiplied by `delay_factor`.
    Deliver { delay_factor: u32 },
    /// The message is lost (link fault); the sites stay up.
    Drop,
}

/// Replays a [`FaultPlan`] against the live message stream. The logical
/// clock advances by one tick per consulted transfer.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    clock: AtomicU64,
    /// Per link the plan may drop on, how many messages a drop event has
    /// judged on it: the `n` of [`link_drop_decision`].
    link_seq: Vec<((SiteId, SiteId), AtomicU64)>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        let mut link_seq: Vec<((SiteId, SiteId), AtomicU64)> = Vec::new();
        for ev in &plan.events {
            if let FaultKind::LinkDrop { src, dst, .. } = ev.kind {
                if !link_seq.iter().any(|(link, _)| *link == (src, dst)) {
                    link_seq.push(((src, dst), AtomicU64::new(0)));
                }
            }
        }
        Arc::new(FaultInjector { plan, clock: AtomicU64::new(0), link_seq })
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current logical time (ticks = cross-site transfers consulted).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Decide the link faults and latency of one `src → dst` transfer,
    /// advancing the logical clock: returns the transfer's tick and the
    /// decision. Crash windows are not consulted here.
    pub fn decide(&self, src: SiteId, dst: SiteId) -> (u64, FaultDecision) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut factor: u32 = 1;
        let mut dropped = false;
        for ev in self.plan.events.iter().filter(|ev| ev.covers(tick)) {
            match ev.kind {
                FaultKind::LinkDrop { src: s, dst: d, prob } if s == src && d == dst => {
                    let seq = self.link_seq.iter().find(|(link, _)| *link == (src, dst));
                    let n = seq.map_or(0, |(_, n)| n.fetch_add(1, Ordering::Relaxed));
                    dropped |= link_drop_decision(self.plan.seed, src, dst, n, prob);
                }
                FaultKind::LatencySpike { factor: f } => factor = factor.saturating_mul(f),
                _ => {}
            }
        }
        let decision = if dropped {
            FaultDecision::Drop
        } else {
            FaultDecision::Deliver { delay_factor: factor }
        };
        (tick, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::random(42, 4, 1000);
        let b = FaultPlan::random(42, 4, 1000);
        assert_eq!(a, b);
        assert_eq!(a.timeline(), b.timeline());
        let c = FaultPlan::random(43, 4, 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::new(77)
            .crash(SiteId(2), 5)
            .transient_crash(SiteId(1), 0, 3)
            .drop_link(SiteId(0), SiteId(1), 0.25, 0, 100)
            .latency_spike(3, 10, 20);
        let spec = plan.to_spec();
        assert_eq!(spec, "seed=77; crash(2)@5; crash(1)@[0,3); drop(0->1,0.25)@[0,100); latency(x3)@[10,20)");
        assert_eq!(FaultPlan::parse_spec(&spec).unwrap(), plan);
        // Random plans (seeded probabilities) round-trip too.
        for seed in 0..50 {
            let p = FaultPlan::random(seed, 4, 1000);
            assert_eq!(FaultPlan::parse_spec(&p.to_spec()).unwrap(), p, "seed={seed}");
        }
        assert!(FaultPlan::parse_spec("crash(1)@0").is_err());
        assert!(FaultPlan::parse_spec("seed=1; bogus(1)@0").is_err());
        assert!(FaultPlan::parse_spec("seed=1; partition(0|2)@[5,inf)").is_err());
        assert!(FaultPlan::parse_spec("seed=1; transient(1)@[0,3)").is_err());
    }

    #[test]
    fn decision_sequence_replays() {
        let plan = FaultPlan::new(7)
            .drop_link(SiteId(0), SiteId(1), 0.5, 0, TICK_FOREVER)
            .latency_spike(3, 10, 20);
        let probes: Vec<(SiteId, SiteId)> =
            (0..50).map(|i| (SiteId(i % 3), SiteId((i + 1) % 3))).collect();
        let run = |plan: FaultPlan| {
            let inj = FaultInjector::new(plan);
            probes.iter().map(|&(s, d)| inj.decide(s, d)).collect::<Vec<_>>()
        };
        let decisions = run(plan.clone());
        assert_eq!(decisions, run(plan));
        let ticks: Vec<u64> = decisions.iter().map(|&(t, _)| t).collect();
        assert_eq!(ticks, (0..50).collect::<Vec<u64>>(), "one tick per transfer");
    }

    #[test]
    fn permanent_crash_marks_dead_and_stays_dead() {
        let plan = FaultPlan::new(1).crash(SiteId(2), 5);
        assert!(!plan.crashed(SiteId(2), 4));
        assert!(plan.crashed(SiteId(2), 5));
        assert!(plan.crashed(SiteId(2), TICK_FOREVER - 1), "a permanent crash never closes");
        assert!(!plan.crashed(SiteId(1), 5), "only the named site is down");
        assert_eq!(plan.crash_sites().collect::<Vec<_>>(), vec![SiteId(2)]);
        // The injector decides only link faults and latency: a transfer
        // into a crashed site is the network's to fail (`Network::charge`).
        let inj = FaultInjector::new(plan);
        for tick in 0..8 {
            assert_eq!(
                inj.decide(SiteId(0), SiteId(2)),
                (tick, FaultDecision::Deliver { delay_factor: 1 })
            );
        }
    }

    #[test]
    fn transient_crash_recovers() {
        let plan = FaultPlan::new(1).transient_crash(SiteId(1), 0, 3);
        assert!((0..3).all(|t| plan.crashed(SiteId(1), t)));
        assert!(!plan.crashed(SiteId(1), 3), "the window closes at its end");
        assert!(!plan.crashed(SiteId(1), 1000));
    }

    #[test]
    fn drop_probability_extremes() {
        let always = FaultPlan::new(9).drop_link(SiteId(0), SiteId(1), 1.0, 0, TICK_FOREVER);
        let inj = FaultInjector::new(always);
        for _ in 0..10 {
            assert_eq!(inj.decide(SiteId(0), SiteId(1)).1, FaultDecision::Drop);
        }
        let never = FaultPlan::new(9).drop_link(SiteId(0), SiteId(1), 0.0, 0, TICK_FOREVER);
        let inj = FaultInjector::new(never);
        for _ in 0..10 {
            assert_eq!(inj.decide(SiteId(0), SiteId(1)).1, FaultDecision::Deliver { delay_factor: 1 });
        }
    }
}
