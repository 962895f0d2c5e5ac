//! Deterministic fault injection and cluster liveness.
//!
//! The paper's headline result is a *failure inventory*: eight of 22 TPC-H
//! queries fail on the baseline stack. Reproducing the infrastructure side
//! of that inventory needs more than an ad-hoc fault closure — it needs a
//! *seeded, replayable* fault layer. A [`FaultPlan`] is a schedule of fault
//! events (link drops, transient/permanent site crashes, latency spikes,
//! network partitions) whose activation windows are expressed in *ticks* —
//! one tick per cross-site message — so the same plan produces the same
//! fault sequence on every run, independent of wall-clock jitter. The
//! per-message drop decisions of probabilistic faults are pure functions of
//! `(seed, src, dst, per-link message number)`, which makes chaos runs
//! replay exactly.
//!
//! A [`Liveness`] view accompanies the injector: crashed sites are marked
//! `Dead` (permanent) or `Suspect` (transient), and the executor's
//! failover path consults this view to route partitions to surviving
//! backup owners.

use crate::topology::SiteId;
use ic_common::hash::{FxHashMap, FxHashSet};
use parking_lot::Mutex;
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
    /// The site is unreachable: every transfer touching it fails. A
    /// `transient` crash marks the site `Suspect` and it recovers when the
    /// window closes; a permanent one marks it `Dead` forever.
    SiteCrash { site: SiteId, transient: bool },
    /// Multiply every transfer delay by `factor` (congestion).
    LatencySpike { factor: u32 },
    /// Network partition: messages crossing the boundary between `group`
    /// and the rest of the cluster are dropped (sites stay alive).
    Partition { group: Vec<SiteId> },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LinkDrop { src, dst, prob } => {
                write!(f, "drop({src}->{dst}, p={prob:.2})")
            }
            FaultKind::SiteCrash { site, transient } => {
                write!(f, "crash({site}, {})", if *transient { "transient" } else { "permanent" })
            }
            FaultKind::LatencySpike { factor } => write!(f, "latency(x{factor})"),
            FaultKind::Partition { group } => {
                let names: Vec<String> = group.iter().map(|s| s.to_string()).collect();
                write!(f, "partition({{{}}})", names.join(","))
            }
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
        self.event(FaultKind::SiteCrash { site, transient: false }, at, TICK_FOREVER)
    }

    /// Crash `site` for ticks `[start, end)`, then recover.
    pub fn transient_crash(self, site: SiteId, start: u64, end: u64) -> FaultPlan {
        self.event(FaultKind::SiteCrash { site, transient: true }, start, end)
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

    /// Partition `group` away from the rest during `[start, end)`.
    pub fn partition(self, group: Vec<SiteId>, start: u64, end: u64) -> FaultPlan {
        self.event(FaultKind::Partition { group }, start, end)
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
    /// `seed=7; crash(2)@5; transient(1)@[0,3); drop(0->1,0.25)@[0,100);
    /// latency(x3)@[10,20); partition(0|2)@[5,inf)`. The format is the
    /// on-disk representation of fuzz regression fixtures, so
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
                FaultKind::SiteCrash { site, transient: false } if ev.end == TICK_FOREVER => {
                    format!("crash({})@{}", site.0, ev.start)
                }
                FaultKind::SiteCrash { site, transient } => {
                    let tag = if *transient { "transient" } else { "crash" };
                    format!("{tag}({})@{window}", site.0)
                }
                FaultKind::LinkDrop { src, dst, prob } => {
                    format!("drop({}->{},{prob})@{window}", src.0, dst.0)
                }
                FaultKind::LatencySpike { factor } => format!("latency(x{factor})@{window}"),
                FaultKind::Partition { group } => {
                    let names: Vec<String> = group.iter().map(|s| s.0.to_string()).collect();
                    format!("partition({})@{window}", names.join("|"))
                }
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
                "crash" | "transient" => FaultKind::SiteCrash {
                    site: SiteId(parse_usize(args)?),
                    transient: name == "transient",
                },
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
                "partition" => FaultKind::Partition {
                    group: args
                        .split('|')
                        .map(|s| parse_usize(s).map(SiteId))
                        .collect::<Result<Vec<_>, _>>()?,
                },
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

/// Health of one site as observed by the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    Alive,
    /// Temporarily unreachable (transient crash); excluded from planning
    /// until it recovers.
    Suspect,
    /// Permanently crashed.
    Dead,
}

/// Cluster-wide site-health view. Sites default to `Alive`; the fault
/// injector (or an operator, via [`Liveness::mark_dead`]) transitions
/// them. The executor excludes `Suspect` and `Dead` sites when computing
/// the partition assignment for a query.
#[derive(Debug, Default)]
pub struct Liveness {
    states: Mutex<FxHashMap<SiteId, SiteState>>,
}

impl Liveness {
    pub fn state(&self, site: SiteId) -> SiteState {
        *self.states.lock().get(&site).unwrap_or(&SiteState::Alive)
    }

    pub fn is_alive(&self, site: SiteId) -> bool {
        self.state(site) == SiteState::Alive
    }

    pub fn mark(&self, site: SiteId, state: SiteState) {
        self.states.lock().insert(site, state);
    }

    pub fn mark_dead(&self, site: SiteId) {
        self.mark(site, SiteState::Dead);
    }

    pub fn mark_suspect(&self, site: SiteId) {
        // Never downgrade a permanent death to a suspicion.
        let mut states = self.states.lock();
        let entry = states.entry(site).or_insert(SiteState::Alive);
        if *entry != SiteState::Dead {
            *entry = SiteState::Suspect;
        }
    }

    pub fn mark_alive(&self, site: SiteId) {
        self.mark(site, SiteState::Alive);
    }

    /// Recover a transiently-crashed site; permanent deaths stay dead.
    pub fn revive_if_suspect(&self, site: SiteId) {
        let mut states = self.states.lock();
        if states.get(&site) == Some(&SiteState::Suspect) {
            states.insert(site, SiteState::Alive);
        }
    }

    /// Sites currently excluded from query planning (dead or suspect).
    pub fn down_sites(&self) -> FxHashSet<SiteId> {
        self.states
            .lock()
            .iter()
            .filter(|(_, st)| **st != SiteState::Alive)
            .map(|(s, _)| *s)
            .collect()
    }

    /// All non-default states, sorted by site (stable for reports).
    pub fn snapshot(&self) -> Vec<(SiteId, SiteState)> {
        let mut v: Vec<(SiteId, SiteState)> =
            self.states.lock().iter().map(|(s, st)| (*s, *st)).collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    /// Forget everything (all sites back to `Alive`).
    pub fn reset(&self) {
        self.states.lock().clear();
    }
}

/// Outcome of consulting the injector for one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Deliver, with the transfer delay multiplied by `delay_factor`.
    Deliver { delay_factor: u32 },
    /// The message is lost (link fault); the sites stay alive.
    Drop,
    /// One endpoint of the transfer has crashed.
    SiteDown(SiteId),
}

/// Replays a [`FaultPlan`] against the live message stream. The logical
/// clock advances by one tick per consulted transfer.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    clock: AtomicU64,
    link_seq: Mutex<FxHashMap<(SiteId, SiteId), u64>>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan,
            clock: AtomicU64::new(0),
            link_seq: Mutex::named(FxHashMap::default(), "fault.link_seq"),
        })
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current logical time (ticks = cross-site transfers consulted).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Decide the fate of one `src → dst` transfer, advancing the logical
    /// clock and updating `liveness` for crash faults.
    pub fn decide(&self, src: SiteId, dst: SiteId, liveness: &Liveness) -> FaultDecision {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut factor: u32 = 1;
        let mut verdict: Option<FaultDecision> = None;
        for ev in &self.plan.events {
            let active = ev.start <= tick && tick < ev.end;
            match &ev.kind {
                FaultKind::SiteCrash { site, transient } => {
                    if active && (*site == src || *site == dst) {
                        if *transient {
                            liveness.mark_suspect(*site);
                        } else {
                            liveness.mark_dead(*site);
                        }
                        if verdict.is_none() {
                            verdict = Some(FaultDecision::SiteDown(*site));
                        }
                    } else if !active && *transient && tick >= ev.end {
                        liveness.revive_if_suspect(*site);
                    }
                }
                FaultKind::Partition { group }
                    if active
                        && group.contains(&src) != group.contains(&dst)
                        && verdict.is_none() =>
                {
                    verdict = Some(FaultDecision::Drop);
                }
                FaultKind::LinkDrop { src: s, dst: d, prob }
                    if active && *s == src && *d == dst =>
                {
                    let n = {
                        let mut seq = self.link_seq.lock();
                        let e = seq.entry((src, dst)).or_insert(0);
                        let n = *e;
                        *e += 1;
                        n
                    };
                    if link_drop_decision(self.plan.seed, src, dst, n, *prob)
                        && verdict.is_none()
                    {
                        verdict = Some(FaultDecision::Drop);
                    }
                }
                FaultKind::LatencySpike { factor: f } if active => {
                    factor = factor.saturating_mul(*f);
                }
                _ => {}
            }
        }
        verdict.unwrap_or(FaultDecision::Deliver { delay_factor: factor })
    }

    /// Recompute every crash-affected site's state at the current tick —
    /// called before (re)planning so recovered sites rejoin and sites
    /// crashed by schedule (but not yet observed by a message) are
    /// excluded.
    pub fn refresh(&self, liveness: &Liveness) {
        let tick = self.now();
        // Per site: does any active permanent / active transient crash
        // window cover the current tick?
        let mut permanent: FxHashSet<SiteId> = FxHashSet::default();
        let mut transient: FxHashSet<SiteId> = FxHashSet::default();
        let mut mentioned: FxHashSet<SiteId> = FxHashSet::default();
        for ev in &self.plan.events {
            if let FaultKind::SiteCrash { site, transient: t } = ev.kind {
                mentioned.insert(site);
                if ev.start <= tick && tick < ev.end {
                    if t {
                        transient.insert(site);
                    } else {
                        permanent.insert(site);
                    }
                }
            }
        }
        for site in mentioned {
            if permanent.contains(&site) {
                liveness.mark_dead(site);
            } else if transient.contains(&site) {
                liveness.mark_suspect(site);
            } else {
                liveness.revive_if_suspect(site);
            }
        }
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
            .latency_spike(3, 10, 20)
            .partition(vec![SiteId(0), SiteId(2)], 5, TICK_FOREVER);
        let spec = plan.to_spec();
        assert_eq!(FaultPlan::parse_spec(&spec).unwrap(), plan);
        // Random plans (seeded probabilities) round-trip too.
        for seed in 0..50 {
            let p = FaultPlan::random(seed, 4, 1000);
            assert_eq!(FaultPlan::parse_spec(&p.to_spec()).unwrap(), p, "seed={seed}");
        }
        assert!(FaultPlan::parse_spec("crash(1)@0").is_err());
        assert!(FaultPlan::parse_spec("seed=1; bogus(1)@0").is_err());
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
            let live = Liveness::default();
            probes.iter().map(|&(s, d)| inj.decide(s, d, &live)).collect::<Vec<_>>()
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn permanent_crash_marks_dead_and_stays_dead() {
        let plan = FaultPlan::new(1).crash(SiteId(2), 5);
        let inj = FaultInjector::new(plan);
        let live = Liveness::default();
        for _ in 0..5 {
            assert_eq!(
                inj.decide(SiteId(0), SiteId(2), &live),
                FaultDecision::Deliver { delay_factor: 1 }
            );
        }
        assert_eq!(inj.decide(SiteId(0), SiteId(2), &live), FaultDecision::SiteDown(SiteId(2)));
        assert_eq!(live.state(SiteId(2)), SiteState::Dead);
        inj.refresh(&live);
        assert_eq!(live.state(SiteId(2)), SiteState::Dead);
        assert_eq!(inj.decide(SiteId(2), SiteId(1), &live), FaultDecision::SiteDown(SiteId(2)));
    }

    #[test]
    fn transient_crash_recovers() {
        let plan = FaultPlan::new(1).transient_crash(SiteId(1), 0, 3);
        let inj = FaultInjector::new(plan);
        let live = Liveness::default();
        assert_eq!(inj.decide(SiteId(0), SiteId(1), &live), FaultDecision::SiteDown(SiteId(1)));
        assert_eq!(live.state(SiteId(1)), SiteState::Suspect);
        // Burn ticks past the window on an unrelated link.
        for _ in 0..4 {
            inj.decide(SiteId(0), SiteId(2), &live);
        }
        inj.refresh(&live);
        assert_eq!(live.state(SiteId(1)), SiteState::Alive);
    }

    #[test]
    fn partition_cuts_cross_group_links_only() {
        let plan = FaultPlan::new(1).partition(vec![SiteId(0), SiteId(1)], 0, TICK_FOREVER);
        let inj = FaultInjector::new(plan);
        let live = Liveness::default();
        assert_eq!(inj.decide(SiteId(0), SiteId(2), &live), FaultDecision::Drop);
        assert_eq!(
            inj.decide(SiteId(0), SiteId(1), &live),
            FaultDecision::Deliver { delay_factor: 1 }
        );
        assert_eq!(inj.decide(SiteId(3), SiteId(1), &live), FaultDecision::Drop);
        // Sites stay alive under a pure partition.
        assert!(live.down_sites().is_empty());
    }

    #[test]
    fn drop_probability_extremes() {
        let always = FaultPlan::new(9).drop_link(SiteId(0), SiteId(1), 1.0, 0, TICK_FOREVER);
        let inj = FaultInjector::new(always);
        let live = Liveness::default();
        for _ in 0..10 {
            assert_eq!(inj.decide(SiteId(0), SiteId(1), &live), FaultDecision::Drop);
        }
        let never = FaultPlan::new(9).drop_link(SiteId(0), SiteId(1), 0.0, 0, TICK_FOREVER);
        let inj = FaultInjector::new(never);
        for _ in 0..10 {
            assert_eq!(
                inj.decide(SiteId(0), SiteId(1), &live),
                FaultDecision::Deliver { delay_factor: 1 }
            );
        }
    }

    #[test]
    fn liveness_transitions() {
        let live = Liveness::default();
        assert!(live.is_alive(SiteId(0)));
        live.mark_suspect(SiteId(0));
        assert_eq!(live.state(SiteId(0)), SiteState::Suspect);
        live.revive_if_suspect(SiteId(0));
        assert!(live.is_alive(SiteId(0)));
        live.mark_dead(SiteId(1));
        live.mark_suspect(SiteId(1)); // must not downgrade
        assert_eq!(live.state(SiteId(1)), SiteState::Dead);
        live.revive_if_suspect(SiteId(1));
        assert_eq!(live.state(SiteId(1)), SiteState::Dead);
        assert_eq!(live.down_sites().len(), 1);
        live.reset();
        assert!(live.down_sites().is_empty());
    }
}
