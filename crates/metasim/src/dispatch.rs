//! Cross-site dispatch policies for the sharded metasystem.
//!
//! The dispatcher runs **only on the driving thread**, at epoch boundaries,
//! over shard state that is quiescent (no shard advances mid-dispatch). All
//! four policies are therefore deterministic by construction: the same
//! arrival stream and fleet state produce the same placements for any thread
//! count.
//!
//! Least-pressure dispatch is the load-adaptive policy built on the backlog
//! index's O(1) aggregates: it keeps a lazy min-heap of `(pressure, site)`
//! keys, re-validating entries on pop against the shard's current pressure
//! and reinserting stale ones — O(log sites) amortized per dispatch instead
//! of an O(sites) argmin scan per job, which is the difference between 10⁹
//! and ~10⁷ comparisons at 1,000 sites × 1M jobs.

use crate::shard::Shard;
use psbench_sim::SimJob;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

/// How the metascheduler routes each arriving job to a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle over the up sites (the naive baseline).
    RoundRobin,
    /// Route to the site with the least demanded-work pressure, read from the
    /// backlog index's O(1) aggregates through a lazy min-heap.
    LeastPressure,
    /// Pin each user's jobs to a home site by hash (data-affinity: inputs
    /// staged where the user's previous jobs ran), falling over to the next
    /// up site only during outages.
    Affinity,
    /// Reservation-based co-allocation: probe a deterministic power-of-k
    /// choice of candidate sites' advisory calendars and book the earliest
    /// feasible window.
    Reserve,
}

impl DispatchPolicy {
    /// All policies, for sweeps and benches.
    pub fn all() -> &'static [DispatchPolicy] {
        &[
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastPressure,
            DispatchPolicy::Affinity,
            DispatchPolicy::Reserve,
        ]
    }

    /// Short name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastPressure => "least-pressure",
            DispatchPolicy::Affinity => "affinity",
            DispatchPolicy::Reserve => "reserve",
        }
    }

    /// Parse a CLI name (the inverse of [`DispatchPolicy::name`]).
    pub fn parse(name: &str) -> Option<DispatchPolicy> {
        DispatchPolicy::all()
            .iter()
            .copied()
            .find(|p| p.name() == name)
    }
}

/// How many candidate sites [`DispatchPolicy::Reserve`] probes per job.
const RESERVE_CHOICES: usize = 4;

/// How far ahead a reservation probe searches before giving up and treating
/// the candidate as unavailable (two weeks, matching the analytic sites'
/// search horizon).
const RESERVE_HORIZON: f64 = 14.0 * 24.0 * 3600.0;

fn splitmix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The metascheduler's routing state: one dispatcher drives one fleet.
#[derive(Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    rr: usize,
    /// Lazy min-heap of `(pressure bits, site)` for [`DispatchPolicy::LeastPressure`];
    /// entries are validated on pop and reinserted when stale.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Dispatcher {
    /// A dispatcher for the given policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher {
            policy,
            rr: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// The policy this dispatcher routes by.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Refresh per-epoch routing state after the fleet advanced: rebuild the
    /// pressure heap from the shards' current aggregates. Call at every epoch
    /// boundary before dispatching.
    pub fn begin_epoch(&mut self, shards: &[Shard], down: &[bool]) {
        if self.policy == DispatchPolicy::LeastPressure {
            self.heap.clear();
            for (i, shard) in shards.iter().enumerate() {
                if !down[i] {
                    self.heap.push(Reverse((shard.pressure_bits(), i as u32)));
                }
            }
        }
    }

    /// Route one job: pick an up site, book any advisory reservation, and
    /// return the chosen shard index — or `None` when every site is down
    /// (the caller parks the job until a site comes back).
    ///
    /// The caller must submit the job to the returned shard and then call
    /// [`Dispatcher::note_submitted`] so pressure-tracking state stays exact.
    pub fn pick(
        &mut self,
        shards: &mut [Shard],
        down: &[bool],
        job: &SimJob,
        now: f64,
    ) -> Option<usize> {
        let n = shards.len();
        if n == 0 || down.iter().all(|&d| d) {
            return None;
        }
        match self.policy {
            DispatchPolicy::RoundRobin => {
                for _ in 0..n {
                    let i = self.rr % n;
                    self.rr += 1;
                    if !down[i] {
                        return Some(i);
                    }
                }
                None
            }
            DispatchPolicy::LeastPressure => {
                while let Some(Reverse((bits, site))) = self.heap.pop() {
                    let i = site as usize;
                    if down[i] {
                        continue;
                    }
                    let current = shards[i].pressure_bits();
                    if current == bits {
                        return Some(i);
                    }
                    // Stale entry: reinsert with the fresh key and retry.
                    self.heap.push(Reverse((current, site)));
                }
                // Heap exhausted (e.g. sites came up since begin_epoch):
                // fall back to a scan of the up sites.
                (0..n)
                    .filter(|&i| !down[i])
                    .min_by_key(|&i| (shards[i].pressure_bits(), i))
            }
            DispatchPolicy::Affinity => {
                let key = job.user.map(|u| u as u64 + 1).unwrap_or(job.id << 1);
                let home = (splitmix64(key) % n as u64) as usize;
                (0..n).map(|d| (home + d) % n).find(|&i| !down[i])
            }
            DispatchPolicy::Reserve => {
                let mut best: Option<(u64, u32, usize)> = None;
                for c in 0..RESERVE_CHOICES {
                    let cand = (splitmix64(job.id ^ ((c as u64) << 48)) % n as u64) as usize;
                    if down[cand] {
                        continue;
                    }
                    let shard = &shards[cand];
                    let (procs, dur) = reserve_request(shard, job);
                    let start = shard
                        .calendar
                        .earliest_window(now, dur, procs, shard.spec.procs)
                        .unwrap_or(f64::MAX);
                    let key = (start.to_bits(), shard.spec.id, cand);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                let (start_bits, _, chosen) = best?;
                let shard = &mut shards[chosen];
                let (procs, dur) = reserve_request(shard, job);
                let start = f64::from_bits(start_bits);
                if start < f64::MAX {
                    // The probe only returns windows that fit, so the booking
                    // needs no capacity check of its own.
                    debug_assert_eq!(
                        shard
                            .calendar
                            .earliest_window(start, dur, procs, shard.spec.procs),
                        Some(start),
                        "probed window no longer fits"
                    );
                    shard.calendar.book(start, start + dur, procs);
                }
                Some(chosen)
            }
        }
    }

    /// Record that a job was submitted to shard `i`, keeping the pressure
    /// heap in sync with the shard's now-larger inflight demand.
    pub fn note_submitted(&mut self, shards: &[Shard], i: usize) {
        if self.policy == DispatchPolicy::LeastPressure {
            self.heap
                .push(Reverse((shards[i].pressure_bits(), i as u32)));
        }
    }
}

/// The processors and seconds a reserve-dispatched `job` asks of `shard`:
/// its request clamped to the machine, and its estimate at the shard's speed
/// (at least one second).
fn reserve_request(shard: &Shard, job: &SimJob) -> (u32, f64) {
    let procs = job.procs.min(shard.spec.procs).max(1);
    let dur = shard.scaled_runtime(job.estimate.max(job.work)).max(1.0);
    (procs, dur)
}

/// One shard's advisory reservation calendar: the step function of
/// processors promised over time, kept as a load change at each breakpoint.
///
/// Booking a window adds its processors at `start` and removes them at
/// `end`; expiring folds every breakpoint up to the epoch boundary into one
/// base load, so the index holds only the breakpoints still ahead. A probe
/// therefore costs O(log R) plus the breakpoints it passes, allocates
/// nothing, and never re-sorts. Probes and bookings must not reach back
/// before the last expiry (the epoch loop only looks forward).
#[derive(Debug, Default)]
pub(crate) struct AdvisoryCalendar {
    /// Processors promised at the last expiry instant and until the first
    /// breakpoint after it.
    base: i64,
    /// Load change at each breakpoint, keyed by the time's IEEE bits (times
    /// are never negative, so bit order is time order). Changes that cancel
    /// out are removed, so no entry is zero.
    deltas: BTreeMap<u64, i64>,
}

impl AdvisoryCalendar {
    /// Promise `procs` processors for `[start, end)`. The caller has found
    /// the window with [`AdvisoryCalendar::earliest_window`], so it fits.
    pub(crate) fn book(&mut self, start: f64, end: f64, procs: u32) {
        self.add(start, i64::from(procs));
        self.add(end, -i64::from(procs));
    }

    fn add(&mut self, t: f64, delta: i64) {
        debug_assert!(
            t >= 0.0 && t.is_sign_positive(),
            "breakpoint at negative time {t}"
        );
        match self.deltas.entry(t.to_bits()) {
            Entry::Vacant(e) => {
                e.insert(delta);
            }
            Entry::Occupied(mut e) => {
                *e.get_mut() += delta;
                if *e.get() == 0 {
                    e.remove();
                }
            }
        }
    }

    /// Fold every breakpoint at or before `now` into the base load.
    pub(crate) fn expire(&mut self, now: f64) {
        while let Some(e) = self.deltas.first_entry() {
            if f64::from_bits(*e.key()) > now {
                break;
            }
            self.base += e.remove();
        }
    }

    /// The earliest window at or after `from` where `procs` more processors
    /// fit under `cap` for `dur > 0` seconds, or `None` when nothing fits
    /// within [`RESERVE_HORIZON`] of `from`.
    ///
    /// One sweep over the breakpoints in time order, starting from the load
    /// at `from` (the base plus every change at or before it): a window is
    /// feasible iff every breakpoint interval it covers is, so the sweep
    /// keeps the earliest still-open candidate start and restarts it at the
    /// next breakpoint past any overloaded interval.
    pub(crate) fn earliest_window(&self, from: f64, dur: f64, procs: u32, cap: u32) -> Option<f64> {
        if procs > cap {
            return None;
        }
        let limit = i64::from(cap - procs);
        let bits = from.to_bits();
        let at_from: i64 = self.deltas.range(..=bits).map(|(_, &d)| d).sum();
        let ahead = self.deltas.range((Excluded(bits), Unbounded));
        let mut steps = std::iter::once((from, at_from))
            .chain(ahead.map(|(&t, &d)| (f64::from_bits(t), d)))
            .peekable();
        let mut load = self.base;
        let mut candidate = from;
        while let Some((t, delta)) = steps.next() {
            // A feasible run long enough to hold the whole window ends the search.
            if t - candidate >= dur {
                return Some(candidate);
            }
            load += delta;
            if load > limit {
                // Overloaded from t until the next breakpoint: any window
                // overlapping it is infeasible, so the candidate restarts at
                // the next load change (none left: a corrupt calendar).
                candidate = steps.peek()?.0;
                if candidate - from > RESERVE_HORIZON {
                    return None;
                }
            }
        }
        // Past the last breakpoint the calendar is empty.
        Some(candidate)
    }

    /// Breakpoints still ahead of the last expiry.
    #[cfg(test)]
    fn breakpoints(&self) -> usize {
        self.deltas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{standard_shard_fleet, Shard};
    use psbench_sim::Cluster;

    fn fleet(n: usize) -> Vec<Shard> {
        standard_shard_fleet(n, "fcfs")
            .into_iter()
            .map(|s| Shard::new(s).unwrap())
            .collect()
    }

    #[test]
    fn policy_names_round_trip() {
        for p in DispatchPolicy::all() {
            assert_eq!(DispatchPolicy::parse(p.name()), Some(*p));
        }
        assert_eq!(DispatchPolicy::parse("nonsense"), None);
    }

    #[test]
    fn round_robin_cycles_and_skips_down_sites() {
        let mut shards = fleet(4);
        let mut down = vec![false; 4];
        down[1] = true;
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let job = SimJob::rigid(1, 0.0, 10.0, 8);
        let picks: Vec<usize> = (0..6)
            .map(|_| d.pick(&mut shards, &down, &job, 0.0).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn least_pressure_prefers_the_emptiest_site() {
        let mut shards = fleet(3);
        let down = vec![false; 3];
        // Load site 0 heavily.
        for i in 0..20u64 {
            let job = SimJob::rigid(1000 + i, 0.0, 1e5, 64);
            shards[0].submit(&job, 1000 + i, 0.0).unwrap();
        }
        let mut d = Dispatcher::new(DispatchPolicy::LeastPressure);
        d.begin_epoch(&shards, &down);
        let job = SimJob::rigid(1, 0.0, 10.0, 8);
        let pick = d.pick(&mut shards, &down, &job, 0.0).unwrap();
        assert_ne!(pick, 0, "loaded site must lose");
        // Submitting through the protocol keeps the heap exact.
        shards[pick].submit(&job, 1, 0.0).unwrap();
        d.note_submitted(&shards, pick);
    }

    #[test]
    fn least_pressure_heap_converges_under_staleness() {
        let mut shards = fleet(5);
        let down = vec![false; 5];
        let mut d = Dispatcher::new(DispatchPolicy::LeastPressure);
        d.begin_epoch(&shards, &down);
        // Mutate pressures behind the heap's back, then dispatch many jobs:
        // every pick must still return a valid up site.
        for i in 0..50u64 {
            let job = SimJob::rigid(i + 1, 0.0, 100.0, 32);
            let pick = d.pick(&mut shards, &down, &job, 0.0).unwrap();
            shards[pick].submit(&job, i + 1, 0.0).unwrap();
            d.note_submitted(&shards, pick);
        }
        let dispatched: u64 = shards.iter().map(|s| s.inflight).sum();
        assert_eq!(dispatched, 50 * 32);
    }

    #[test]
    fn affinity_is_sticky_per_user() {
        let mut shards = fleet(8);
        let down = vec![false; 8];
        let mut d = Dispatcher::new(DispatchPolicy::Affinity);
        let job_a = SimJob::rigid(1, 0.0, 10.0, 4).with_user(7);
        let job_b = SimJob::rigid(2, 0.0, 10.0, 4).with_user(7);
        let a = d.pick(&mut shards, &down, &job_a, 0.0).unwrap();
        let b = d.pick(&mut shards, &down, &job_b, 0.0).unwrap();
        assert_eq!(a, b, "same user, same home site");
        // When the home site is down, the user fails over deterministically.
        let mut down2 = down.clone();
        down2[a] = true;
        let c = d.pick(&mut shards, &down2, &job_a, 0.0).unwrap();
        assert_eq!(c, (a + 1) % 8);
    }

    #[test]
    fn reserve_books_advisory_windows() {
        let mut shards = fleet(4);
        let down = vec![false; 4];
        let mut d = Dispatcher::new(DispatchPolicy::Reserve);
        for i in 0..12u64 {
            let job = SimJob::rigid(i + 1, 0.0, 5000.0, 64);
            let pick = d.pick(&mut shards, &down, &job, 0.0).unwrap();
            shards[pick].submit(&job, i + 1, 0.0).unwrap();
            d.note_submitted(&shards, pick);
        }
        let booked: usize = shards.iter().map(|s| s.calendar.breakpoints()).sum();
        assert!(booked > 0, "reserve policy must book windows");
    }

    /// The sort-sweep the calendar index replaced, kept as its oracle: it
    /// collects the reservations still open at `from` (starts clamped to
    /// `from`), sorts their breakpoints and sweeps them with the same
    /// candidate-restart rule.
    fn sort_sweep_oracle(calendar: &Cluster, from: f64, dur: f64, procs: u32) -> Option<f64> {
        let cap = calendar.total_procs;
        if procs > cap {
            return None;
        }
        let mut events: Vec<(f64, i64)> = Vec::new();
        for r in &calendar.reservations {
            if r.end <= from {
                continue;
            }
            events.push((r.start.max(from), r.procs as i64));
            events.push((r.end, -(r.procs as i64)));
        }
        if events.is_empty() {
            return Some(from);
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut load = 0i64;
        let mut candidate = from;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            if t - candidate >= dur {
                return Some(candidate);
            }
            while i < events.len() && events[i].0 == t {
                load += events[i].1;
                i += 1;
            }
            if load + procs as i64 > cap as i64 {
                candidate = events.get(i)?.0;
                if candidate - from > RESERVE_HORIZON {
                    return None;
                }
            }
        }
        Some(candidate)
    }

    /// An advisory calendar and a [`Cluster`] mirror holding the same
    /// bookings: a window is booked in both or in neither.
    struct Mirrored {
        calendar: AdvisoryCalendar,
        mirror: Cluster,
    }

    impl Mirrored {
        fn new(cap: u32) -> Self {
            Mirrored {
                calendar: AdvisoryCalendar::default(),
                mirror: Cluster::new(cap),
            }
        }

        fn book(&mut self, start: f64, end: f64, procs: u32) -> bool {
            let booked = self.mirror.try_reserve(start, end, procs).is_some();
            if booked {
                self.calendar.book(start, end, procs);
            }
            booked
        }

        fn expire(&mut self, now: f64) {
            self.calendar.expire(now);
            self.mirror.expire_reservations(now);
        }

        /// Probe both; the index must answer bit-for-bit like the oracle.
        fn probe(&self, from: f64, dur: f64, procs: u32) -> Option<f64> {
            let cap = self.mirror.total_procs;
            let got = self.calendar.earliest_window(from, dur, procs, cap);
            let want = sort_sweep_oracle(&self.mirror, from, dur, procs);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "probe from {from} for {procs} procs x {dur} s: index {got:?}, oracle {want:?}"
            );
            got
        }
    }

    #[test]
    fn earliest_window_sweep_matches_the_calendar_oracle() {
        // The probe must agree with the cluster's own max_reserved_during at
        // every breakpoint-derived candidate start, on a deterministic
        // pseudo-random calendar.
        let cap = fleet(1)[0].spec.procs;
        let mut cal = Mirrored::new(cap);
        let mut h = 12345u64;
        for _ in 0..60 {
            h = splitmix64(h);
            let start = (h % 100_000) as f64;
            let dur = 600.0 + (h % 7) as f64 * 3600.0;
            let procs = 1 + (h % (cap as u64 / 2)) as u32;
            cal.book(start, start + dur, procs);
        }
        let calendar = &cal.mirror;
        for probe in 0..40u64 {
            let from = (probe * 2_500) as f64;
            let dur = 1_800.0 + (probe % 5) as f64 * 3_600.0;
            let procs = 1 + (splitmix64(probe) % cap as u64) as u32;
            let got = cal.probe(from, dur, procs);
            if let Some(t) = got {
                assert!(t >= from);
                assert!(
                    calendar.max_reserved_during(t, t + dur) + procs <= cap,
                    "window at {t} overbooks"
                );
                // Earliest: every breakpoint-derived start strictly before it
                // must be infeasible (starts between breakpoints can only see
                // equal or higher load than the breakpoint preceding them).
                let mut earlier: Vec<f64> = calendar
                    .reservations
                    .iter()
                    .map(|r| r.end)
                    .filter(|&e| e > from && e < t)
                    .collect();
                earlier.push(from);
                for &s in earlier.iter().filter(|&&s| s < t) {
                    assert!(
                        calendar.max_reserved_during(s, s + dur) + procs > cap,
                        "earlier start {s} was feasible but sweep chose {t}"
                    );
                }
            } else {
                assert!(
                    calendar.max_reserved_during(from, from + dur) + procs > cap,
                    "sweep gave up but the window at {from} was free"
                );
            }
        }
    }

    #[test]
    fn calendar_edge_cases_match_the_oracle() {
        let mut cal = Mirrored::new(64);
        // Zero-net breakpoint at 100: [0, 100) and [100, 200) of equal width.
        assert!(cal.book(0.0, 100.0, 64) && cal.book(100.0, 200.0, 64));
        assert_eq!(cal.calendar.breakpoints(), 2, "the +64/-64 at 100 cancel");
        assert_eq!(cal.probe(0.0, 10.0, 1), Some(200.0));
        assert_eq!(cal.probe(100.0, 10.0, 1), Some(200.0));
        assert_eq!(cal.probe(0.0, 10.0, 65), None, "procs > cap");
        // A window ending a quarter second past the expiry boundary still
        // blocks probes from that boundary.
        assert!(cal.book(200.0, 300.25, 40));
        cal.expire(300.0);
        assert_eq!(cal.probe(300.0, 10.0, 30), Some(300.25));
        assert_eq!(cal.probe(300.0, 10.0, 24), Some(300.0));
        // A probe from well past the last expiry folds everything before it.
        assert!(cal.book(5_000.0, 6_000.0, 64));
        assert_eq!(cal.probe(5_500.0, 10.0, 1), Some(6_000.0));
        // A full machine for longer than the horizon: nothing fits in reach.
        assert!(cal.book(7_000.0, 7_000.0 + 2.0 * RESERVE_HORIZON, 64));
        assert_eq!(cal.probe(7_000.0, 10.0, 1), None);
        assert_eq!(cal.probe(6_000.0, 1_000.0, 1), Some(6_000.0));
        assert_eq!(cal.probe(6_000.0, 1_001.0, 1), None);
    }

    #[test]
    fn calendar_index_matches_the_sort_sweep_oracle_under_random_use() {
        // Random book / expire / probe sequences in epoch-loop order. Times
        // sit on a one-minute grid so breakpoints, probe starts and expiry
        // instants coincide often.
        let mut stats = [0usize; 4]; // probes, found, past horizon, zero-net pairs
        for seed in 0..40u64 {
            let mut h = splitmix64(seed);
            let mut rand = |m: u64| {
                h = splitmix64(h);
                h % m
            };
            let cap = [64u32, 128, 96][seed as usize % 3];
            let epoch = [600.0, 3600.0][seed as usize % 2];
            let mut cal = Mirrored::new(cap);
            let mut now = 0.0f64;
            for _ in 0..300 {
                match rand(20) {
                    // Dispatch: probe at the boundary and book what it found
                    // — the booking must fit, as `pick` assumes.
                    0..=9 => {
                        let procs = 1 + rand(cap as u64 + 8) as u32; // some > cap
                        let mut dur = 60.0 * (1 + rand(600)) as f64;
                        match rand(4) {
                            0 => dur *= 1.37, // off the grid
                            1 => dur += 0.25, // ends just past a boundary
                            _ => {}
                        }
                        stats[0] += 1;
                        if let Some(start) = cal.probe(now, dur, procs) {
                            stats[1] += 1;
                            assert!(
                                cal.book(start, start + dur, procs),
                                "probed window overbooks"
                            );
                        }
                    }
                    // Zero-net breakpoint: one window ends exactly where an
                    // equal-width one starts.
                    10..=12 => {
                        let a = now + 60.0 * rand(200) as f64;
                        let w = 60.0 * (1 + rand(100)) as f64;
                        let procs = 1 + rand(cap as u64) as u32;
                        if cal.book(a, a + w, procs) && cal.book(a + w, a + 2.0 * w, procs) {
                            stats[3] += 1;
                        }
                    }
                    // A long full-machine window: probes that must overlap
                    // it restart past the horizon.
                    13 => {
                        let a = now + 60.0 * rand(100) as f64;
                        cal.book(a, a + RESERVE_HORIZON * 1.5, cap);
                        let hit = cal.probe(a, 3600.0, 1 + rand(cap as u64) as u32);
                        stats[2] += usize::from(hit.is_none());
                    }
                    // Epoch boundary: expire, then sometimes skip many
                    // epochs, so the next probe starts well past the expiry.
                    _ => {
                        let skip = if rand(3) == 0 { 1 + rand(400) } else { 1 };
                        cal.expire(now + epoch);
                        now += epoch * skip as f64;
                    }
                }
            }
        }
        let [probes, found, horizon, zero_net] = stats;
        assert!(probes > 3000 && found > 1000, "{stats:?}");
        assert!(found < probes, "some probes must fail (procs > cap)");
        assert!(horizon > 0 && zero_net > 0, "{stats:?}");
    }

    #[test]
    fn all_sites_down_parks_the_job() {
        let mut shards = fleet(2);
        let down = vec![true; 2];
        for p in DispatchPolicy::all() {
            let mut d = Dispatcher::new(*p);
            d.begin_epoch(&shards, &down);
            let job = SimJob::rigid(1, 0.0, 10.0, 4);
            assert_eq!(d.pick(&mut shards, &down, &job, 0.0), None, "{}", p.name());
        }
    }
}
