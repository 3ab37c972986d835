//! The measurement loop shared by the batch workloads (`replay`,
//! `saturated`, `fleet`): repeated set-up, then rounds of every cell until
//! the time budget is spent, then medians.
//!
//! On a batch workload a *command* is one cell run — what a user starts with
//! `psbench simulate` or `psbench metasim` — so `capacity_cps` is cells
//! completed per wall second.

use crate::measure::{median, peak_rss_mb, quantile, reset_peak_rss, Report};
use crate::spans::{Timed, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times; return the last value and each
/// repeat's duration in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut value = None;
    for _ in 0..SETUP_REPEATS {
        drop(value.take());
        let t = Instant::now();
        value = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (value.expect("at least one set-up"), times)
}

/// Per-layer sums of one traced round, plus every react duration by
/// scheduler.
#[derive(Default)]
pub struct Layers {
    round: BTreeMap<String, f64>,
    rounds: Vec<BTreeMap<String, f64>>,
    reacts: BTreeMap<String, Vec<u32>>,
}

impl Layers {
    /// Add `v` to metric `name` of the current round.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.round.entry(name.into()).or_default() += v;
    }

    /// Fold a decorator's react timings into scheduler `sched`'s layer.
    pub fn add_reacts(&mut self, sched: &str, timed: &Timed) {
        self.add(format!("sched.reacts.{sched}"), timed.reacts.len() as f64);
        self.add(format!("sched.react_s.{sched}"), timed.react_seconds());
        self.reacts
            .entry(sched.to_string())
            .or_default()
            .extend_from_slice(&timed.reacts);
    }

    /// Close the current round.
    pub fn end_round(&mut self) {
        self.rounds.push(std::mem::take(&mut self.round));
    }

    /// The median over rounds of metric `name` (rounds without it count 0).
    pub fn median(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Report the median of every declared per-round metric (helper sums
    /// such as record counts stay internal), and react percentiles.
    pub fn report(&self, report: &mut Report) {
        let names: std::collections::BTreeSet<&String> =
            self.rounds.iter().flat_map(|r| r.keys()).collect();
        for name in names {
            if let Some(unit) = crate::unit_of(name) {
                report.metric(name.clone(), self.median(name), unit, self.rounds.len());
            }
        }
        for (sched, ns) in &self.reacts {
            let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
            report.metric(
                format!("sched.react_p99_us.{sched}"),
                quantile(&us, 0.99),
                "us",
                us.len(),
            );
        }
    }
}

/// One measured round: each successful cell run's completed jobs and wall
/// time in seconds, in cell order, and the round's peak resident memory.
#[derive(Default)]
pub struct Round {
    /// (jobs completed, wall seconds) of each cell run.
    pub cells: Vec<(usize, f64)>,
    /// Peak resident set size during the round, in MiB.
    pub peak_rss_mb: f64,
}

impl Round {
    /// Jobs per second of the round: the geometric mean over its cells of
    /// each cell's throughput, so every cell weighs the same however long
    /// it runs.
    fn jobs_per_s(&self) -> f64 {
        let logs: f64 = self
            .cells
            .iter()
            .map(|&(jobs, wall)| (jobs as f64 / wall).ln())
            .sum();
        (logs / self.cells.len() as f64).exp()
    }

    fn wall(&self) -> f64 {
        self.cells.iter().map(|&(_, wall)| wall).sum()
    }
}

/// Round after round until `seconds` have passed (at least `MIN_ROUNDS`).
/// In a traced run rounds alternate untraced and traced, so the traced
/// run measures its own overhead; `round(traced, tracer, layers)` runs one.
pub fn measure(
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    mut round: impl FnMut(bool, &mut Tracer, &mut Layers) -> Round,
) -> (Vec<Round>, Vec<Round>) {
    const MIN_ROUNDS: usize = 4;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let trace_this = tracer.on() && i % 2 == 1;
        let mut off = Tracer::new(false);
        let tr = if trace_this { &mut *tracer } else { &mut off };
        let span = tr.enter(format!("round{i}"));
        reset_peak_rss();
        let mut r = round(trace_this, tr, layers);
        r.peak_rss_mb = peak_rss_mb();
        tr.exit(span);
        if trace_this {
            layers.end_round();
            traced.push(r);
        } else {
            plain.push(r);
        }
        i += 1;
    }
    (plain, traced)
}

/// Report the end-to-end metrics of an untraced batch run. Rounds in which
/// a cell failed are left out, so every round has the same cells.
pub fn report_end_to_end(report: &mut Report, setup: &[f64], rounds: &[Round], cells: usize) {
    let rounds: Vec<&Round> = rounds.iter().filter(|r| r.cells.len() == cells).collect();
    if rounds.is_empty() {
        report.op(false, "no round completed every cell");
        return;
    }
    let jps: Vec<f64> = rounds.iter().map(|r| r.jobs_per_s()).collect();
    let cps: Vec<f64> = rounds
        .iter()
        .map(|r| r.cells.len() as f64 / r.wall())
        .collect();
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    report.metric("setup_s", median(setup), "s", setup.len());
    report.metric("jobs_per_s", median(&jps), "jobs/s", jps.len());
    report.metric("capacity_cps", median(&cps), "commands/s", cps.len());
    report.metric("peak_rss_mb", median(&rss), "MB", rss.len());
}

/// Report `trace.overhead`: traced ÷ untraced median jobs per second.
pub fn report_overhead(report: &mut Report, plain: &[Round], traced: &[Round]) {
    let p: Vec<f64> = plain.iter().map(Round::jobs_per_s).collect();
    let t: Vec<f64> = traced.iter().map(Round::jobs_per_s).collect();
    report.metric("trace.overhead", median(&t) / median(&p), "ratio", t.len());
}
