//! `fleet`: the sharded metasystem. `run_metasystem` routes a Lublin '99
//! stream (interarrivals compressed by the fleet size) across a 16-site
//! `standard_shard_fleet` of EASY shards on two threads, once under
//! least-pressure dispatch and once under reserve dispatch.

use crate::batch::{self, Layers, Round};
use crate::expected;
use crate::inputs::{derive_seed, lublin};
use crate::measure::Report;
use crate::spans::Tracer;
use crate::Args;
use psbench_metasim::{
    run_metasystem, standard_shard_fleet, DispatchPolicy, MetaConfig, MetaResult, ShardSpec,
};
use psbench_sim::SimJob;
use std::time::Instant;

const SITES: usize = 16;
const THREADS: usize = 2;

/// (dispatch policy, jobs in a measured run, jobs in a golden cell).
const CELLS: [(DispatchPolicy, usize, usize); 2] = [
    (DispatchPolicy::LeastPressure, 200_000, 10_000),
    (DispatchPolicy::Reserve, 50_000, 10_000),
];

/// The stream `psbench metasim` routes: Lublin '99 on the reference
/// machine, interarrivals compressed by `1/sites`, renumbered onto unique
/// ids with no dependencies.
fn stream(jobs: usize, seed: u64) -> Vec<SimJob> {
    let mut log = lublin(jobs, seed);
    log.scale_interarrivals(1.0 / SITES as f64);
    let mut jobs = SimJob::from_log(&log);
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64 + 1;
        job.preceding = None;
        job.think_time = 0.0;
    }
    jobs
}

struct Setup {
    specs: Vec<ShardSpec>,
    streams: Vec<Vec<SimJob>>,
}

fn setup(golden: bool, seed: u64) -> Setup {
    Setup {
        specs: standard_shard_fleet(SITES, "easy"),
        streams: CELLS
            .iter()
            .enumerate()
            .map(|(i, &(_, n, g))| {
                stream(if golden { g } else { n }, derive_seed(seed, 5 + i as u64))
            })
            .collect(),
    }
}

/// Route `jobs` under `dispatch` on `threads` threads; returns the result
/// and the wall time, after checking every job was dispatched and finished.
fn run_cell(
    specs: &[ShardSpec],
    jobs: &[SimJob],
    dispatch: DispatchPolicy,
    threads: usize,
) -> Result<(MetaResult, f64), String> {
    let cfg = MetaConfig::new(dispatch).with_threads(threads);
    let t = Instant::now();
    let meta = run_metasystem(specs, jobs, &cfg).map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();
    let n = jobs.len();
    if meta.result.finished.len() != n || meta.dispatched != n as u64 {
        return Err(format!(
            "{} of {n} jobs finished, {} dispatched",
            meta.result.finished.len(),
            meta.dispatched
        ));
    }
    Ok((meta, wall))
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let golden = setup(true, expected::golden_seed());
    for (&(dispatch, ..), jobs) in CELLS.iter().zip(&golden.streams) {
        let key = format!("fleet.{}", dispatch.name());
        let checked = run_cell(&golden.specs, jobs, dispatch, THREADS).and_then(|(m, _)| {
            expected::check_fingerprint(&key, m.fingerprint(), args.write_expected)
        });
        report.op(
            checked.is_ok(),
            format!("golden {key}: {:?}", checked.err()),
        );
    }
    if args.write_expected {
        return;
    }

    let (fleet, setup_times) = batch::repeated_setup(|| setup(false, args.seed));
    let mut fingerprints: Vec<Option<u64>> = vec![None; CELLS.len()];
    let mut layers = Layers::default();
    let (plain, traced) =
        batch::measure(args.seconds, tracer, &mut layers, |traced, tr, layers| {
            let mut round = Round::default();
            let mut events = 0.0;
            for (i, (&(dispatch, ..), jobs)) in CELLS.iter().zip(&fleet.streams).enumerate() {
                let span = tr.enter(format!("metasim.run.{}", dispatch.name()));
                let outcome = run_cell(&fleet.specs, jobs, dispatch, THREADS);
                tr.exit(span);
                let checked = outcome.and_then(|(m, wall)| {
                    let fp = m.fingerprint();
                    match fingerprints[i].replace(fp) {
                        Some(prev) if prev != fp => Err(format!(
                            "fingerprint {fp:016x} != {prev:016x} of an earlier round"
                        )),
                        _ => Ok((m, wall)),
                    }
                });
                let (meta, wall) = match checked {
                    Ok(ok) => ok,
                    Err(e) => {
                        report.op(false, format!("fleet {}: {e}", dispatch.name()));
                        continue;
                    }
                };
                report.ops_ok(1);
                round.cells.push((jobs.len(), wall));
                if !traced {
                    continue;
                }
                layers.add(format!("metasim.run_s.{}", dispatch.name()), wall);
                layers.add("metasim.epochs", meta.epochs as f64);
                layers.add("metasim.dispatched", meta.dispatched as f64);
                layers.add("metasim.run_s", wall);
                events += meta.result.events_processed as f64;
                match dispatch {
                    DispatchPolicy::LeastPressure => {
                        // The serial twin must give the identical result.
                        let span = tr.enter("metasim.run.t1");
                        let serial = run_cell(&fleet.specs, jobs, dispatch, 1);
                        tr.exit(span);
                        match serial {
                            Ok((m1, t1)) if m1.fingerprint() == meta.fingerprint() => {
                                report.ops_ok(1);
                                layers.add("metasim.run_s.t1", t1);
                            }
                            Ok(_) => {
                                report.op(false, "fleet least-pressure: 1 and 2 threads differ");
                            }
                            Err(e) => {
                                report.op(false, format!("fleet least-pressure at 1 thread: {e}"));
                            }
                        }
                    }
                    _ => {
                        // Slope probe: reserve dispatch at n against n/2 jobs.
                        let span = tr.enter("metasim.run.reserve-half");
                        let half =
                            run_cell(&fleet.specs, &jobs[..jobs.len() / 2], dispatch, THREADS);
                        tr.exit(span);
                        match half {
                            Ok((_, t_half)) => {
                                report.ops_ok(1);
                                layers.add("metasim.reserve_slope", wall / t_half);
                            }
                            Err(e) => {
                                report.op(false, format!("fleet reserve slope probe: {e}"));
                            }
                        }
                    }
                }
            }
            if traced {
                layers.add("metasim.events", events);
            }
            round
        });

    if tracer.on() {
        let t1 = layers.median("metasim.run_s.t1");
        let t2 = layers.median("metasim.run_s.least-pressure");
        report.metric("metasim.parallel_speedup", t1 / t2, "ratio", traced.len());
        let events = layers.median("metasim.events");
        report.metric(
            "metasim.events_per_s",
            events / layers.median("metasim.run_s"),
            "events/s",
            traced.len(),
        );
        layers.report(report);
        batch::report_overhead(report, &plain, &traced);
    } else {
        batch::report_end_to_end(report, &setup_times, &plain, CELLS.len());
    }
}
