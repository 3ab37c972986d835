//! `saturated`: the engine under a growing backlog. Two cells on job
//! vectors built during set-up (no SWF parsing): EASY with generated
//! outages on the unscaled Lublin '99 stream (utilization ≈ 0.98, outage
//! victims requeued into a deep queue), and conservative backfilling on a
//! closed-loop stream with interarrivals divided by 8 (the reservation
//! calendar under saturation).

use crate::batch::{self, Layers, Round};
use crate::expected;
use crate::inputs::{derive_seed, lublin, MACHINE};
use crate::measure::Report;
use crate::spans::{Timed, Tracer};
use crate::Args;
use psbench_sched::by_name;
use psbench_sim::{SimConfig, SimJob, Simulation, SimulationResult};
use psbench_store::result_fingerprint;
use psbench_workload::feedback::{infer_dependencies, InferenceParams};
use psbench_workload::outagegen::OutageGenerator;
use std::time::Instant;

/// Jobs per cell in a measured run, and in a golden cell.
const JOBS: usize = 200_000;
const GOLDEN_JOBS: usize = 20_000;

/// One cell: its name, scheduler, engine configuration and jobs.
struct Cell {
    name: &'static str,
    sched: &'static str,
    config: SimConfig,
    jobs: Vec<SimJob>,
}

/// EASY on the unscaled stream with outages over its whole horizon.
fn outage_cell(jobs: usize, seed: u64) -> Cell {
    let jobs = SimJob::from_log(&lublin(jobs, derive_seed(seed, 2)));
    let horizon = jobs.iter().map(|j| j.submit as i64).max().unwrap_or(0) + 86_400;
    let outages = OutageGenerator::for_machine(MACHINE).generate(horizon, derive_seed(seed, 3));
    Cell {
        name: "easy-outages",
        sched: "easy",
        config: SimConfig::new(MACHINE).with_outages(outages),
        jobs,
    }
}

fn setup(jobs: usize, seed: u64) -> Vec<Cell> {
    let mut log = lublin(jobs, derive_seed(seed, 4));
    for j in &mut log.jobs {
        j.submit_time /= 8;
    }
    infer_dependencies(&mut log, &InferenceParams::default());
    vec![
        outage_cell(jobs, seed),
        Cell {
            name: "conservative-closed",
            sched: "conservative",
            config: SimConfig::new(MACHINE).closed_loop(),
            jobs: SimJob::from_log(&log),
        },
    ]
}

/// Run one cell; returns the result and the `Simulation::run` wall time.
/// With `layers`, the policy runs under the timing decorator.
fn run_cell(
    cell: &Cell,
    tr: &mut Tracer,
    layers: Option<&mut Layers>,
) -> Result<(SimulationResult, f64), String> {
    let config = cell.config.clone();
    let jobs = cell.jobs.clone();
    let mut policy = by_name(cell.sched, MACHINE).map_err(|e| e.to_string())?;
    let span = tr.enter(format!("sim.run.{}", cell.name));
    let t = Instant::now();
    let sim = Simulation::new(config, jobs);
    let result = match layers {
        Some(l) => {
            let mut timed = Timed::new(policy);
            let result = sim.run(&mut timed);
            let run_s = t.elapsed().as_secs_f64();
            l.add("sim.engine_s", run_s - timed.react_seconds());
            l.add("sim.run_s", run_s);
            l.add("sim.events", result.events_processed as f64);
            l.add("sim.kills", result.kills as f64);
            l.add_reacts(cell.sched, &timed);
            result
        }
        None => sim.run(policy.as_mut()),
    };
    let wall = t.elapsed().as_secs_f64();
    tr.exit(span);
    let n = cell.jobs.len();
    if result.finished.len() != n || result.unfinished != 0 {
        return Err(format!("{} of {n} jobs finished", result.finished.len()));
    }
    Ok((result, wall))
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    for cell in setup(GOLDEN_JOBS, expected::golden_seed()) {
        let key = format!("saturated.{}", cell.name);
        let checked = run_cell(&cell, &mut Tracer::new(false), None).and_then(|(r, _)| {
            expected::check_fingerprint(&key, result_fingerprint(&r), args.write_expected)
        });
        report.op(
            checked.is_ok(),
            format!("golden {key}: {:?}", checked.err()),
        );
    }
    if args.write_expected {
        return;
    }

    let (cells, setup_times) = batch::repeated_setup(|| setup(JOBS, args.seed));
    let mut fingerprints: Vec<Option<u64>> = vec![None; cells.len()];
    let mut layers = Layers::default();
    let (plain, traced) =
        batch::measure(args.seconds, tracer, &mut layers, |traced, tr, layers| {
            let mut round = Round::default();
            for (i, cell) in cells.iter().enumerate() {
                let checked =
                    run_cell(cell, tr, traced.then_some(&mut *layers)).and_then(|(r, wall)| {
                        let fp = result_fingerprint(&r);
                        match fingerprints[i].replace(fp) {
                            Some(prev) if prev != fp => Err(format!(
                                "fingerprint {fp:016x} != {prev:016x} of an earlier round"
                            )),
                            _ => Ok((r.finished.len(), wall)),
                        }
                    });
                match checked {
                    Ok((jobs, wall)) => {
                        report.ops_ok(1);
                        round.cells.push((jobs, wall));
                    }
                    Err(e) => {
                        report.op(false, format!("saturated {}: {e}", cell.name));
                    }
                }
            }
            round
        });

    if tracer.on() {
        // Slope probe: the outage cell at 2n against n jobs. A linear
        // path reads about 2.
        let double = outage_cell(2 * JOBS, args.seed);
        let mut off = Tracer::new(false);
        let probe = run_cell(&cells[0], &mut off, None)
            .and_then(|(_, t1)| run_cell(&double, &mut off, None).map(|(_, t2)| t2 / t1));
        match probe {
            Ok(slope) => {
                report.ops_ok(1);
                report.metric("sim.outage_slope", slope, "ratio", 1);
            }
            Err(e) => {
                report.op(false, format!("outage slope probe: {e}"));
            }
        }
        let run_s = layers.median("sim.run_s");
        report.metric(
            "sim.events_per_s",
            layers.median("sim.events") / run_s,
            "events/s",
            traced.len(),
        );
        layers.report(report);
        batch::report_overhead(report, &plain, &traced);
    } else {
        batch::report_end_to_end(report, &setup_times, &plain, cells.len());
    }
}
