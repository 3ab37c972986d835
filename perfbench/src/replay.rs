//! `replay`: the offline pipeline users run most. A Lublin '99 stream,
//! calibrated to a target offered load and rendered to SWF text during
//! set-up, is timed through parse → `SimJob::from_source` →
//! `Simulation::run` → metrics and a rendered table → result codec and a
//! store round trip.

use crate::batch::{self, Layers, Round};
use crate::expected;
use crate::inputs::{calibrate, derive_seed, lublin, LOAD_TOLERANCE, MACHINE};
use crate::measure::Report;
use crate::spans::{Timed, Tracer};
use crate::Args;
use psbench_core::Table;
use psbench_sched::by_name;
use psbench_sim::{SimConfig, SimJob, Simulation, SimulationResult};
use psbench_store::{encode_result, result_fingerprint, ArtifactKind, ArtifactStore};
use psbench_swf::{parse_str, write_string, ParseOptions};
use std::time::Instant;

/// Jobs per cell in a measured run, and in a golden cell.
const JOBS: usize = 50_000;
const GOLDEN_JOBS: usize = 5_000;

/// The offered loads the cells run at.
const LOADS: [f64; 2] = [0.7, 0.9];

/// (scheduler, index into [`LOADS`]). `fcfs` saturates near utilization
/// 0.83 on this model, so it runs at 0.7 only.
const CELLS: [(&str, usize); 7] = [
    ("fcfs", 0),
    ("easy", 0),
    ("easy", 1),
    ("conservative", 0),
    ("conservative", 1),
    ("gang", 0),
    ("gang", 1),
];

fn cell_name(i: usize) -> String {
    let (sched, load) = CELLS[i];
    format!("{sched}-{}", LOADS[load])
}

/// One load level's input: the SWF text and the load it offers.
struct Input {
    text: String,
    achieved: f64,
}

fn setup(jobs: usize, seed: u64) -> Vec<Input> {
    let base = lublin(jobs, derive_seed(seed, 1));
    LOADS
        .iter()
        .map(|&target| {
            let (log, achieved) = calibrate(base.clone(), target);
            Input {
                text: write_string(&log),
                achieved,
            }
        })
        .collect()
}

/// What one cell run produced, for checking after its timer stopped.
struct Outcome {
    result: SimulationResult,
    jobs: usize,
    encoded: String,
    stored: Option<SimulationResult>,
}

/// Run one cell through the whole pipeline. Spans and layer sums are
/// recorded only when `layers` is given (a traced round).
fn run_cell(
    input: &Input,
    sched: &str,
    store: &ArtifactStore,
    key: u128,
    tr: &mut Tracer,
    layers: Option<&mut Layers>,
) -> Result<Outcome, String> {
    let span = tr.enter("swf.parse");
    let log = parse_str(&input.text, &ParseOptions::default()).map_err(|e| e.to_string())?;
    let parse_s = tr.exit(span);
    let records = log.jobs.len();

    let span = tr.enter("sim.from_source");
    let jobs = SimJob::from_source(log.as_source("replay")).map_err(|e| e.to_string())?;
    tr.exit(span);
    let n = jobs.len();

    let mut policy = by_name(sched, MACHINE).map_err(|e| e.to_string())?;
    let span = tr.enter(format!("sim.run.{sched}"));
    let sim = Simulation::new(SimConfig::new(MACHINE), jobs);
    let (result, timed) = if layers.is_some() {
        let mut timed = Timed::new(policy);
        (sim.run(&mut timed), Some(timed))
    } else {
        (sim.run(policy.as_mut()), None)
    };
    let run_s = tr.exit(span);

    let span = tr.enter("metrics.report");
    let agg = result.aggregate();
    let sys = result.system();
    let mut table = Table::new(
        format!("Simulation under {sched} on {MACHINE} procs"),
        &[
            "jobs",
            "mean wait [s]",
            "mean response [s]",
            "mean bounded slowdown",
            "utilization",
        ],
    );
    table.push_row(vec![
        agg.jobs.to_string(),
        psbench_core::fmt(agg.wait_time.mean),
        psbench_core::fmt(agg.response_time.mean),
        psbench_core::fmt(agg.bounded_slowdown.mean),
        psbench_core::fmt(sys.utilization),
    ]);
    std::hint::black_box(table.to_markdown());
    let report_s = tr.exit(span);

    let span = tr.enter("store.put");
    let encoded = encode_result(&result);
    store.put_result(key, &result).map_err(|e| e.to_string())?;
    let put_s = tr.exit(span);
    let span = tr.enter("store.get");
    let stored = store.get_result(key).map_err(|e| e.to_string())?;
    let get_s = tr.exit(span);

    if let (Some(l), Some(timed)) = (layers, timed) {
        l.add("swf.parse_s", parse_s);
        l.add("swf.records", records as f64);
        l.add("sim.engine_s", run_s - timed.react_seconds());
        l.add("sim.run_s", run_s);
        l.add("sim.events", result.events_processed as f64);
        l.add("sim.kills", result.kills as f64);
        l.add_reacts(sched, &timed);
        l.add("metrics.report_s", report_s);
        l.add("store.put_s", put_s);
        l.add("store.get_s", get_s);
        l.add("store.bytes", encoded.len() as f64);
    }
    Ok(Outcome {
        result,
        jobs: n,
        encoded,
        stored,
    })
}

/// Check one outcome; returns its fingerprint.
fn check(out: &Outcome) -> Result<u64, String> {
    let r = &out.result;
    if r.finished.len() != out.jobs || r.unfinished != 0 {
        return Err(format!(
            "{} of {} jobs finished ({} unfinished)",
            r.finished.len(),
            out.jobs,
            r.unfinished
        ));
    }
    match &out.stored {
        None => return Err("stored result missing".into()),
        Some(s) if encode_result(s) != out.encoded => {
            return Err("stored result differs from the computed one".into())
        }
        Some(_) => {}
    }
    Ok(result_fingerprint(r))
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let store_dir = args.run_dir.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = match ArtifactStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            report.op(false, format!("open store {}: {e}", store_dir.display()));
            return;
        }
    };
    let key_path = |key| store.path(ArtifactKind::Result, key);

    // Golden cells: recorded fingerprints at a fixed seed and small size.
    let golden = setup(GOLDEN_JOBS, expected::golden_seed());
    for (i, &(sched, load)) in CELLS.iter().enumerate() {
        let key = 1 << 64 | i as u128;
        let fp = run_cell(
            &golden[load],
            sched,
            &store,
            key,
            &mut Tracer::new(false),
            None,
        )
        .and_then(|o| check(&o))
        .and_then(|fp| {
            expected::check_fingerprint(
                &format!("replay.{}", cell_name(i)),
                fp,
                args.write_expected,
            )
        });
        let _ = std::fs::remove_file(key_path(key));
        report.op(
            fp.is_ok(),
            format!("replay golden {}: {:?}", cell_name(i), fp.err()),
        );
    }
    if args.write_expected {
        return;
    }

    let (inputs, setup_times) = batch::repeated_setup(|| setup(JOBS, args.seed));
    for (input, target) in inputs.iter().zip(LOADS) {
        report.op(
            (input.achieved - target).abs() <= LOAD_TOLERANCE,
            format!("offered load {:.4} for target {target}", input.achieved),
        );
    }

    let mut fingerprints: Vec<Option<u64>> = vec![None; CELLS.len()];
    let mut round_no: u128 = 0;
    let mut layers = Layers::default();
    let (plain, traced) =
        batch::measure(args.seconds, tracer, &mut layers, |traced, tr, layers| {
            round_no += 1;
            let mut round = Round::default();
            for (i, &(sched, load)) in CELLS.iter().enumerate() {
                let key = round_no << 8 | i as u128;
                let t = Instant::now();
                let out = run_cell(
                    &inputs[load],
                    sched,
                    &store,
                    key,
                    tr,
                    traced.then_some(&mut *layers),
                );
                let wall = t.elapsed().as_secs_f64();
                let _ = std::fs::remove_file(key_path(key));
                let checked = out.and_then(|o| {
                    let fp = check(&o)?;
                    match fingerprints[i].replace(fp) {
                        Some(prev) if prev != fp => Err(format!(
                            "fingerprint {fp:016x} != {prev:016x} of an earlier round"
                        )),
                        _ => Ok(o.jobs),
                    }
                });
                match checked {
                    Ok(jobs) => {
                        report.ops_ok(1);
                        round.cells.push((jobs, wall));
                    }
                    Err(e) => {
                        report.op(false, format!("replay {}: {e}", cell_name(i)));
                    }
                }
            }
            round
        });

    if tracer.on() {
        for (load, input) in LOADS.iter().zip(&inputs) {
            report.metric(
                format!("workload.offered_load.{load}"),
                input.achieved,
                "ratio",
                1,
            );
        }
        let parse = layers.median("swf.parse_s");
        report.metric(
            "swf.records_per_s",
            layers.median("swf.records") / parse,
            "records/s",
            traced.len(),
        );
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
        batch::report_end_to_end(report, &setup_times, &plain, CELLS.len());
    }
}
