//! The three snapshot suites. A cell builds its inputs only when it runs, so
//! listing a suite's cells costs nothing.

use crate::snapshot::{best_of, field, millis, rate, row, text, Cell, Row, Suite};
use psbench_analyze::report::json_num;
use psbench_core::{experiment_ids, run_experiment, Scale, WorkloadDef, WorkloadKind};
use psbench_metasim::{run_metasystem, standard_shard_fleet, DispatchPolicy, MetaConfig};
use psbench_sched::by_name;
use psbench_sim::{EngineKind, SimConfig, SimJob, Simulation};
use psbench_store::fnv1a_64_hex;
use psbench_workload::feedback::{infer_dependencies, InferenceParams};
use psbench_workload::outagegen::OutageGenerator;
use psbench_workload::{Lublin99, WorkloadModel};

/// The suite named `name` at the full or the quick scale: its list key, id
/// key, extra header lines, gated timing field, and cells.
pub fn suite(name: &str, full: bool) -> Option<Suite> {
    let (list_key, id_key, headers, timing, cells): (_, _, &'static [_], _, _) = match name {
        "sim" => ("scenarios", "name", &[], "events_per_sec", sim(full)),
        "sweep" => ("experiments", "id", &[], "wall_ms", sweep(full)),
        "meta" => ("cells", "id", &[("threads", "1")], "wall_ms", meta(full)),
        _ => return None,
    };
    Some(Suite {
        list_key,
        id_key,
        headers,
        timing,
        cells,
    })
}

fn cell(id: String, run: impl Fn(usize) -> Row + 'static) -> Cell {
    (id, Box::new(run))
}

/// The quick scale runs only the first size of each list.
fn scaled<T>(full: bool, sizes: &[T]) -> &[T] {
    &sizes[..if full { sizes.len() } else { 1 }]
}

const MACHINE: u32 = 128;

/// The inputs of a simulation cell, on a Lublin99 trace unless noted.
#[derive(Clone, Copy)]
enum Load {
    Open,
    /// Closed-loop dependencies inferred.
    Closed,
    Outages,
    /// Closed loop with submit times compressed 8×: offered load far exceeds
    /// the machine and the backlog grows to archive scale.
    Saturated,
    /// Dense narrow jobs on an 8192-proc machine: about 1 800 run at once,
    /// so per-event O(running) work would dominate.
    Wide,
}

fn sim_inputs(load: Load, n: usize) -> (SimConfig, Vec<SimJob>) {
    let closed = |compress: i64| {
        let mut log = Lublin99::default().generate(n, 42);
        for j in &mut log.jobs {
            j.submit_time /= compress;
        }
        infer_dependencies(&mut log, &InferenceParams::default());
        SimJob::from_log(&log)
    };
    let open = SimConfig::new(MACHINE);
    let jobs = || SimJob::from_log(&Lublin99::default().generate(n, 42));
    match load {
        Load::Open => (open, jobs()),
        Load::Closed => (open.closed_loop(), closed(1)),
        Load::Saturated => (open.closed_loop(), closed(8)),
        Load::Outages => {
            let jobs = jobs();
            let horizon = jobs.iter().map(|j| j.submit as i64).max().unwrap_or(0) + 86_400;
            let outages = OutageGenerator::for_machine(MACHINE).generate(horizon, 4242);
            (open.with_outages(outages), jobs)
        }
        Load::Wide => {
            let job = |i: usize| {
                let runtime = 900.0 + (i % 7) as f64 * 120.0; // ~15-30 min
                SimJob::rigid(i as u64 + 1, i as f64 * 0.5, runtime, 1 + (i % 4) as u32)
            };
            (SimConfig::new(8192), (0..n).map(job).collect())
        }
    }
}

fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Calendar => "calendar",
        EngineKind::Reference => "reference",
    }
}

/// One simulation cell; only `Simulation::run` is timed.
fn sim_cell(name: String, sched: &'static str, engine: EngineKind, load: Load, n: usize) -> Cell {
    cell(name, move |repeat| {
        let (config, jobs) = sim_inputs(load, n);
        let (wall, result) = best_of(
            repeat,
            || {
                let sim = Simulation::with_engine(config.clone(), jobs.clone(), engine);
                (
                    by_name(sched, config.machine_size).expect("known scheduler"),
                    sim,
                )
            },
            |(mut s, sim)| sim.run(s.as_mut()),
        );
        row([
            ("scheduler", text(sched)),
            ("engine", text(engine_name(engine))),
            ("jobs", jobs.len().to_string()),
            ("events", result.events_processed.to_string()),
            ("finished", result.finished.len().to_string()),
            ("mean_response", json_num(result.mean_response_time())),
            ("wall_ms", millis(wall)),
            ("events_per_sec", rate(result.events_processed, wall)),
        ])
    })
}

/// Schedulers × workload scales × loop modes × outages × saturation on the
/// calendar engine, reference-engine twins up to 100k jobs (their linear
/// rescans are impractical at 1M), and the running-set probe.
fn sim(full: bool) -> Vec<Cell> {
    use EngineKind::{Calendar, Reference};
    use Load::*;
    let mut cells = Vec::new();
    for &n in scaled(full, &[10_000, 100_000, 1_000_000]) {
        let tag = match n {
            1_000_000.. => format!("{}m", n / 1_000_000),
            _ => format!("{}k", n / 1000),
        };
        let mut add = |prefix: &str, sched, engine, load, suffix: &str| {
            let name = format!("{prefix}{sched}_{tag}_{suffix}");
            cells.push(sim_cell(name, sched, engine, load, n));
        };
        for sched in ["fcfs", "easy", "gang"] {
            add("", sched, Calendar, Open, "open");
        }
        add("", "easy", Calendar, Closed, "closed");
        add("", "easy", Calendar, Outages, "outages");
        // `conservative` is the persistent-calendar backfiller: one
        // reservation per queued job, held across reacts.
        for sched in ["easy", "gang", "fcfs", "conservative"] {
            add("", sched, Calendar, Saturated, "saturated_closed");
        }
        for sched in ["fcfs", "easy"].into_iter().filter(|_| n <= 100_000) {
            add("reference_", sched, Reference, Open, "open");
        }
    }
    for &n in scaled(full, &[20_000, 60_000]) {
        for engine in [Calendar, Reference] {
            let name = format!("widemachine_{}_{}k", engine_name(engine), n / 1000);
            cells.push(sim_cell(name, "greedy-fcfs", engine, Wide, n));
        }
    }
    // The outage slope runs at both scales, so a quick run watches how the
    // requeue cost grows and not just one point.
    for (name, n) in OUTAGE_SLOPE.into_iter().zip([200_000, 400_000]) {
        cells.push(sim_cell(name.to_string(), "easy", Calendar, Outages, n));
    }
    cells
}

/// The outage-slope cells, the second twice the size of the first.
const OUTAGE_SLOPE: [&str; 2] = ["easy_200k_outages", "easy_400k_outages"];

/// The reserve-dispatch slope cells of `meta`, the second twice the size of
/// the first.
const RESERVE_SLOPE: [&str; 2] = ["s16-j20000-reserve", "s16-j40000-reserve"];

/// The `wall_ms` ratio of a pair of slope cells above which their path is
/// taken to cost more than linear time; linear reads about 2.
const SLOPE_LIMIT: f64 = 2.8;

/// A warning when both outage-slope cells ran and their `wall_ms` ratio
/// exceeds [`SLOPE_LIMIT`].
pub fn outage_slope_warning(rows: &[Row]) -> Option<String> {
    slope_warning(rows, "outage", OUTAGE_SLOPE)
}

/// A warning when both reserve-slope cells ran and their `wall_ms` ratio
/// exceeds [`SLOPE_LIMIT`].
pub fn reserve_slope_warning(rows: &[Row]) -> Option<String> {
    slope_warning(rows, "reserve", RESERVE_SLOPE)
}

fn slope_warning(rows: &[Row], what: &str, cells: [&str; 2]) -> Option<String> {
    let wall = |name: &str| {
        let r = rows.iter().find(|r| r[0].1 == text(name))?;
        field(r, "wall_ms").parse::<f64>().ok()
    };
    let (small, large) = (wall(cells[0])?, wall(cells[1])?);
    let ratio = large / small.max(1e-9);
    (ratio > SLOPE_LIMIT).then(|| {
        format!(
            "{what} slope {ratio:.2} > {SLOPE_LIMIT}: `{}` took {large} ms against {small} ms for `{}` (linear reads about 2)",
            cells[1], cells[0]
        )
    })
}

/// Every experiment table E1..E10, fingerprinted over its title, headers
/// and cells, so any numeric drift changes the hash.
fn sweep(full: bool) -> Vec<Cell> {
    let scale = if full { Scale::full() } else { Scale::quick() };
    let experiment = move |id: &'static str| {
        cell(id.to_string(), move |repeat| {
            let run = |()| run_experiment(id, scale).expect("known experiment id");
            let (wall, table) = best_of(repeat, || (), run);
            let rendered = format!("{}\n{}", table.title, table.to_csv());
            row([
                ("title", text(&table.title)),
                ("rows", table.rows.len().to_string()),
                ("fingerprint", text(&fnv1a_64_hex(rendered.as_bytes()))),
                ("wall_ms", millis(wall)),
            ])
        })
    };
    experiment_ids().iter().map(|&id| experiment(id)).collect()
}

/// The stream `psbench metasim` routes: the Lublin '99 model on a 128-proc
/// reference machine, interarrivals compressed by `1/sites`, renumbered onto
/// unique ids below the migration band.
fn meta_stream(sites: usize, jobs: usize) -> Vec<SimJob> {
    let def = WorkloadDef {
        interarrival_scale: 1.0 / sites as f64,
        ..WorkloadDef::new(WorkloadKind::Lublin99, 128, jobs, 1)
    };
    let mut jobs = SimJob::from_log(&def.generate());
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64 + 1;
        job.preceding = None;
        job.think_time = 0.0;
    }
    jobs
}

/// One metasystem cell, single-threaded: fingerprints do not depend on the
/// thread count.
fn meta_cell(sites: usize, jobs: usize, dispatch: DispatchPolicy) -> Cell {
    let id = format!("s{sites}-j{jobs}-{}", dispatch.name());
    cell(id, move |repeat| {
        let specs = standard_shard_fleet(sites, "easy");
        let stream = meta_stream(sites, jobs);
        let config = MetaConfig::new(dispatch);
        let run = |()| run_metasystem(&specs, &stream, &config).expect("known scheduler");
        let (wall, meta) = best_of(repeat, || (), run);
        row([
            ("finished", meta.result.finished.len().to_string()),
            ("fingerprint", text(&format!("{:016x}", meta.fingerprint()))),
            ("wall_ms", millis(wall)),
            ("events_per_sec", rate(meta.result.events_processed, wall)),
        ])
    })
}

/// Every dispatch policy over a 16-site fleet (the policy-semantics guard),
/// reserve dispatch again at twice the jobs (the reserve slope, at both
/// scales), then fleet-size scaling under least-pressure (the throughput
/// guard).
fn meta(full: bool) -> Vec<Cell> {
    let policies = DispatchPolicy::all().iter();
    let mut cells: Vec<Cell> = policies.map(|&d| meta_cell(16, 20_000, d)).collect();
    cells.push(meta_cell(16, 40_000, DispatchPolicy::Reserve));
    for &(sites, jobs) in scaled(full, &[(64, 50_000), (256, 250_000), (1000, 1_000_000)]) {
        cells.push(meta_cell(sites, jobs, DispatchPolicy::LeastPressure));
    }
    cells
}
