//! perfbench — the psbench benchmark: four workloads driven through the
//! crates' public APIs, every result checked, every metric printed by name
//! with its unit. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload replay|saturated|fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
//! variant and reports the per-layer metrics.

mod batch;
mod expected;
mod fleet;
mod inputs;
mod measure;
mod replay;
mod saturated;
mod serve;
mod spans;

use measure::Report;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("capacity_cps", "commands/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A layer the workload
/// never calls into reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("swf.parse_s", "s"),
    ("swf.records_per_s", "records/s"),
    ("sim.engine_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "events/s"),
    ("sim.kills", "count"),
    ("sim.outage_slope", "ratio"),
    ("sched.reacts.fcfs", "count"),
    ("sched.react_s.fcfs", "s"),
    ("sched.react_p99_us.fcfs", "us"),
    ("sched.reacts.easy", "count"),
    ("sched.react_s.easy", "s"),
    ("sched.react_p99_us.easy", "us"),
    ("sched.reacts.conservative", "count"),
    ("sched.react_s.conservative", "s"),
    ("sched.react_p99_us.conservative", "us"),
    ("sched.reacts.gang", "count"),
    ("sched.react_s.gang", "s"),
    ("sched.react_p99_us.gang", "us"),
    ("metrics.report_s", "s"),
    ("store.put_s", "s"),
    ("store.get_s", "s"),
    ("store.bytes", "B"),
    ("store.journal_bytes", "B"),
    ("workload.offered_load.0.7", "ratio"),
    ("workload.offered_load.0.9", "ratio"),
    ("metasim.run_s.least-pressure", "s"),
    ("metasim.run_s.reserve", "s"),
    ("metasim.run_s.t1", "s"),
    ("metasim.parallel_speedup", "ratio"),
    ("metasim.epochs", "count"),
    ("metasim.dispatched", "count"),
    ("metasim.events_per_s", "events/s"),
    ("metasim.reserve_slope", "ratio"),
    ("serve.cmd_p50_ms", "ms"),
    ("serve.cmd_p99_ms", "ms"),
    ("serve.whatif_p90_ms", "ms"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.whatif_p50_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.late_p99_ms", "ms"),
    ("serve.submit_p50_ms.fsync_off", "ms"),
    ("serve.cancel_divergence", "count"),
    ("trace.overhead", "ratio"),
];

/// The unit of a declared per-layer metric; `None` for internal sums.
pub fn unit_of(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    trace: bool,
    /// Print the golden fingerprints to record instead of checking them.
    pub write_expected: bool,
    /// Scratch directory for stores and state, inside the checkout.
    pub run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut write_expected = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--write-expected" => write_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["replay", "saturated", "fleet", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let run_dir = PathBuf::from(".bench_run").join(&workload);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        write_expected,
        run_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload replay|saturated|fleet|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    match args.workload.as_str() {
        "replay" => replay::run(&args, &mut report, &mut tracer),
        "saturated" => saturated::run(&args, &mut report, &mut tracer),
        "fleet" => fleet::run(&args, &mut report, &mut tracer),
        _ => serve::run(&args, &mut report, &mut tracer),
    }
    if args.write_expected {
        return ExitCode::SUCCESS;
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in declared {
        if !report.has(name) {
            if args.trace {
                report.metric(name, 0.0, unit, 0);
            } else {
                report.op(false, format!("metric {name} was not measured"));
            }
        }
    }
    if args.trace {
        let path = args.run_dir.join(format!("spans-seed{}.json", args.seed));
        if let Err(e) = tracer.write_json(&path) {
            report.op(false, format!("write {}: {e}", path.display()));
        }
    }
    report.print(&args.workload);
    ExitCode::SUCCESS
}
