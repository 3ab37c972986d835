//! `bench-snapshot` — the result snapshots behind the committed `BENCH_*.json`
//! files: `sim` (simulation scenarios), `sweep` (experiment tables E1..E10)
//! and `meta` (sharded-metasystem cells).
//!
//! ```text
//! bench-snapshot <sim|sweep|meta> [--scale quick|full] [--repeat N] [--out FILE] [--baseline FILE]
//! ```
//!
//! Each cell runs best-of-`--repeat` (default 1) and becomes one JSON line.
//! With `--baseline`, result drift fails the run (see [`snapshot::diff`]).
//! When both outage-slope cells of `sim` (or both reserve-slope cells of
//! `meta`) ran, a super-linear wall-time ratio between them prints a warning
//! (see [`suites::outage_slope_warning`] and
//! [`suites::reserve_slope_warning`]); it never fails the run.

mod snapshot;
mod suites;
#[cfg(test)]
mod tests;

use snapshot::{diff, read, render, text, write_row, Row, Suite};
use std::process::ExitCode;

const USAGE: &str = "usage: bench-snapshot <sim|sweep|meta> [--scale quick|full] [--repeat N] [--out FILE] [--baseline FILE]";

struct Args {
    name: String,
    scale: String,
    suite: Suite,
    repeat: usize,
    out: Option<String>,
    baseline: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (name, flags) = args.split_first().ok_or("missing suite")?;
    let (mut scale, mut repeat, mut out, mut baseline) = ("quick".to_string(), 1, None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        if !["--scale", "--repeat", "--out", "--baseline"].contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let Some(value) = it.next().filter(|v| !v.starts_with("--")).cloned() else {
            return Err(format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--scale" if value == "quick" || value == "full" => scale = value,
            "--scale" => return Err(format!("unknown scale `{value}` (expected quick or full)")),
            "--repeat" => match value.parse() {
                Ok(n) if n > 0 => repeat = n,
                _ => return Err(format!("--repeat needs a positive integer, got `{value}`")),
            },
            "--out" => out = Some(value),
            _ => baseline = Some(value),
        }
    }
    let suite = suites::suite(name, scale == "full")
        .ok_or_else(|| format!("unknown suite `{name}` (expected sim, sweep or meta)"))?;
    Ok(Args {
        name: name.clone(),
        scale,
        suite,
        repeat,
        out,
        baseline,
    })
}

fn run(args: Args) -> Result<bool, String> {
    // Read the baseline first, so a bad path fails before a long run.
    let baseline = match &args.baseline {
        Some(p) => {
            let s = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            Some((p, read(&s).map_err(|e| format!("{p}: {e}"))?))
        }
        None => None,
    };
    let suite = &args.suite;
    let rows: Vec<Row> = suite
        .cells
        .iter()
        .map(|cell| {
            let mut r = vec![(suite.id_key.to_string(), text(&cell.0))];
            r.extend((cell.1)(args.repeat));
            eprintln!("{}", write_row(&r));
            r
        })
        .collect();
    let json = render(suite, &args.scale, &rows);
    match &args.out {
        Some(p) => {
            std::fs::write(p, &json).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote {p}");
        }
        None => print!("{json}"),
    }
    let slope = match args.name.as_str() {
        "sim" => suites::outage_slope_warning(&rows),
        "meta" => suites::reserve_slope_warning(&rows),
        _ => None,
    };
    if let Some(w) = slope {
        println!("::warning::bench-snapshot {}: {w}", args.name);
    }
    let Some((path, base)) = baseline else {
        return Ok(true);
    };
    let d = diff(suite, &args.scale, &base, &rows);
    for w in &d.warnings {
        println!("::warning::bench-snapshot {}: {w}", args.name);
    }
    for e in &d.errors {
        println!("::error::bench-snapshot {}: {e}", args.name);
    }
    let (drifts, warnings) = (d.errors.len(), d.warnings.len());
    println!("baseline {path}: {drifts} result drift(s), {warnings} warning(s)");
    Ok(d.errors.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench-snapshot: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
