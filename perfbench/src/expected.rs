//! The recorded expectations of `expected.txt`: golden result fingerprints
//! and the serve workload's latency limit and rate ladder.
//!
//! Measured cells take their inputs from `--seed`, so their fingerprints
//! cannot be recorded in advance; each run therefore also replays every
//! cell at a small *golden* size from the recorded golden seed and compares
//! the fingerprints to the recorded ones. A change to any model, engine,
//! scheduler, codec or dispatch rule shows up there as a failed operation.

const TEXT: &str = include_str!("../expected.txt");

/// Look up `key`; `None` when the file does not record it.
pub fn get(key: &str) -> Option<&'static str> {
    TEXT.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(char::is_whitespace)?;
            (k == key).then(|| v.trim())
        })
}

/// A recorded number; panics if absent, since the file ships with the
/// benchmark.
pub fn number(key: &str) -> f64 {
    get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("expected.txt lacks a number for {key}"))
}

/// The golden seed every golden cell is generated from.
pub fn golden_seed() -> u64 {
    number("golden.seed") as u64
}

/// Compare the fingerprint `fp` of golden cell `key` to the recorded one.
/// In `--write-expected` mode prints the line to record instead.
pub fn check_fingerprint(key: &str, fp: u64, write: bool) -> Result<(), String> {
    let got = format!("{fp:016x}");
    if write {
        println!("{key} {got}");
        return Ok(());
    }
    match get(key) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("golden {key}: fingerprint {got}, recorded {want}")),
        None => Err(format!("golden {key}: no recorded fingerprint (got {got})")),
    }
}
