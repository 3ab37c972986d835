//! The snapshot format and the baseline diff every suite shares.
//!
//! A snapshot is line-oriented JSON: header lines, then one object line per
//! cell. Field values are kept as their rendered JSON text, so a cell line
//! reads and rewrites byte for byte and the diff compares exactly the text
//! that was written.

use psbench_analyze::report::{json_escape, json_num};
use std::time::Instant;

/// Fields that carry a timing rather than a result. Only the suite's
/// [`Suite::timing`] field is compared; the other is informational.
const TIMING_FIELDS: [&str; 2] = ["wall_ms", "events_per_sec"];

/// One cell line: `(key, rendered JSON value)` pairs, the cell id first.
pub type Row = Vec<(String, String)>;

/// One cell: its id, and a closure that builds the cell's inputs, runs it
/// best-of-`repeat`, and returns the fields that follow the id.
pub type Cell = (String, Box<dyn Fn(usize) -> Row>);

/// A snapshot suite: its keys, its header lines, and its cells.
pub struct Suite {
    /// The key of the cell list (`scenarios`, `experiments`, `cells`).
    pub list_key: &'static str,
    /// The key of each cell's id (`name` or `id`).
    pub id_key: &'static str,
    /// Header lines after `version` and `scale`, as `(key, JSON value)`.
    pub headers: &'static [(&'static str, &'static str)],
    /// The gated timing field: `events_per_sec` (higher is better) or
    /// `wall_ms` (lower is better). More than 20% worse only warns.
    pub timing: &'static str,
    pub cells: Vec<Cell>,
}

/// A JSON string value.
pub fn text(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// A wall time in milliseconds, at microsecond resolution.
pub fn millis(wall_ms: f64) -> String {
    json_num((wall_ms * 1000.0).round() / 1000.0)
}

/// Events per second over `wall_ms`, rounded to an integer.
pub fn rate(events: u64, wall_ms: f64) -> String {
    json_num((events as f64 / (wall_ms / 1e3).max(1e-9)).round())
}

pub fn row<const N: usize>(fields: [(&str, String); N]) -> Row {
    fields.map(|(k, v)| (k.to_string(), v)).into()
}

/// Run `work` on a fresh `setup()` `repeat` times (at least once). Returns
/// the best wall time of `work` alone, in milliseconds, and its last result.
pub fn best_of<S, T>(
    repeat: usize,
    mut setup: impl FnMut() -> S,
    work: impl Fn(S) -> T,
) -> (f64, T) {
    let mut best = (f64::INFINITY, None);
    for _ in 0..repeat.max(1) {
        let input = setup();
        let t0 = Instant::now();
        let out = work(input);
        best = (best.0.min(t0.elapsed().as_secs_f64() * 1e3), Some(out));
    }
    (best.0, best.1.expect("at least one repeat"))
}

/// Render one cell line, without indentation or trailing comma.
pub fn write_row(row: &Row) -> String {
    let pairs: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", pairs.join(", "))
}

pub fn render(suite: &Suite, scale: &str, rows: &[Row]) -> String {
    let mut out = format!("{{\n  \"version\": 1,\n  \"scale\": {},\n", text(scale));
    for (key, value) in suite.headers {
        out += &format!("  \"{key}\": {value},\n");
    }
    out += &format!("  \"{}\": [\n", suite.list_key);
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out += &format!("    {}{sep}\n", write_row(r));
    }
    out + "  ]\n}\n"
}

/// Byte length of the JSON string `s` starts with, both quotes included.
fn quoted_len(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.strip_prefix('"')?.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some(i + 2),
            _ => {}
        }
    }
    None
}

/// Parse `"key": value, "key": value`. A string value runs to its closing
/// unescaped quote, so commas inside it stay part of the value.
fn parse_pairs(mut s: &str) -> Option<Row> {
    let mut pairs = Vec::new();
    while !s.is_empty() {
        let key_len = quoted_len(s)?;
        let key = s[1..key_len - 1].to_string();
        s = s[key_len..].strip_prefix(": ")?;
        let len = match s.starts_with('"') {
            true => quoted_len(s)?,
            false => s.find(',').unwrap_or(s.len()),
        };
        pairs.push((key, s[..len].to_string()));
        s = &s[len..];
        if !s.is_empty() {
            s = s.strip_prefix(", ")?;
        }
    }
    Some(pairs)
}

/// Parse one cell line as [`render`] writes it.
pub fn parse_row(line: &str) -> Option<Row> {
    let body = line.trim().trim_end_matches(',');
    parse_pairs(body.strip_prefix('{')?.strip_suffix('}')?).filter(|r| !r.is_empty())
}

/// A parsed snapshot: its `scale` header, unquoted, and its cell lines.
pub struct Snapshot {
    pub scale: Option<String>,
    pub rows: Vec<Row>,
}

/// Read a snapshot. A cell line that does not parse is an error.
pub fn read(snapshot: &str) -> Result<Snapshot, String> {
    let (mut scale, mut rows) = (None, Vec::new());
    for line in snapshot.lines().map(|l| l.trim().trim_end_matches(',')) {
        if line.starts_with("{\"") {
            rows.push(parse_row(line).ok_or_else(|| format!("unreadable cell line: {line}"))?);
        } else if let Some([(key, value)]) = parse_pairs(line).as_deref() {
            if key == "scale" {
                scale = Some(value.trim_matches('"').to_string());
            }
        }
    }
    Ok(Snapshot { scale, rows })
}

/// The outcome of a diff: errors (result drift) fail the gate.
#[derive(Debug, Default)]
pub struct Diff {
    pub errors: Vec<String>,
    pub warnings: Vec<String>,
}

/// The rendered value of `key` in a cell line, or `(absent)`.
pub fn field<'a>(r: &'a Row, key: &str) -> &'a str {
    r.iter()
        .find(|(k, _)| k == key)
        .map_or("(absent)", |(_, v)| v)
}

fn id(r: &Row) -> &str {
    r[0].1.trim_matches('"')
}

/// Compare the rows of a run at `scale` with a baseline snapshot.
///
/// Every field but the timing fields is a result field and must equal the
/// baseline's text exactly; a measured cell the baseline lacks fails too.
/// The suite's timing field only warns, when more than 20% worse. A baseline
/// cell the run did not measure warns only when the scales match, since a
/// quick run measures a subset of a full baseline.
pub fn diff(suite: &Suite, scale: &str, baseline: &Snapshot, rows: &[Row]) -> Diff {
    let mut d = Diff::default();
    for r in rows {
        let Some(base) = baseline.rows.iter().find(|b| b[0] == r[0]) else {
            let msg = "is measured but missing from the baseline — regenerate it";
            d.errors.push(format!("`{}` {msg}", id(r)));
            continue;
        };
        let mut keys: Vec<&str> = Vec::new();
        for (k, _) in r.iter().chain(base) {
            if !TIMING_FIELDS.contains(&k.as_str()) && !keys.contains(&k.as_str()) {
                keys.push(k);
            }
        }
        let drift: Vec<String> = (keys.into_iter())
            .filter(|k| field(base, k) != field(r, k))
            .map(|k| format!("{k} {} -> {}", field(base, k), field(r, k)))
            .collect();
        if !drift.is_empty() {
            d.errors
                .push(format!("`{}` result drift: {}", id(r), drift.join(", ")));
        }
        let (old, new) = (field(base, suite.timing), field(r, suite.timing));
        if let (Ok(old), Ok(new)) = (old.parse::<f64>(), new.parse::<f64>()) {
            let worse = match suite.timing {
                "events_per_sec" => new < 0.8 * old,
                _ => new > 1.2 * old,
            };
            if old > 0.0 && worse {
                let t = suite.timing;
                d.warnings.push(format!(
                    "`{}` {t} regressed >20%: {new} (baseline {old})",
                    id(r)
                ));
            }
        }
    }
    if baseline.scale.as_deref() == Some(scale) {
        for base in &baseline.rows {
            if !rows.iter().any(|r| r[0] == base[0]) {
                let msg = "no longer measured";
                d.warnings
                    .push(format!("baseline cell `{}` {msg}", id(base)));
            }
        }
    }
    d
}
