//! Exact, deterministic (de)serialization of cached artifacts.
//!
//! The artifact store must hand back artifacts **bit-identical** to the
//! values that were put in — a resumed sweep's report is only byte-identical
//! to an uninterrupted run if a decoded `SimulationResult` compares `==` to
//! the one the simulator produced, and a cached `WorkloadProfile` must merge
//! and render exactly like a freshly computed one. The codec therefore never
//! formats a float as decimal text:
//!
//! * every integer accumulator (counts, `i128` power sums, histogram bins) is
//!   written as exact decimal integers — sketch state is integral by design,
//!   so this is lossless;
//! * every `f64` is written as the 16-digit hex of [`f64::to_bits`] and
//!   restored with [`f64::from_bits`], preserving the exact bit pattern
//!   (including signed zeros and subnormals);
//! * map-valued state (per-user / per-group aggregates) is written in
//!   ascending key order, and histograms sparsely as `bin:count` pairs, so
//!   encoding is deterministic: equal values encode to equal bytes, which is
//!   what makes encoded artifacts themselves fingerprintable.
//!
//! The format is line-oriented ASCII with a versioned magic first line;
//! [`decode_profile`] / [`decode_result`] reject anything whose magic or
//! shape they do not understand (a store written by a future format version
//! reads as corrupt, never as wrong data).
//!
//! # Canonical-only results
//!
//! A result's fingerprint is FNV-1a over its encoding, so a stored result is
//! only trustworthy if its bytes are the ones [`encode_result`] writes.
//! [`decode_result`] (and the [`decode_meta`] header around an embedded
//! result) therefore accepts **only** the canonical form: exact tags, single
//! spaces between fields, `\n` line ends, exactly 16 lowercase hex digits per
//! float, decimals with no sign and no leading zero, canonical name escapes,
//! and nothing after the final `end` line. Whatever it accepts re-encodes to
//! the same bytes (`encode_result(&decode_result(t)?) == t`), which is what
//! lets a store trust the hash of the stored bytes as the result fingerprint.
//!
//! The result encoder appends straight into one pre-sized byte buffer
//! (floats through a hex-digit table, integers as decimal digits, no
//! per-field allocation). [`result_fingerprint`] streams the same writer's
//! output through a small reused buffer into [`Fnv64`] without building the
//! encoding as one string.

use crate::fnv::Fnv64;
use psbench_analyze::profile::GroupStats;
use psbench_analyze::{
    Correlation, Histogram, Histogram2, MarginalSketch, Moments, WorkloadProfile, ANALYZE_VERSION,
};
use psbench_sched::SCHED_VERSION;
use psbench_sim::{FinishedJob, SimulationResult};
use std::fmt;

/// Magic first line of an encoded [`WorkloadProfile`].
pub const PROFILE_MAGIC: &str = "psbench-profile v1";
/// Magic first line of an encoded [`SimulationResult`].
pub const RESULT_MAGIC: &str = "psbench-result v1";
/// Magic first line of an encoded [`MetaSummary`].
pub const META_MAGIC: &str = "psbench-meta v1";

/// A decoding failure: the artifact bytes do not describe a well-formed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line number of the offending line (0 when the input ended early).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(line: usize, reason: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError {
        line,
        reason: reason.into(),
    })
}

/// Append a display name escaped onto one line: backslashes and line breaks
/// only, every other byte passes through. (UTF-8 continuation bytes are never
/// ASCII, so escaping byte-wise equals escaping char-wise.)
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b => out.push(b),
        }
    }
}

fn escape_name(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    push_escaped(&mut out, s);
    String::from_utf8(out).expect("escaping ASCII bytes keeps UTF-8 valid")
}

/// Inverse of [`push_escaped`] over one line's bytes. Only the escapes it
/// writes are accepted: a backslash must be followed by `\\`, `n` or `r`, and
/// a raw carriage return is refused.
fn unescape_name(raw: &[u8], line: usize) -> Result<String, CodecError> {
    let mut out = Vec::with_capacity(raw.len());
    let mut bytes = raw.iter();
    while let Some(&b) = bytes.next() {
        match b {
            b'\\' => match bytes.next() {
                Some(b'\\') => out.push(b'\\'),
                Some(b'n') => out.push(b'\n'),
                Some(b'r') => out.push(b'\r'),
                _ => return err(line, "non-canonical escape in name"),
            },
            b'\r' => return err(line, "unescaped carriage return in name"),
            b => out.push(b),
        }
    }
    String::from_utf8(out).or_else(|_| err(line, "name is not UTF-8"))
}

/// A line cursor over an encoded artifact.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            iter: text.lines(),
            line: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, CodecError> {
        self.line += 1;
        match self.iter.next() {
            Some(l) => Ok(l),
            None => err(0, "unexpected end of artifact"),
        }
    }

    /// Next line, which must start with `tag ` (or equal `tag`); returns the rest.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, CodecError> {
        let l = self.next()?;
        if l == tag {
            return Ok("");
        }
        match l.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')) {
            Some(rest) => Ok(rest),
            None => err(self.line, format!("expected `{tag} ...`, found {l:?}")),
        }
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, line: usize, what: &str) -> Result<T, CodecError> {
    tok.parse().map_err(|_| CodecError {
        line,
        reason: format!("bad {what}: {tok:?}"),
    })
}

fn split_n<const N: usize>(rest: &str, line: usize) -> Result<[&str; N], CodecError> {
    let mut out = [""; N];
    let mut it = rest.split_ascii_whitespace();
    for slot in out.iter_mut() {
        match it.next() {
            Some(t) => *slot = t,
            None => return err(line, format!("expected {N} fields, found fewer")),
        }
    }
    if it.next().is_some() {
        return err(line, format!("expected exactly {N} fields"));
    }
    Ok(out)
}

fn push_moments(out: &mut String, tag: &str, m: &Moments) {
    out.push_str(&format!(
        "{tag} {} {} {} {} {}\n",
        m.count, m.sum, m.sum_sq, m.min, m.max
    ));
}

fn parse_moments(rest: &str, line: usize) -> Result<Moments, CodecError> {
    let [count, sum, sum_sq, min, max] = split_n::<5>(rest, line)?;
    Ok(Moments {
        count: parse_num(count, line, "count")?,
        sum: parse_num(sum, line, "sum")?,
        sum_sq: parse_num(sum_sq, line, "sum_sq")?,
        min: parse_num(min, line, "min")?,
        max: parse_num(max, line, "max")?,
    })
}

/// Sparse `bin:count` rendering of histogram counts (deterministic: ascending
/// bin order, zero bins omitted).
fn push_sparse(out: &mut String, counts: &[u64]) {
    for (bin, &c) in counts.iter().enumerate() {
        if c != 0 {
            out.push_str(&format!(" {bin}:{c}"));
        }
    }
    out.push('\n');
}

fn parse_sparse(rest: &str, len: usize, line: usize) -> Result<Vec<u64>, CodecError> {
    let mut counts = vec![0u64; len];
    for pair in rest.split_ascii_whitespace() {
        let Some((bin, c)) = pair.split_once(':') else {
            return err(line, format!("expected bin:count, found {pair:?}"));
        };
        let bin: usize = parse_num(bin, line, "bin index")?;
        if bin >= len {
            return err(line, format!("bin index {bin} out of range (< {len})"));
        }
        counts[bin] = parse_num(c, line, "bin count")?;
    }
    Ok(counts)
}

fn push_marginal(out: &mut String, tag: &str, m: &MarginalSketch) {
    push_moments(out, &format!("moments {tag}"), &m.moments);
    out.push_str(&format!("hist {tag}"));
    push_sparse(out, m.histogram.counts());
}

fn parse_marginal(lines: &mut Lines<'_>, tag: &str) -> Result<MarginalSketch, CodecError> {
    let rest = lines.tagged(&format!("moments {tag}"))?;
    let moments = parse_moments(rest, lines.line)?;
    let rest = lines.tagged(&format!("hist {tag}"))?;
    let counts = parse_sparse(rest, psbench_analyze::HISTOGRAM_BINS, lines.line)?;
    Ok(MarginalSketch {
        moments,
        histogram: Histogram::from_counts(counts),
    })
}

/// Encode a [`WorkloadProfile`] into the exact, deterministic artifact text.
pub fn encode_profile(p: &WorkloadProfile) -> String {
    let mut out = String::new();
    out.push_str(PROFILE_MAGIC);
    out.push('\n');
    out.push_str(&format!("analyze_version {ANALYZE_VERSION}\n"));
    out.push_str(&format!("name {}\n", escape_name(&p.name)));
    out.push_str(&format!("jobs {}\n", p.jobs));
    let opt = |v: Option<i64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
    out.push_str(&format!(
        "submits {} {}\n",
        opt(p.first_submit),
        opt(p.last_submit)
    ));
    push_marginal(&mut out, "interarrival", &p.interarrival);
    push_marginal(&mut out, "runtime", &p.runtime);
    push_marginal(&mut out, "size", &p.size);
    push_marginal(&mut out, "accuracy", &p.accuracy);
    out.push_str("diurnal");
    for v in &p.diurnal {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
    out.push_str("weekly");
    for v in &p.weekly {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
    let sums = p.size_runtime.sums();
    out.push_str(&format!(
        "corr {} {} {} {} {} {}\n",
        p.size_runtime.count, sums[0], sums[1], sums[2], sums[3], sums[4]
    ));
    out.push_str(&format!(
        "hist2 {}",
        if p.size_runtime_hist.counts().is_empty() {
            0
        } else {
            1
        }
    ));
    push_sparse(&mut out, p.size_runtime_hist.counts());
    out.push_str(&format!("users {}\n", p.per_user.len()));
    for (id, g) in &p.per_user {
        push_group(&mut out, "user", *id, g);
    }
    out.push_str(&format!("groups {}\n", p.per_group.len()));
    for (id, g) in &p.per_group {
        push_group(&mut out, "group", *id, g);
    }
    out.push_str("end\n");
    out
}

fn push_group(out: &mut String, tag: &str, id: u32, g: &GroupStats) {
    out.push_str(&format!(
        "{tag} {id} {} {} {} {} {} {} {}\n",
        g.jobs,
        g.area,
        g.runtime.count,
        g.runtime.sum,
        g.runtime.sum_sq,
        g.runtime.min,
        g.runtime.max
    ));
}

fn parse_group(rest: &str, line: usize) -> Result<(u32, GroupStats), CodecError> {
    let [id, jobs, area, count, sum, sum_sq, min, max] = split_n::<8>(rest, line)?;
    Ok((
        parse_num(id, line, "id")?,
        GroupStats {
            jobs: parse_num(jobs, line, "jobs")?,
            area: parse_num(area, line, "area")?,
            runtime: Moments {
                count: parse_num(count, line, "count")?,
                sum: parse_num(sum, line, "sum")?,
                sum_sq: parse_num(sum_sq, line, "sum_sq")?,
                min: parse_num(min, line, "min")?,
                max: parse_num(max, line, "max")?,
            },
        },
    ))
}

/// Decode a [`WorkloadProfile`] from artifact text produced by
/// [`encode_profile`]; the decoded value compares `==` to the original.
pub fn decode_profile(text: &str) -> Result<WorkloadProfile, CodecError> {
    let mut lines = Lines::new(text);
    let magic = lines.next()?;
    if magic != PROFILE_MAGIC {
        return err(lines.line, format!("bad profile magic {magic:?}"));
    }
    let version: u32 = parse_num(
        lines.tagged("analyze_version")?,
        lines.line,
        "analyze version",
    )?;
    if version != ANALYZE_VERSION {
        return err(
            lines.line,
            format!("stale analyze_version {version} (current {ANALYZE_VERSION})"),
        );
    }
    let name = unescape_name(lines.tagged("name")?.as_bytes(), lines.line)?;
    let jobs: u64 = parse_num(lines.tagged("jobs")?, lines.line, "jobs")?;
    let rest = lines.tagged("submits")?;
    let [first, last] = split_n::<2>(rest, lines.line)?;
    let opt = |tok: &str, line: usize| -> Result<Option<i64>, CodecError> {
        if tok == "-" {
            Ok(None)
        } else {
            parse_num(tok, line, "submit").map(Some)
        }
    };
    let first_submit = opt(first, lines.line)?;
    let last_submit = opt(last, lines.line)?;
    let interarrival = parse_marginal(&mut lines, "interarrival")?;
    let runtime = parse_marginal(&mut lines, "runtime")?;
    let size = parse_marginal(&mut lines, "size")?;
    let accuracy = parse_marginal(&mut lines, "accuracy")?;
    let rest = lines.tagged("diurnal")?;
    let d = split_n::<24>(rest, lines.line)?;
    let mut diurnal = [0u64; 24];
    for (slot, tok) in diurnal.iter_mut().zip(d.iter()) {
        *slot = parse_num(tok, lines.line, "diurnal count")?;
    }
    let rest = lines.tagged("weekly")?;
    let w = split_n::<7>(rest, lines.line)?;
    let mut weekly = [0u64; 7];
    for (slot, tok) in weekly.iter_mut().zip(w.iter()) {
        *slot = parse_num(tok, lines.line, "weekly count")?;
    }
    let rest = lines.tagged("corr")?;
    let [count, sx, sy, sxx, syy, sxy] = split_n::<6>(rest, lines.line)?;
    let size_runtime = Correlation::from_sums(
        parse_num(count, lines.line, "count")?,
        [
            parse_num(sx, lines.line, "sum")?,
            parse_num(sy, lines.line, "sum")?,
            parse_num(sxx, lines.line, "sum")?,
            parse_num(syy, lines.line, "sum")?,
            parse_num(sxy, lines.line, "sum")?,
        ],
    );
    let rest = lines.tagged("hist2")?;
    let (alloc, cells) = match rest.split_once(' ') {
        Some((a, rest)) => (a, rest),
        None => (rest, ""),
    };
    let size_runtime_hist = match alloc {
        "0" => {
            if !cells.trim().is_empty() {
                return err(lines.line, "unallocated hist2 carries cells");
            }
            Histogram2::new()
        }
        "1" => Histogram2::from_counts(parse_sparse(
            cells,
            psbench_analyze::JOINT_BINS * psbench_analyze::JOINT_BINS,
            lines.line,
        )?),
        other => return err(lines.line, format!("bad hist2 alloc flag {other:?}")),
    };
    let n_users: usize = parse_num(lines.tagged("users")?, lines.line, "user count")?;
    let mut per_user = std::collections::BTreeMap::new();
    for _ in 0..n_users {
        let rest = lines.tagged("user")?;
        let (id, g) = parse_group(rest, lines.line)?;
        per_user.insert(id, g);
    }
    let n_groups: usize = parse_num(lines.tagged("groups")?, lines.line, "group count")?;
    let mut per_group = std::collections::BTreeMap::new();
    for _ in 0..n_groups {
        let rest = lines.tagged("group")?;
        let (id, g) = parse_group(rest, lines.line)?;
        per_group.insert(id, g);
    }
    lines.tagged("end")?;
    Ok(WorkloadProfile {
        name,
        jobs,
        interarrival,
        runtime,
        size,
        accuracy,
        diurnal,
        weekly,
        per_user,
        per_group,
        size_runtime,
        size_runtime_hist,
        first_submit,
        last_submit,
    })
}

/// Upper bound of a result header's length, bar its escaped scheduler name.
const HEADER_BYTES: usize = 384;

/// Bytes [`result_fingerprint`] gathers before hashing them.
const FINGERPRINT_CHUNK: usize = 8 * 1024;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a lowercase hex digit, or `0xff` when it is not one.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Append the 16 lowercase hex digits of `bits`.
fn push_hex16(out: &mut Vec<u8>, bits: u64) {
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX_DIGITS[(bits >> (60 - 4 * i) & 0xf) as usize];
    }
    out.extend_from_slice(&digits);
}

/// Append `v` in decimal.
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Number of decimal digits of `v`.
fn dec_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The exact length of `f`'s encoded row.
fn row_len(f: &FinishedJob) -> usize {
    let user = f.user.map_or(1, |u| dec_len(u.into()));
    let fields = dec_len(f.id) + dec_len(f.procs.into()) + dec_len(f.restarts.into()) + user;
    // "f ", four " <16 hex>", three more separating spaces and "\n".
    fields + 2 + 4 * 17 + 3 + 1
}

/// A buffer size that holds `r`'s encoding without regrowing: exact rows
/// plus a header bound, so the buffer is never copied or over-reserved.
fn result_capacity(r: &SimulationResult) -> usize {
    HEADER_BYTES + 2 * r.scheduler.len() + r.finished.iter().map(row_len).sum::<usize>()
}

/// Write the canonical encoding of `r` into `out`. `spill` is called after
/// the header and after every row, so a streaming consumer can drain `out`
/// and keep it small; a consumer building the whole encoding passes a no-op.
fn write_result(r: &SimulationResult, out: &mut Vec<u8>, mut spill: impl FnMut(&mut Vec<u8>)) {
    out.extend_from_slice(RESULT_MAGIC.as_bytes());
    out.extend_from_slice(b"\nsched_version ");
    push_dec(out, SCHED_VERSION.into());
    out.extend_from_slice(b"\nscheduler ");
    push_escaped(out, &r.scheduler);
    out.extend_from_slice(b"\nmachine_size ");
    push_dec(out, r.machine_size.into());
    out.extend_from_slice(b"\ncounters");
    for c in [
        r.unfinished as u64,
        r.discarded as u64,
        r.kills as u64,
        r.rejected_decisions as u64,
        r.coalesced_wakeups as u64,
        r.events_processed,
    ] {
        out.push(b' ');
        push_dec(out, c);
    }
    out.extend_from_slice(b"\nintegrals");
    for v in [
        r.idle_while_queued,
        r.busy_integral,
        r.lost_node_seconds,
        r.end_time,
    ] {
        out.push(b' ');
        push_hex16(out, v.to_bits());
    }
    out.extend_from_slice(b"\nfinished ");
    push_dec(out, r.finished.len() as u64);
    out.push(b'\n');
    spill(out);
    for f in &r.finished {
        out.extend_from_slice(b"f ");
        push_dec(out, f.id);
        for v in [f.submit, f.start, f.first_start, f.end] {
            out.push(b' ');
            push_hex16(out, v.to_bits());
        }
        out.push(b' ');
        push_dec(out, f.procs.into());
        out.push(b' ');
        push_dec(out, f.restarts.into());
        match f.user {
            Some(u) => {
                out.push(b' ');
                push_dec(out, u.into());
            }
            None => out.extend_from_slice(b" -"),
        }
        out.push(b'\n');
        spill(out);
    }
    out.extend_from_slice(b"end\n");
}

/// Encode a [`SimulationResult`] into the exact, deterministic artifact text.
/// Every float travels as its bit pattern, so `decode(encode(r)) == r` holds
/// with `==` — the property the byte-identical-resume guarantee rests on.
pub fn encode_result(r: &SimulationResult) -> String {
    let mut out = Vec::with_capacity(result_capacity(r));
    write_result(r, &mut out, |_| {});
    String::from_utf8(out).expect("the result encoding is ASCII apart from the UTF-8 name")
}

/// A cursor over canonical artifact bytes. Every read demands exactly the
/// bytes the encoder writes, so whatever a cursor-based decoder accepts
/// re-encodes to itself.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// 1-based number of the line `pos` is on.
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// A failure at the cursor: `reason` on the current line, or "unexpected
    /// end" (line 0) when that line is unterminated — every canonical line
    /// ends in `\n`, so an unterminated one means the input was cut short.
    #[cold]
    fn fail<T>(&self, reason: String) -> Result<T, CodecError> {
        if !self.bytes[self.pos..].contains(&b'\n') {
            err(0, "unexpected end of artifact")
        } else {
            err(self.line, reason)
        }
    }

    /// The bytes from `from` up to (not including) the next `\n` or the end.
    fn line_from(&self, from: usize) -> &'a [u8] {
        let rest = &self.bytes[from..];
        let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        &rest[..len]
    }

    /// A failure naming the token that starts at `from`.
    #[cold]
    fn bad<T>(&self, from: usize, what: &str) -> Result<T, CodecError> {
        let line = self.line_from(from);
        let len = line.iter().position(|&b| b == b' ').unwrap_or(line.len());
        let tok = String::from_utf8_lossy(&line[..len]);
        self.fail(format!("bad {what}: {tok:?}"))
    }

    /// A failure for a missing literal.
    #[cold]
    fn expected<T>(&self, lit: &str) -> Result<T, CodecError> {
        let found = String::from_utf8_lossy(self.line_from(self.pos));
        self.fail(format!("expected {lit:?}, found {found:?}"))
    }

    /// Consume exactly `lit`.
    fn lit(&mut self, lit: &str) -> Result<(), CodecError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.expected(lit)
        }
    }

    /// Consume the single space between two fields.
    fn sp(&mut self) -> Result<(), CodecError> {
        if self.bytes.get(self.pos) == Some(&b' ') {
            self.pos += 1;
            Ok(())
        } else {
            self.expected(" ")
        }
    }

    /// Consume a line end.
    fn eol(&mut self) -> Result<(), CodecError> {
        if self.bytes.get(self.pos) == Some(&b'\n') {
            self.pos += 1;
            self.line += 1;
            Ok(())
        } else {
            self.expected("\n")
        }
    }

    /// A whole line that must equal `magic`.
    fn magic(&mut self, magic: &str, kind: &str) -> Result<(), CodecError> {
        let line = self.line_from(self.pos);
        if line != magic.as_bytes() {
            let found = String::from_utf8_lossy(line);
            return self.fail(format!("bad {kind} magic {found:?}"));
        }
        self.pos += line.len();
        self.eol()
    }

    /// The rest of the line as an escaped display name.
    fn name(&mut self) -> Result<String, CodecError> {
        let raw = self.line_from(self.pos);
        self.pos += raw.len();
        unescape_name(raw, self.line)
    }

    /// A decimal with no sign and no leading zero.
    fn dec(&mut self, what: &str) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(&b) = self.bytes.get(self.pos) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            // Nineteen digits always fit a u64; only longer runs can overflow.
            v = if self.pos - start < 19 {
                v * 10 + u64::from(d)
            } else {
                match v.checked_mul(10).and_then(|v| v.checked_add(u64::from(d))) {
                    Some(v) => v,
                    None => return self.bad(start, what),
                }
            };
            self.pos += 1;
        }
        let digits = self.pos - start;
        if digits == 0 || (digits > 1 && self.bytes[start] == b'0') {
            return self.bad(start, what);
        }
        Ok(v)
    }

    fn dec_u32(&mut self, what: &str) -> Result<u32, CodecError> {
        let start = self.pos;
        let v = self.dec(what)?;
        u32::try_from(v).or_else(|_| self.bad(start, what))
    }

    fn dec_usize(&mut self, what: &str) -> Result<usize, CodecError> {
        let start = self.pos;
        let v = self.dec(what)?;
        usize::try_from(v).or_else(|_| self.bad(start, what))
    }

    /// An `f64` as exactly 16 lowercase hex digits of its bit pattern.
    fn f64_bits(&mut self) -> Result<f64, CodecError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 16) else {
            return self.bad(self.pos, "f64 bits");
        };
        let mut bits = 0u64;
        let mut invalid = 0u8;
        for &b in digits {
            let nibble = HEX_VALUE[usize::from(b)];
            invalid |= nibble;
            bits = bits << 4 | u64::from(nibble & 0xf);
        }
        if invalid > 0xf {
            return self.bad(self.pos, "f64 bits");
        }
        self.pos += 16;
        Ok(f64::from_bits(bits))
    }

    /// Succeed only at the end of the input.
    fn finish(&self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            err(self.line, "trailing bytes after the final `end` line")
        }
    }
}

/// Shortest possible `f` row: one-digit id, procs and restarts, no user.
const MIN_ROW_BYTES: usize = 2 + 1 + 4 * 17 + 4 + 2 + 1;

/// Read one canonical result encoding at the cursor, through its `end` line.
fn read_result(c: &mut Cursor<'_>) -> Result<SimulationResult, CodecError> {
    c.magic(RESULT_MAGIC, "result")?;
    c.lit("sched_version ")?;
    let version = c.dec_u32("sched version")?;
    if version != SCHED_VERSION {
        return err(
            c.line,
            format!("stale sched_version {version} (current {SCHED_VERSION})"),
        );
    }
    c.eol()?;
    c.lit("scheduler ")?;
    let scheduler = c.name()?;
    c.eol()?;
    c.lit("machine_size ")?;
    let machine_size = c.dec_u32("machine size")?;
    c.eol()?;
    c.lit("counters ")?;
    let unfinished = c.dec_usize("unfinished")?;
    c.sp()?;
    let discarded = c.dec_usize("discarded")?;
    c.sp()?;
    let kills = c.dec_usize("kills")?;
    c.sp()?;
    let rejected_decisions = c.dec_usize("rejected")?;
    c.sp()?;
    let coalesced_wakeups = c.dec_usize("coalesced")?;
    c.sp()?;
    let events_processed = c.dec("events")?;
    c.eol()?;
    c.lit("integrals ")?;
    let idle_while_queued = c.f64_bits()?;
    c.sp()?;
    let busy_integral = c.f64_bits()?;
    c.sp()?;
    let lost_node_seconds = c.f64_bits()?;
    c.sp()?;
    let end_time = c.f64_bits()?;
    c.eol()?;
    c.lit("finished ")?;
    let n = c.dec_usize("finished count")?;
    c.eol()?;
    // The count comes from the input: bound the allocation by the rows the
    // remaining bytes can hold.
    let mut finished = Vec::with_capacity(n.min((c.bytes.len() - c.pos) / MIN_ROW_BYTES));
    for _ in 0..n {
        c.lit("f ")?;
        let id = c.dec("job id")?;
        c.sp()?;
        let submit = c.f64_bits()?;
        c.sp()?;
        let start = c.f64_bits()?;
        c.sp()?;
        let first_start = c.f64_bits()?;
        c.sp()?;
        let end = c.f64_bits()?;
        c.sp()?;
        let procs = c.dec_u32("procs")?;
        c.sp()?;
        let restarts = c.dec_u32("restarts")?;
        c.sp()?;
        let user = if c.bytes.get(c.pos) == Some(&b'-') {
            c.pos += 1;
            None
        } else {
            Some(c.dec_u32("user")?)
        };
        c.eol()?;
        finished.push(FinishedJob {
            id,
            submit,
            start,
            first_start,
            end,
            procs,
            restarts,
            user,
        });
    }
    c.lit("end")?;
    c.eol()?;
    Ok(SimulationResult {
        scheduler,
        machine_size,
        finished,
        unfinished,
        discarded,
        idle_while_queued,
        busy_integral,
        lost_node_seconds,
        kills,
        rejected_decisions,
        coalesced_wakeups,
        events_processed,
        end_time,
    })
}

/// Decode a [`SimulationResult`] from artifact text produced by
/// [`encode_result`]. Only the canonical encoding is accepted (see the
/// module docs), so `encode_result(&decode_result(t)?) == t` for every `t`
/// this returns `Ok` for.
pub fn decode_result(text: &str) -> Result<SimulationResult, CodecError> {
    let mut c = Cursor::new(text);
    let r = read_result(&mut c)?;
    c.finish()?;
    Ok(r)
}

/// The canonical 64-bit fingerprint of a simulation result: FNV-1a over its
/// exact encoding. This is the per-cell fingerprint journaled by sweep
/// ledgers, and the one width-compatible continuation of the table
/// fingerprints `bench-snapshot sweep` snapshots. The encoding is streamed
/// into the hasher in small chunks, never built whole.
pub fn result_fingerprint(r: &SimulationResult) -> u64 {
    let mut h = Fnv64::new();
    // Room for the chunk plus one more row (at most 124 bytes) or the header.
    let mut buf = Vec::with_capacity(FINGERPRINT_CHUNK + HEADER_BYTES);
    write_result(r, &mut buf, |buf| {
        if buf.len() >= FINGERPRINT_CHUNK {
            h.write(buf);
            buf.clear();
        }
    });
    h.write(&buf);
    h.finish()
}

/// A memoized metasystem run: the merged fleet-wide [`SimulationResult`]
/// plus the epoch-loop counters a metasystem report needs — they are not
/// recoverable from the merged result (site identity is erased by the
/// merge), so they travel alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaSummary {
    /// Number of sites simulated.
    pub sites: u64,
    /// Cross-site dispatch policy name.
    pub dispatch: String,
    /// Epochs the loop executed.
    pub epochs: u64,
    /// Jobs dispatched (first placements).
    pub dispatched: u64,
    /// Outage-induced migrations performed.
    pub migrations: u64,
    /// Completed jobs per site, in site-id order.
    pub per_site_finished: Vec<u64>,
    /// The merged fleet-wide result.
    pub result: SimulationResult,
}

/// Encode a [`MetaSummary`]: a short counter header followed by the embedded
/// result in its own exact encoding, so `decode_meta(encode_meta(m)) == m`
/// holds with `==` like every other artifact.
pub fn encode_meta(m: &MetaSummary) -> String {
    let header = 128 + 2 * m.dispatch.len() + 21 * m.per_site_finished.len();
    let mut out = Vec::with_capacity(header + result_capacity(&m.result));
    out.extend_from_slice(META_MAGIC.as_bytes());
    out.extend_from_slice(b"\nsites ");
    push_dec(&mut out, m.sites);
    out.extend_from_slice(b"\ndispatch ");
    push_escaped(&mut out, &m.dispatch);
    out.extend_from_slice(b"\nloop ");
    push_dec(&mut out, m.epochs);
    out.push(b' ');
    push_dec(&mut out, m.dispatched);
    out.push(b' ');
    push_dec(&mut out, m.migrations);
    out.extend_from_slice(b"\nper_site ");
    push_dec(&mut out, m.per_site_finished.len() as u64);
    for &c in &m.per_site_finished {
        out.push(b' ');
        push_dec(&mut out, c);
    }
    out.push(b'\n');
    write_result(&m.result, &mut out, |_| {});
    String::from_utf8(out).expect("the meta encoding is ASCII apart from the UTF-8 names")
}

/// Exact inverse of [`encode_meta`], canonical-only like [`decode_result`].
/// Scheduler-semantics staleness is caught by the embedded result's own
/// `sched_version` stamp.
pub fn decode_meta(text: &str) -> Result<MetaSummary, CodecError> {
    let mut c = Cursor::new(text);
    c.magic(META_MAGIC, "meta")?;
    c.lit("sites ")?;
    let sites = c.dec("sites")?;
    c.eol()?;
    c.lit("dispatch ")?;
    let dispatch = c.name()?;
    c.eol()?;
    c.lit("loop ")?;
    let epochs = c.dec("epochs")?;
    c.sp()?;
    let dispatched = c.dec("dispatched")?;
    c.sp()?;
    let migrations = c.dec("migrations")?;
    c.eol()?;
    c.lit("per_site ")?;
    let n = c.dec_usize("per-site count")?;
    // Each count takes at least two bytes (" 0").
    let mut per_site_finished = Vec::with_capacity(n.min((c.bytes.len() - c.pos) / 2));
    for _ in 0..n {
        c.sp()?;
        per_site_finished.push(c.dec("per-site count")?);
    }
    c.eol()?;
    let result = read_result(&mut c)?;
    c.finish()?;
    Ok(MetaSummary {
        sites,
        dispatch,
        epochs,
        dispatched,
        migrations,
        per_site_finished,
        result,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fnv::fnv1a_64;
    use proptest::prelude::*;

    fn f64_hex(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    /// The `format!`-based result encoder the byte writer replaced, kept as
    /// the reference the writer must match byte for byte.
    fn reference_encode_result(r: &SimulationResult) -> String {
        let mut out = String::new();
        out.push_str(RESULT_MAGIC);
        out.push('\n');
        out.push_str(&format!("sched_version {SCHED_VERSION}\n"));
        out.push_str(&format!("scheduler {}\n", escape_name(&r.scheduler)));
        out.push_str(&format!("machine_size {}\n", r.machine_size));
        out.push_str(&format!(
            "counters {} {} {} {} {} {}\n",
            r.unfinished,
            r.discarded,
            r.kills,
            r.rejected_decisions,
            r.coalesced_wakeups,
            r.events_processed
        ));
        out.push_str(&format!(
            "integrals {} {} {} {}\n",
            f64_hex(r.idle_while_queued),
            f64_hex(r.busy_integral),
            f64_hex(r.lost_node_seconds),
            f64_hex(r.end_time)
        ));
        out.push_str(&format!("finished {}\n", r.finished.len()));
        for f in &r.finished {
            out.push_str(&format!(
                "f {} {} {} {} {} {} {} {}\n",
                f.id,
                f64_hex(f.submit),
                f64_hex(f.start),
                f64_hex(f.first_start),
                f64_hex(f.end),
                f.procs,
                f.restarts,
                f.user.map(|u| u.to_string()).unwrap_or_else(|| "-".into())
            ));
        }
        out.push_str("end\n");
        out
    }

    /// The reference meta header (everything before the embedded result).
    fn reference_meta_header(m: &MetaSummary) -> String {
        let mut out = String::new();
        out.push_str(META_MAGIC);
        out.push('\n');
        out.push_str(&format!("sites {}\n", m.sites));
        out.push_str(&format!("dispatch {}\n", escape_name(&m.dispatch)));
        out.push_str(&format!(
            "loop {} {} {}\n",
            m.epochs, m.dispatched, m.migrations
        ));
        out.push_str(&format!("per_site {}", m.per_site_finished.len()));
        for c in &m.per_site_finished {
            out.push_str(&format!(" {c}"));
        }
        out.push('\n');
        out
    }

    /// Bit patterns the random draw rarely hits: signed zeros, infinities,
    /// NaNs with payloads and either sign, the subnormal range's ends, the
    /// largest finite value and a float with hex letters in its bits.
    const SPECIAL_F64_BITS: [u64; 12] = [
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_0000_0001,
        0xfff8_dead_beef_0001,
        0x0000_0000_0000_0001,
        0x000f_ffff_ffff_ffff,
        0x800f_ffff_ffff_ffff,
        0x7fef_ffff_ffff_ffff,
        0x3fb9_9999_9999_999a,
    ];

    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..=u64::MAX).prop_map(f64::from_bits),
            (0..SPECIAL_F64_BITS.len()).prop_map(|i| f64::from_bits(SPECIAL_F64_BITS[i])),
            0.0..1.0e9f64,
        ]
    }

    fn any_u64() -> impl Strategy<Value = u64> {
        prop_oneof![0..=u64::MAX, Just(u64::MAX), Just(0u64), 1u64..100_000]
    }

    fn any_u32() -> impl Strategy<Value = u32> {
        prop_oneof![0..=u32::MAX, Just(u32::MAX), Just(0u32), 1u32..200]
    }

    const NAMES: [&str; 8] = [
        "easy",
        "",
        "back\\slash",
        "line\nbreak\r",
        "\\n literal",
        "trailing\\",
        "tab\tand ünïcode",
        "\r\n\\\\",
    ];

    fn any_name() -> impl Strategy<Value = String> {
        (0..NAMES.len()).prop_map(|i| NAMES[i].to_string())
    }

    fn any_job() -> impl Strategy<Value = FinishedJob> {
        (
            any_u64(),
            (any_f64(), any_f64(), any_f64(), any_f64()),
            any_u32(),
            any_u32(),
            (0u8..3, any_u32()),
        )
            .prop_map(
                |(id, (submit, start, first_start, end), procs, restarts, (has_user, u))| {
                    FinishedJob {
                        id,
                        submit,
                        start,
                        first_start,
                        end,
                        procs,
                        restarts,
                        user: (has_user > 0).then_some(u),
                    }
                },
            )
    }

    fn any_result() -> impl Strategy<Value = SimulationResult> {
        (
            any_name(),
            any_u32(),
            prop::collection::vec(any_job(), 0..12),
            (
                any_u64(),
                any_u64(),
                any_u64(),
                any_u64(),
                any_u64(),
                any_u64(),
            ),
            (any_f64(), any_f64(), any_f64(), any_f64()),
        )
            .prop_map(|(scheduler, machine_size, finished, counters, integrals)| {
                let (unfinished, discarded, kills, rejected, coalesced, events) = counters;
                let (idle, busy, lost, end_time) = integrals;
                SimulationResult {
                    scheduler,
                    machine_size,
                    finished,
                    unfinished: unfinished as usize,
                    discarded: discarded as usize,
                    idle_while_queued: idle,
                    busy_integral: busy,
                    lost_node_seconds: lost,
                    kills: kills as usize,
                    rejected_decisions: rejected as usize,
                    coalesced_wakeups: coalesced as usize,
                    events_processed: events,
                    end_time,
                }
            })
    }

    fn any_meta() -> impl Strategy<Value = MetaSummary> {
        (
            (any_u64(), any_u64(), any_u64(), any_u64()),
            any_name(),
            prop::collection::vec(any_u64(), 0..6),
            any_result(),
        )
            .prop_map(
                |((sites, epochs, dispatched, migrations), dispatch, per_site, result)| {
                    MetaSummary {
                        sites,
                        dispatch,
                        epochs,
                        dispatched,
                        migrations,
                        per_site_finished: per_site,
                        result,
                    }
                },
            )
    }

    /// Bytes the edits below insert or substitute: separators, signs,
    /// digits, hex letters of either case, an escape.
    const EDIT_BYTES: &[u8] = b" \t\r\n+-0129aAfFx\\";

    /// One edit of an encoding: insert, delete or replace one byte at a
    /// position given as a fraction of the text's length.
    fn any_edit() -> impl Strategy<Value = (u8, f64, u8)> {
        (
            0u8..3,
            0.0..1.0f64,
            (0..EDIT_BYTES.len()).prop_map(|i| EDIT_BYTES[i]),
        )
    }

    fn apply_edit(bytes: &mut Vec<u8>, kind: u8, pos: usize, byte: u8) {
        match kind {
            0 => bytes.insert(pos, byte),
            1 => {
                bytes.remove(pos);
            }
            _ => bytes[pos] = byte,
        }
    }

    fn apply_edits(text: &str, edits: &[(u8, f64, u8)]) -> Option<String> {
        let mut bytes = text.as_bytes().to_vec();
        for &(kind, at, byte) in edits {
            if bytes.is_empty() {
                return None;
            }
            let pos = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            apply_edit(&mut bytes, kind, pos, byte);
        }
        String::from_utf8(bytes).ok()
    }

    /// Every single-byte edit of a small canonical text: whatever still
    /// decodes must re-encode to exactly the edited text.
    #[test]
    fn every_single_edit_that_decodes_re_encodes_to_itself() {
        let text = canonical_text();
        let mut accepted = 0;
        for pos in 0..text.len() {
            for kind in 0..3 {
                for &byte in EDIT_BYTES {
                    let mut bytes = text.as_bytes().to_vec();
                    apply_edit(&mut bytes, kind, pos, byte);
                    let Ok(edited) = String::from_utf8(bytes) else {
                        continue;
                    };
                    if let Ok(d) = decode_result(&edited) {
                        assert_eq!(encode_result(&d), edited, "edit {kind} at {pos}");
                        accepted += 1;
                    }
                }
            }
        }
        // Digit-for-digit substitutions keep a text canonical.
        assert!(accepted > 0);
    }

    proptest! {
        #[test]
        fn writer_matches_the_reference_encoder(r in any_result(), m in any_meta()) {
            let reference = reference_encode_result(&r);
            prop_assert_eq!(encode_result(&r), reference.clone());
            // Pre-sizing is exact per row and bounds the header.
            let rows: Vec<usize> = reference
                .split_inclusive('\n')
                .filter(|l| l.starts_with("f "))
                .map(str::len)
                .collect();
            prop_assert_eq!(rows, r.finished.iter().map(row_len).collect::<Vec<_>>());
            prop_assert!(result_capacity(&r) >= reference.len());
            prop_assert!(result_capacity(&r) - reference.len() <= HEADER_BYTES + 2 * r.scheduler.len());
            prop_assert_eq!(result_fingerprint(&r), fnv1a_64(reference.as_bytes()));
            let meta_reference =
                reference_meta_header(&m) + &reference_encode_result(&m.result);
            prop_assert_eq!(encode_meta(&m), meta_reference);
            // The decoder takes back exactly what the writer wrote.
            let back = decode_result(&reference).expect("canonical text decodes");
            prop_assert_eq!(encode_result(&back), reference);
        }

        #[test]
        fn whatever_decodes_re_encodes_to_itself(
            r in any_result(),
            edits in prop::collection::vec(any_edit(), 1..4),
        ) {
            let Some(text) = apply_edits(&reference_encode_result(&r), &edits) else {
                return;
            };
            if let Ok(d) = decode_result(&text) {
                prop_assert_eq!(encode_result(&d), text);
            }
        }
    }

    /// A result whose text exercises every field shape the non-canonical
    /// variants below edit: ids, hex with letters, a user.
    pub(crate) fn canonical_text() -> String {
        let mut r = sample_result();
        r.finished[0].submit = 0.1;
        encode_result(&r)
    }

    /// Non-canonical spellings of `canonical_text()` that the pre-canonical
    /// decoder accepted and decoded to an equal value.
    pub(crate) fn non_canonical_variants(text: &str) -> Vec<(&'static str, String)> {
        vec![
            ("double space", text.replacen("\nf 1 ", "\nf  1 ", 1)),
            ("tab", text.replacen("\nf 1 ", "\nf 1\t", 1)),
            ("plus sign", text.replacen("\nf 1 ", "\nf +1 ", 1)),
            ("leading zero", text.replacen("\nf 1 ", "\nf 01 ", 1)),
            (
                "uppercase hex",
                text.replacen("3fb999999999999a", "3FB999999999999A", 1),
            ),
            ("crlf", text.replace('\n', "\r\n")),
        ]
    }

    #[test]
    fn non_canonical_results_are_rejected() {
        let text = canonical_text();
        assert!(text.contains("\nf 1 3fb999999999999a "), "{text}");
        decode_result(&text).expect("canonical text decodes");
        for (what, variant) in non_canonical_variants(&text) {
            assert_ne!(variant, text, "{what} edit applied");
            assert!(decode_result(&variant).is_err(), "{what} accepted");
        }
        // Trailing bytes, a missing final newline, a non-canonical name
        // escape and an empty field are refused too.
        assert!(decode_result(&format!("{text}\n")).is_err());
        assert!(decode_result(&text[..text.len() - 1]).is_err());
        assert!(decode_result(&text.replace("scheduler easy", "scheduler e\\asy")).is_err());
        assert!(decode_result(&text.replace("machine_size 64", "machine_size ")).is_err());
    }

    #[test]
    fn meta_header_is_canonical_only() {
        let m = MetaSummary {
            sites: 2,
            dispatch: "round-robin".into(),
            epochs: 1,
            dispatched: 2,
            migrations: 0,
            per_site_finished: vec![1, 10],
            result: sample_result(),
        };
        let text = encode_meta(&m);
        decode_meta(&text).expect("canonical meta decodes");
        for variant in [
            "per_site 2  1 10",
            "per_site 2 1\t10",
            "per_site 2 +1 10",
            "per_site 2 1 010",
            "per_site 2 1 10 ",
        ] {
            let edited = text.replace("per_site 2 1 10", variant);
            assert!(decode_meta(&edited).is_err(), "{variant:?} accepted");
        }
        assert!(decode_meta(&text.replace('\n', "\r\n")).is_err());
    }

    #[test]
    fn codec_errors_name_the_line() {
        let text = canonical_text();
        let e = decode_result(&text.replacen("\nf 1 ", "\nf 01 ", 1)).unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(e.reason.contains("job id"), "{e}");
        let stale = text.replace(
            &format!("sched_version {SCHED_VERSION}"),
            &format!("sched_version {}", SCHED_VERSION + 1),
        );
        let e = decode_result(&stale).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.reason.starts_with("stale sched_version"), "{e}");
        let e = decode_result(&text[..text.len() / 2]).unwrap_err();
        assert_eq!(e.line, 0, "{e}");
    }

    fn sample_result() -> SimulationResult {
        SimulationResult {
            scheduler: "easy".into(),
            machine_size: 64,
            finished: vec![
                FinishedJob {
                    id: 1,
                    submit: 0.0,
                    start: 0.5,
                    first_start: 0.25,
                    end: 100.125,
                    procs: 32,
                    restarts: 1,
                    user: Some(7),
                },
                FinishedJob {
                    id: 2,
                    submit: -0.0,
                    start: 1.0e-9,
                    first_start: 1.0e-9,
                    end: 1.0e12,
                    procs: 1,
                    restarts: 0,
                    user: None,
                },
            ],
            unfinished: 3,
            discarded: 1,
            idle_while_queued: 320.0625,
            busy_integral: 1.0 / 3.0,
            lost_node_seconds: 0.1 + 0.2,
            kills: 2,
            rejected_decisions: 4,
            coalesced_wakeups: 5,
            events_processed: 999,
            end_time: 12345.6789,
        }
    }

    #[test]
    fn result_round_trips_bit_for_bit() {
        let r = sample_result();
        let text = encode_result(&r);
        let back = decode_result(&text).unwrap();
        assert_eq!(back, r);
        // Determinism: equal values, equal bytes, equal fingerprints.
        assert_eq!(encode_result(&back), text);
        assert_eq!(result_fingerprint(&back), result_fingerprint(&r));
    }

    #[test]
    fn meta_round_trips_bit_for_bit() {
        let m = MetaSummary {
            sites: 12,
            dispatch: "least-pressure".into(),
            epochs: 480,
            dispatched: 10_000,
            migrations: 37,
            per_site_finished: (0..12).map(|i| 800 + i).collect(),
            result: sample_result(),
        };
        let text = encode_meta(&m);
        let back = decode_meta(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(encode_meta(&back), text);
        // Degenerate corner: no per-site counts at all still round-trips.
        let empty = MetaSummary {
            per_site_finished: Vec::new(),
            ..m
        };
        assert_eq!(decode_meta(&encode_meta(&empty)).unwrap(), empty);
    }

    #[test]
    fn meta_rejects_mangled_headers() {
        let m = MetaSummary {
            sites: 2,
            dispatch: "round-robin".into(),
            epochs: 1,
            dispatched: 2,
            migrations: 0,
            per_site_finished: vec![1, 1],
            result: sample_result(),
        };
        let text = encode_meta(&m);
        assert!(decode_meta(&text.replace(META_MAGIC, "psbench-meta v0")).is_err());
        assert!(decode_meta(&text.replace("per_site 2 1 1", "per_site 3 1 1")).is_err());
        assert!(decode_meta(&text.replace("per_site 2 1 1", "per_site 2 1 1 9")).is_err());
        assert!(decode_meta(text.split("psbench-result").next().unwrap()).is_err());
    }

    #[test]
    fn profile_round_trips_bit_for_bit() {
        use psbench_workload::{Lublin99, WorkloadModel};
        let log = Lublin99::default().generate(300, 11);
        let p = WorkloadProfile::of_log("lublin99 roundtrip", &log);
        let text = encode_profile(&p);
        let back = decode_profile(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(encode_profile(&back), text);
    }

    #[test]
    fn empty_profile_round_trips_including_lazy_hist2() {
        let p = WorkloadProfile::named("empty");
        let back = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(back, p);
        assert!(
            back.size_runtime_hist.counts().is_empty(),
            "stays unallocated"
        );
    }

    #[test]
    fn names_with_escapes_survive() {
        let mut p = WorkloadProfile::named("weird \\ name\nwith newline\r");
        p.jobs = 0;
        let back = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(back.name, p.name);
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        assert!(decode_profile("nonsense").is_err());
        assert!(decode_result("psbench-result v999\n").is_err());
        let good = encode_result(&sample_result());
        // Truncation is detected.
        let truncated = &good[..good.len() - 5];
        assert!(decode_result(truncated).is_err());
        // A tampered field is detected as malformed (non-hex float).
        let tampered = good.replace("machine_size 64", "machine_size sixty-four");
        assert!(decode_result(&tampered).is_err());
    }
}
