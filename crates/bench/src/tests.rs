use crate::parse_args;
use crate::snapshot::{diff, parse_row, read, render, row, text, write_row, Row, Suite};
use crate::suites::{outage_slope_warning, reserve_slope_warning, suite};

const BASELINES: [(&str, &str); 3] = [
    ("sim", include_str!("../../../BENCH_sim.json")),
    ("sweep", include_str!("../../../BENCH_sweep.json")),
    ("meta", include_str!("../../../BENCH_meta.json")),
];

fn ids(name: &str, full: bool) -> Vec<String> {
    suite(name, full)
        .unwrap()
        .cells
        .into_iter()
        .map(|c| c.0)
        .collect()
}

#[test]
fn committed_baselines_round_trip_byte_for_byte() {
    for (name, committed) in BASELINES {
        let lines: Vec<&str> = committed
            .lines()
            .filter(|l| l.trim_start().starts_with("{\""))
            .collect();
        assert!(!lines.is_empty(), "{name}: no cell lines");
        for line in lines {
            let r = parse_row(line).unwrap_or_else(|| panic!("{name}: unreadable {line}"));
            assert_eq!(write_row(&r), line.trim().trim_end_matches(','), "{name}");
        }
        // The whole file re-renders from what the reader took out of it.
        let snap = read(committed).unwrap();
        let scale = snap.scale.as_deref().unwrap();
        let s = suite(name, scale == "full").unwrap();
        assert_eq!(render(&s, scale, &snap.rows), committed, "{name}");
        // And a baseline diffed against itself is clean.
        let d = diff(&s, scale, &snap, &snap.rows);
        assert!(
            d.errors.is_empty() && d.warnings.is_empty(),
            "{name}: {d:?}"
        );
    }
}

#[test]
fn quoted_values_keep_their_commas_and_escapes() {
    let line = r#"    {"id": "E10", "title": "a, b} \"c\", d", "rows": 4},"#;
    let r = parse_row(line).unwrap();
    assert_eq!(r[1].1, r#""a, b} \"c\", d""#);
    assert_eq!(r[2], ("rows".to_string(), "4".to_string()));
    assert!(parse_row(r#"{"id": "unterminated}"#).is_none());
}

#[test]
fn quick_cells_are_a_subset_of_full_cells_and_of_the_baselines() {
    for (name, committed) in BASELINES {
        let (quick, full) = (ids(name, false), ids(name, true));
        assert!(quick.iter().all(|id| full.contains(id)), "{name}");
        let snap = read(committed).unwrap();
        let expected = ids(name, snap.scale.as_deref() == Some("full"));
        let base: Vec<&str> = snap.rows.iter().map(|r| r[0].1.trim_matches('"')).collect();
        assert_eq!(
            expected, base,
            "{name}: cell list differs from its baseline"
        );
    }
}

fn synthetic(timing: &'static str) -> Suite {
    Suite {
        list_key: "cells",
        id_key: "id",
        headers: &[],
        timing,
        cells: Vec::new(),
    }
}

fn cell_row(id: &str, fingerprint: &str, wall_ms: &str) -> Row {
    let mut r = row([("id", text(id))]);
    r.extend(row([
        ("fingerprint", text(fingerprint)),
        ("wall_ms", wall_ms.to_string()),
    ]));
    r
}

fn baseline(scale: &str, rows: &[Row]) -> crate::snapshot::Snapshot {
    read(&render(&synthetic("wall_ms"), scale, rows)).unwrap()
}

#[test]
fn diff_fails_on_result_drift_and_warns_on_timing() {
    let s = synthetic("wall_ms");
    let base = baseline("quick", &[cell_row("a", "00ff", "100")]);

    let d = diff(&s, "quick", &base, &[cell_row("a", "00fe", "100")]);
    assert_eq!(d.errors.len(), 1, "{d:?}");
    assert!(
        d.errors[0].contains("fingerprint \"00ff\" -> \"00fe\""),
        "{d:?}"
    );

    let d = diff(
        &s,
        "quick",
        &base,
        &[cell_row("a", "00ff", "100"), cell_row("b", "1", "1")],
    );
    assert_eq!(d.errors.len(), 1, "{d:?}");
    assert!(d.errors[0].contains("`b` is measured but missing"), "{d:?}");

    let d = diff(&s, "quick", &base, &[cell_row("a", "00ff", "125")]);
    assert!(d.errors.is_empty(), "{d:?}");
    assert_eq!(d.warnings.len(), 1, "{d:?}");

    let d = diff(&s, "quick", &base, &[cell_row("a", "00ff", "119")]);
    assert!(d.errors.is_empty() && d.warnings.is_empty(), "{d:?}");

    // An extra or a missing result field is drift as well.
    let mut extra = cell_row("a", "00ff", "100");
    extra.push(("jobs".to_string(), "7".to_string()));
    assert_eq!(diff(&s, "quick", &base, &[extra]).errors.len(), 1);
}

#[test]
fn higher_is_better_timing_warns_on_a_drop() {
    let s = synthetic("events_per_sec");
    let with_rate = |eps: &str| {
        let mut r = row([("id", text("a")), ("wall_ms", "1".to_string())]);
        r.push(("events_per_sec".to_string(), eps.to_string()));
        r
    };
    let base = read(&render(&s, "full", &[with_rate("1000")])).unwrap();
    // `wall_ms` is not the gated field here, so its change is silent.
    assert!(diff(&s, "full", &base, &[with_rate("900")])
        .warnings
        .is_empty());
    let d = diff(&s, "full", &base, &[with_rate("700")]);
    assert!(d.errors.is_empty() && d.warnings.len() == 1, "{d:?}");
}

#[test]
fn baseline_only_cells_warn_only_at_the_baseline_scale() {
    let s = synthetic("wall_ms");
    let rows = [cell_row("a", "1", "1"), cell_row("big", "2", "2")];
    let measured = [cell_row("a", "1", "1")];
    let d = diff(&s, "quick", &baseline("full", &rows), &measured);
    assert!(d.errors.is_empty() && d.warnings.is_empty(), "{d:?}");
    let d = diff(&s, "full", &baseline("full", &rows), &measured);
    assert!(d.errors.is_empty() && d.warnings.len() == 1, "{d:?}");
}

#[test]
fn outage_slope_warns_only_when_both_cells_ran_and_the_ratio_is_super_linear() {
    let small = cell_row("easy_200k_outages", "1", "1000");
    let rows = |wall: &str| [small.clone(), cell_row("easy_400k_outages", "2", wall)];
    assert_eq!(outage_slope_warning(&rows("2100")), None);
    assert_eq!(outage_slope_warning(&rows("2800")), None);
    let w = outage_slope_warning(&rows("3700")).expect("3.7 > 2.8");
    assert!(w.contains("outage slope 3.70 > 2.8"), "{w}");
    assert_eq!(outage_slope_warning(&rows("3700")[..1]), None);
    assert_eq!(outage_slope_warning(&rows("3700")[1..]), None);
    // Both cells are in the quick suite, so CI always computes the slope.
    let quick = ids("sim", false);
    assert!(["easy_200k_outages", "easy_400k_outages"]
        .iter()
        .all(|id| quick.iter().any(|q| q == id)));
}

#[test]
fn reserve_slope_warns_only_when_both_cells_ran_and_the_ratio_is_super_linear() {
    let small = cell_row("s16-j20000-reserve", "1", "100");
    let rows = |wall: &str| [small.clone(), cell_row("s16-j40000-reserve", "2", wall)];
    assert_eq!(reserve_slope_warning(&rows("210")), None);
    assert_eq!(reserve_slope_warning(&rows("280")), None);
    let w = reserve_slope_warning(&rows("390")).expect("3.9 > 2.8");
    assert!(w.contains("reserve slope 3.90 > 2.8"), "{w}");
    assert!(w.contains("`s16-j40000-reserve` took 390 ms"), "{w}");
    assert_eq!(reserve_slope_warning(&rows("390")[..1]), None);
    assert_eq!(reserve_slope_warning(&rows("390")[1..]), None);
    // Both cells run at both scales, so CI always computes the slope.
    for full in [false, true] {
        let cells = ids("meta", full);
        assert!(["s16-j20000-reserve", "s16-j40000-reserve"]
            .iter()
            .all(|id| cells.iter().any(|c| c == id)));
    }
}

#[test]
fn bad_arguments_are_errors() {
    let parse = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|a| (a.name, a.scale, a.repeat, a.out, a.baseline))
    };
    assert_eq!(
        parse(&[
            "meta",
            "--scale",
            "full",
            "--repeat",
            "2",
            "--out",
            "o",
            "--baseline",
            "b"
        ]),
        Ok((
            "meta".into(),
            "full".into(),
            2,
            Some("o".into()),
            Some("b".into())
        ))
    );
    for bad in [
        &["sim", "--scale", "fulll"][..],
        &["sweep", "--repeat", "abc"],
        &["sweep", "--repeat", "0"],
        &["meta", "--out"],
        &["meta", "--out", "--baseline", "b"],
        &["meta", "--threads", "2"],
        &["simulate"],
        &[],
    ] {
        assert!(parse(bad).is_err(), "{bad:?} was accepted");
    }
}
