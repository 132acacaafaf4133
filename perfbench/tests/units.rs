//! Unit tests of the benchmark's own arithmetic: median choice,
//! span self time, failure counting and report emission.

use graphpim::config::PimMode;
use graphpim::experiments::cache::json;
use graphpim::experiments::fig07::Row;
use graphpim::experiments::{RunKey, EVAL_KERNELS};
use graphpim_graph::generate::LdbcSize;
use graphpim_perfbench::report::Report;
use graphpim_perfbench::serve::{Endpoint, Mix};
use graphpim_perfbench::spans::{covered, Recorder};
use graphpim_perfbench::stats::{median, Tally};
use graphpim_perfbench::sweep::{reference_json, row_value_names, Reference, Sweep};
use std::path::PathBuf;

#[test]
fn median_is_a_measured_sample() {
    assert_eq!(median(&[7.5]), 7.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(
        median(&[4.0, 1.0, 3.0, 2.0]),
        2.0,
        "lower middle of an even count"
    );
    let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(median(&samples), 5.0);
}

#[test]
#[should_panic(expected = "no samples")]
fn median_of_nothing_panics() {
    median(&[]);
}

#[test]
fn covered_counts_each_instant_once_inside_the_window() {
    assert_eq!(covered(0.0, 10.0, &[]), 0.0);
    assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 3.0);
    // Overlapping and nested children count once.
    assert_eq!(
        covered(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0), (2.5, 3.0)]),
        4.0
    );
    // Only the part inside the window counts.
    assert_eq!(
        covered(2.0, 8.0, &[(0.0, 3.0), (7.0, 12.0), (9.0, 11.0)]),
        2.0
    );
    // Unsorted input.
    assert_eq!(
        covered(0.0, 10.0, &[(6.0, 9.0), (0.0, 2.0), (1.0, 7.0)]),
        9.0
    );
}

fn spin(micros: u64) {
    let start = std::time::Instant::now();
    while start.elapsed().as_micros() < u128::from(micros) {
        std::hint::spin_loop();
    }
}

#[test]
fn self_time_is_span_minus_its_children() {
    let mut rec = Recorder::new(true);
    rec.span("parent", "", |rec| {
        spin(200);
        rec.span("child", "a", |rec| {
            rec.span("grandchild", "a", |_| spin(300))
        });
        spin(200);
        rec.span("child", "b", |_| spin(300));
    });
    let spans = rec.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    let children = spans[1].duration() + spans[3].duration();
    let own = rec.self_time(0);
    assert!((own - (spans[0].duration() - children)).abs() < 1e-12);
    assert!(
        own >= 400e-6,
        "the parent's own spinning is its self time: {own}"
    );
    // The grandchild covers its parent, not the root.
    assert!(rec.self_time(1) < spans[1].duration());
    assert_eq!(rec.self_time(2), spans[2].duration());
    assert_eq!(rec.total("child", Some("b")), spans[3].duration());
    assert_eq!(rec.total("child", None), children);
}

#[test]
fn disabled_recorder_runs_the_call_and_records_nothing() {
    let mut rec = Recorder::new(false);
    assert_eq!(rec.span("x", "", |rec| rec.span("y", "", |_| 42)), 42);
    assert!(rec.spans().is_empty());
}

#[test]
fn tally_counts_failures_against_attempts() {
    let mut t = Tally::default();
    assert!(t.check(true));
    assert!(!t.check(false));
    t.check(true);
    t.check(true);
    assert_eq!((t.attempted, t.failed), (4, 1));
    t.absorb(Tally {
        attempted: 4,
        failed: 3,
    });
    assert_eq!((t.attempted, t.failed), (8, 4));
}

fn rows(scale: f64) -> Vec<Row> {
    EVAL_KERNELS
        .iter()
        .copied()
        .chain(["Average"])
        .enumerate()
        .map(|(i, k)| Row {
            workload: k.to_string(),
            upei: 1.0 + i as f64 * scale,
            graphpim: 2.0 + i as f64 * scale,
        })
        .collect()
}

fn reference_of(rows: &[Row]) -> Reference {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("reference-{}.json", std::process::id()));
    std::fs::write(&path, reference_json(LdbcSize::K1, rows)).unwrap();
    let reference = Reference::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    reference
}

#[test]
fn reference_check_counts_each_mismatched_value() {
    let want = rows(0.25);
    let reference = reference_of(&want);

    let mut t = Tally::default();
    reference.check(&want, &mut t);
    assert_eq!((t.attempted, t.failed), (18, 0));

    // Within the 1e-6 relative tolerance passes; beyond it fails.
    let mut got = want.clone();
    got[2].upei *= 1.0 + 1e-7;
    got[5].graphpim *= 1.0 + 1e-5;
    let mut t = Tally::default();
    reference.check(&got, &mut t);
    assert_eq!((t.attempted, t.failed), (18, 1));

    // A missing row fails both its values; an extra row fails too.
    let mut got = want.clone();
    got.remove(0);
    got.push(Row {
        workload: "DFS".into(),
        upei: 1.0,
        graphpim: 1.0,
    });
    let mut t = Tally::default();
    reference.check(&got, &mut t);
    assert_eq!((t.attempted, t.failed), (20, 4));
}

#[test]
fn committed_references_hold_every_fig07_value() {
    for kind in [Sweep::Cold1k, Sweep::Warm10k] {
        let reference = Reference::load(&kind.reference_path()).unwrap();
        assert_ne!(reference, reference_of(&rows(0.25)));
    }
    assert_eq!(row_value_names().len(), 18);
}

#[test]
fn report_is_one_json_object_with_the_contract_keys() {
    let mut r = Report::default();
    r.tally.check(true);
    r.tally.check(false);
    r.metric("p50_ms", 1.5, "ms");
    r.metric("setup_s", 0.25, "s");
    let text = r.to_json();
    assert!(!text.contains('\n'));
    let doc = json::parse(&text).expect("valid JSON");
    let obj = doc.as_object().unwrap();
    assert_eq!(obj.get("correct").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(obj.get("attempted").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(obj.get("failed").and_then(|v| v.as_u64()), Some(1));
    let metrics = obj.get("metrics").and_then(|v| v.as_object()).unwrap();
    let p50 = metrics.get("p50_ms").and_then(|v| v.as_object()).unwrap();
    assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(1.5));
    assert_eq!(p50.get("unit").and_then(|v| v.as_str()), Some("ms"));
    assert_eq!(r.metrics().len(), 2);
    // Values keep every digit.
    let mut r = Report::default();
    r.tally.check(true);
    r.metric("x", 0.1 + 0.2, "s");
    assert!(r.to_json().contains("0.30000000000000004"));
    assert!(r.to_json().starts_with("{\"correct\": true,"));
}

#[test]
fn report_never_passes_a_broken_run() {
    // Nothing checked: one failed attempt, not a pass.
    let r = Report::default();
    assert_eq!(
        r.to_json(),
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
    );
    // A non-finite value is written as a number and fails the run.
    let mut r = Report::default();
    r.tally.check(true);
    r.metric("p50_ms", f64::NAN, "ms");
    let text = r.to_json();
    assert!(json::parse(&text).is_some());
    assert!(text.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
}

#[test]
fn request_mix_follows_the_seed() {
    let keys: Vec<RunKey> = EVAL_KERNELS
        .iter()
        .flat_map(|k| PimMode::ALL.map(|m| RunKey::new(k, m, LdbcSize::K1)))
        .collect();
    let draw = |seed, client| {
        let mut mix = Mix::new(seed, client);
        (0..400).map(|_| mix.pick(&keys)).collect::<Vec<_>>()
    };
    assert_eq!(draw(7, 0), draw(7, 0));
    assert_ne!(draw(7, 0), draw(8, 0));
    assert_ne!(draw(7, 0), draw(7, 1));
    // Uniform over the 26 paths: 2600 draws put about 100 on each.
    let mut mix = Mix::new(7, 0);
    let seq: Vec<Endpoint> = (0..2600).map(|_| mix.pick(&keys)).collect();
    let mut counts = std::collections::HashMap::new();
    for e in &seq {
        *counts.entry(e.path()).or_insert(0) += 1;
    }
    assert!(
        counts.values().all(|n| (50..=150).contains(n)),
        "{counts:?}"
    );
    let stems: std::collections::HashSet<String> = seq.iter().map(Endpoint::path).collect();
    assert_eq!(stems.len(), 26, "figure, metrics and all 24 counters");
}
