//! Every workload at a tiny size, with two seeds: each named metric is
//! emitted with the unit `BENCHMARK.json` gives it, and a corrupted
//! answer from the program fails the run.

use std::path::PathBuf;

use nlq_perfbench::catalog::{END_TO_END, PER_LAYER};
use nlq_perfbench::{run, Config, Report, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Config {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-{seed}-{trace}-{tag}", workload.name()));
    Config {
        rows: 3000,
        setup_reps: 2,
        probe_reps: 1,
        ..Config::new(workload, seed, 1.2, trace, &out)
    }
}

/// `(name, unit)` pairs listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| u[..u.find('"').expect("unit closes")].to_string())
                .expect("unit present");
            (name, unit)
        })
        .collect()
}

fn assert_emits_catalogue(report: &Report, trace: bool) {
    let (catalogue, section) = if trace {
        (PER_LAYER, "per_layer")
    } else {
        (END_TO_END, "end_to_end")
    };
    let listed = listed(section);
    assert_eq!(listed.len(), catalogue.len(), "{section} entries");
    let line = report.to_json().expect("result line");
    for m in catalogue {
        assert!(
            listed.contains(&(m.name.to_string(), m.unit.to_string())),
            "BENCHMARK.json lists {} with unit {}",
            m.name,
            m.unit
        );
        let field = format!("\"{}\": {{\"value\": ", m.name);
        let at = line
            .find(&field)
            .unwrap_or_else(|| panic!("{} emitted", m.name));
        let rest = &line[at + field.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("value is a number");
        assert!(value.is_finite());
        let expected = format!("{value}, \"unit\": \"{}\"}}", m.unit);
        assert!(
            rest.starts_with(&expected),
            "{} carries unit {}",
            m.name,
            m.unit
        );
    }
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0, "no op fails at the seed commit");
}

fn emits_every_metric(workload: Workload) {
    for seed in [1, 2] {
        for trace in [false, true] {
            let report = run(&tiny(workload, seed, trace, "emit"))
                .unwrap_or_else(|e| panic!("{} seed {seed} trace {trace}: {e}", workload.name()));
            assert_emits_catalogue(&report, trace);
        }
    }
}

fn corrupted_answer_fails(workload: Workload) {
    let cfg = Config {
        tamper: true,
        ..tiny(workload, 3, false, "tamper")
    };
    let err = run(&cfg).expect_err("a corrupted answer must fail its check");
    assert!(err.contains("wrong answer"), "{err}");
}

#[test]
fn gamma_build_emits_every_metric() {
    emits_every_metric(Workload::GammaBuild);
}

#[test]
fn score_stream_emits_every_metric() {
    emits_every_metric(Workload::ScoreStream);
}

#[test]
fn feature_serve_emits_every_metric() {
    emits_every_metric(Workload::FeatureServe);
}

#[test]
fn gamma_build_rejects_a_perturbed_gamma_entry() {
    corrupted_answer_fails(Workload::GammaBuild);
}

#[test]
fn score_stream_rejects_a_wrong_score() {
    corrupted_answer_fails(Workload::ScoreStream);
}

#[test]
fn feature_serve_rejects_a_short_ack() {
    corrupted_answer_fails(Workload::FeatureServe);
}
