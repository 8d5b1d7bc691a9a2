//! The repository benchmark: three workloads that exercise the paper's
//! two costs — building a model from one Γ scan, and scoring a table
//! with scalar UDFs — plus a durable feature store that serves both.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gamma_build|score_stream|feature_serve \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer ledger instead. Either way the
//! last line of standard output is one JSON object, and a wrong answer
//! from the program ends the run with a nonzero exit and no result.

pub mod catalog;
mod common;
mod feature;
mod gamma;
pub mod gen;
pub mod host;
mod layers;
pub mod openloop;
mod score;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use common::LoopOut;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Γ over a 2-shard engine, then regression and PCA fits.
    GammaBuild,
    /// Every row of a table scored and streamed to the client.
    ScoreStream,
    /// Durable ingest beside point scoring and summary reads.
    FeatureServe,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the first two:
    /// `feature_serve`'s read latencies swing with host CPU steal more
    /// than its bounds allow, so it runs only on request.
    pub const ALL: [Workload; 3] = [
        Workload::GammaBuild,
        Workload::ScoreStream,
        Workload::FeatureServe,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GammaBuild => "gamma_build",
            Workload::ScoreStream => "score_stream",
            Workload::FeatureServe => "feature_serve",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Mean open-loop reads per second, well below saturation on a
    /// 2-core host; at least 1000 reads fall in a 10 s run.
    fn read_rate(self) -> f64 {
        match self {
            Workload::GammaBuild | Workload::ScoreStream => 100.0,
            Workload::FeatureServe => 200.0,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Report the per-layer ledger instead of the end-to-end figures.
    pub trace: bool,
    /// Base-table rows.
    pub rows: usize,
    /// Set-ups timed per run; the median is reported.
    pub setup_reps: usize,
    /// Repetitions of each heavy layer probe (light probes run 20×).
    pub probe_reps: usize,
    /// Scratch space for WAL directories; removed when the run ends.
    pub work_dir: PathBuf,
    /// Self-test only: corrupt one answer of the program before it is
    /// checked. The run must then fail.
    pub tamper: bool,
}

impl Config {
    /// A full-size run, with scratch space under `out_dir`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            rows: 1_000_000,
            setup_reps: 3,
            probe_reps: 5,
            work_dir: out_dir.join(format!("{}-{}", workload.name(), std::process::id())),
            tamper: false,
        }
    }

    /// Where traced runs write their spans.
    pub fn trace_dir(&self) -> PathBuf {
        self.work_dir
            .parent()
            .map_or_else(|| PathBuf::from("traces"), |p| p.join("traces"))
    }
}

/// A run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops and reads attempted.
    pub attempted: u64,
    /// Of those, failed, refused or timed out.
    pub failed: u64,
    /// Metric name and value; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn new(out: &LoopOut, metrics: Vec<(&'static str, f64)>) -> Report {
        Report {
            attempted: out.attempted(),
            failed: out.failed(),
            metrics,
        }
    }

    /// The one-line JSON result. Fails on a metric outside the
    /// catalogue or a value that is not a finite number.
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = catalog::lookup(name)
                .ok_or_else(|| format!("metric {name} is not in the catalogue"))?
                .unit;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// Runs one workload. An `Err` is a wrong answer or a run that could
/// not be carried out; either way there is no result to report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    eprintln!("host: {}", host::facts(&cfg.work_dir));
    let result = match cfg.workload {
        Workload::GammaBuild => gamma::run(cfg),
        Workload::ScoreStream => score::run(cfg),
        Workload::FeatureServe => feature::run(cfg),
    }
    .and_then(|report| {
        eprintln!("hardware: {}", host::references(&cfg.work_dir)?);
        Ok(report)
    });
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let report = result?;
    let want = if cfg.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    for m in want {
        if !report.metrics.iter().any(|(name, _)| *name == m.name) {
            return Err(format!("metric {} was not measured", m.name));
        }
    }
    if report.metrics.len() != want.len() {
        return Err("a metric was reported twice".into());
    }
    Ok(report)
}
