//! Machinery the three workloads share: the server settings, repeated
//! timed set-up, the measured loop (one closed-loop op thread beside
//! one open-loop reader), and the end-to-end figures it yields.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nlq_engine::{Db, SqlEngine};
use nlq_server::ServerConfig;

use crate::gen::Rng;
use crate::openloop::{self, Sample};
use crate::stats::{median, peak_rss_mib, percentile, sorted};
use crate::trace::Recorder;
use crate::{layers, Config, Report};

/// Server workers, connections and generator threads are held to the
/// 2-core host the benchmark was sized on.
pub(crate) const WORKERS: usize = 2;

/// Keys per `batch_score` read.
pub(crate) const READ_KEYS: usize = 256;

/// Rows per ingest envelope (and per envelope probe).
pub(crate) const ENVELOPE_ROWS: usize = 512;

/// Op ids of reads carry this bit, so they never collide with op ids
/// of the closed loop.
const READ_OP: u64 = 1 << 40;

/// How an op went wrong.
#[derive(Debug)]
pub(crate) enum Fail {
    /// An error, a refusal (`Retry`) or a timeout: counted in the fail
    /// share, the run goes on.
    Miss(String),
    /// A wrong answer: the run stops and exits nonzero.
    Wrong(String),
}

impl<E: std::fmt::Display> From<E> for Fail {
    fn from(e: E) -> Fail {
        Fail::Miss(e.to_string())
    }
}

/// Loopback server settings for a workload.
pub(crate) fn server_config(refresh: Option<Duration>) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_connections: 4,
        query_timeout: Duration::from_secs(20),
        max_result_rows: usize::MAX,
        chunk_bytes: 256 << 10,
        trace_ring: 256,
        refresh_cadence: refresh,
        ..ServerConfig::default()
    }
}

/// `SELECT nlq_list(d, 'triang', cols) FROM X`.
pub(crate) fn gamma_sql(cols: &[String]) -> String {
    format!(
        "SELECT nlq_list({}, 'triang', {}) FROM X",
        cols.len(),
        cols.join(", ")
    )
}

/// Scores every row of `X(i, X1..Xd)` against the one-row `model`.
pub(crate) fn score_sql(d: usize, model: &str) -> String {
    let xs: Vec<String> = (1..=d).map(|a| format!("x.X{a}")).collect();
    let bs: Vec<String> = (1..=d).map(|a| format!("b.b{a}")).collect();
    format!(
        "SELECT x.i, linearregscore({}, b.b0, {}) FROM X x CROSS JOIN {model} b",
        xs.join(", "),
        bs.join(", ")
    )
}

/// `X1..Xd`.
pub(crate) fn x_cols(d: usize) -> Vec<String> {
    (1..=d).map(|a| format!("X{a}")).collect()
}

/// Builds a workload `reps` times and keeps the last build. Each build
/// is timed; an earlier build is dropped (its server shut down) before
/// the next starts, so only one is alive at a time.
pub(crate) fn timed_setups<T>(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// What the measured loop saw.
pub(crate) struct LoopOut {
    /// Latency of every attempted closed-loop op, ms; a failed op
    /// counts at the run's length (a miss of any latency limit).
    pub op_ms: Vec<f64>,
    pub op_fails: u64,
    /// Rows summarized, delivered or acked by the successful ops.
    pub rows: u64,
    pub elapsed_s: f64,
    pub reads: Vec<Sample>,
    pub spans: Recorder,
    /// Traced runs: median latency of the traced ops over that of the
    /// untraced ops, minus 1.
    pub tracing_overhead_share: f64,
}

impl LoopOut {
    pub fn attempted(&self) -> u64 {
        (self.op_ms.len() + self.reads.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.op_fails + self.reads.iter().filter(|s| !s.ok).count() as u64
    }

    /// Read latencies from their due times, ms, ascending; failed
    /// reads count at `miss_ms`.
    pub fn read_ms(&self, miss_ms: f64) -> Vec<f64> {
        sorted(
            self.reads
                .iter()
                .map(|s| {
                    if s.ok {
                        s.latency.as_secs_f64() * 1e3
                    } else {
                        miss_ms
                    }
                })
                .collect(),
        )
    }

    /// p99 of how late the reader sent, ms.
    pub fn generator_lag_p99_ms(&self) -> f64 {
        let lag = sorted(
            self.reads
                .iter()
                .map(|s| s.lateness.as_secs_f64() * 1e3)
                .collect(),
        );
        percentile(&lag, 0.99)
    }
}

/// Runs the closed-loop `op` on this thread and the open-loop `read`
/// at `rate` per second on a second thread, both for `seconds`. `op`
/// returns the rows it summarized, delivered or acked. A wrong answer
/// from either stops both and is returned as the error.
pub(crate) fn measure(
    seconds: f64,
    rate: f64,
    seed: u64,
    traced: bool,
    mut op: impl FnMut(u64, &mut Recorder) -> Result<u64, Fail>,
    mut read: impl FnMut(u64, &mut Recorder) -> Result<(), Fail> + Send,
) -> Result<LoopOut, String> {
    let miss_ms = seconds * 1e3;
    let stop = AtomicBool::new(false);
    let wrong: Mutex<Option<String>> = Mutex::new(None);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let note_wrong = |msg: String| {
        stop.store(true, Ordering::SeqCst);
        wrong.lock().expect("wrong-answer slot").get_or_insert(msg);
    };
    let out = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut spans = Recorder::new(start, traced);
            let mut logged = 0;
            let reads = openloop::run(rate, seed, start, until, |i| {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
                match read(READ_OP | i, &mut spans) {
                    Ok(()) => true,
                    Err(Fail::Miss(e)) => {
                        if logged < 5 {
                            eprintln!("read {i} failed: {e}");
                            logged += 1;
                        }
                        false
                    }
                    Err(Fail::Wrong(e)) => {
                        note_wrong(format!("read {i}: {e}"));
                        false
                    }
                }
            });
            (reads, spans)
        });
        // When traced, a seeded coin picks which ops record spans, so
        // traced and untraced ops of the same loop give the tracing
        // overhead without drift between them (a fixed alternation
        // would alias with period-2 patterns of the op itself).
        let mut spans = Recorder::new(start, traced);
        let mut untraced = Recorder::new(start, false);
        let mut coin = Rng::new(crate::gen::subseed(seed, 6));
        let (mut op_ms, mut op_fails, mut rows) = (Vec::new(), 0, 0);
        let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
        let mut i = 0u64;
        while Instant::now() < until && !stop.load(Ordering::SeqCst) {
            let heads = coin.next_u64() & 1 == 1;
            let t = Instant::now();
            let rec = if heads { &mut spans } else { &mut untraced };
            match op(i, rec) {
                Ok(r) => {
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    op_ms.push(ms);
                    if heads {
                        &mut traced_ms
                    } else {
                        &mut untraced_ms
                    }
                    .push(ms);
                    rows += r;
                }
                Err(Fail::Miss(e)) => {
                    if op_fails < 5 {
                        eprintln!("op {i} failed: {e}");
                    }
                    op_fails += 1;
                    op_ms.push(miss_ms);
                }
                Err(Fail::Wrong(e)) => note_wrong(format!("op {i}: {e}")),
            }
            i += 1;
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let (reads, read_spans) = reader.join().expect("reader thread panicked");
        spans.absorb(read_spans);
        let base = median(&untraced_ms);
        let tracing_overhead_share = if traced && base > 0.0 {
            median(&traced_ms) / base - 1.0
        } else {
            0.0
        };
        LoopOut {
            op_ms,
            op_fails,
            rows,
            elapsed_s,
            reads,
            spans,
            tracing_overhead_share,
        }
    });
    match wrong.into_inner().expect("wrong-answer slot") {
        Some(msg) => Err(format!("wrong answer: {msg}")),
        None => Ok(out),
    }
}

/// The end-to-end figures of one untraced loop.
pub(crate) fn end_to_end(setup_s: f64, out: &LoopOut) -> Vec<(&'static str, f64)> {
    let ops = sorted(out.op_ms.clone());
    let attempted = out.attempted().max(1) as f64;
    vec![
        ("setup_s", setup_s),
        ("rows_per_s", out.rows as f64 / out.elapsed_s),
        ("op_p50_ms", percentile(&ops, 0.5)),
        ("peak_rss_mb", peak_rss_mib()),
        ("ok_share", 1.0 - out.failed() as f64 / attempted),
    ]
}

/// What the per-layer probes need to know about a set-up workload.
pub(crate) struct Subject<'a> {
    /// The engine the server serves.
    pub engine: &'a dyn SqlEngine,
    /// Its shard databases (one, for a single `Db`).
    pub shards: Vec<&'a Db>,
    pub addr: SocketAddr,
    /// Columns of the Γ query.
    pub gamma_cols: Vec<String>,
    /// Feature columns `X1..Xd` a model scores.
    pub d: usize,
    pub with_y: bool,
    /// One-row regression model table.
    pub model: &'static str,
    /// The SQL of the workload's own op.
    pub main_sql: String,
    /// Base rows (keys `1..=n`).
    pub n: usize,
    pub seed: u64,
}

/// Closed-loop ops a traced run needs before its op p90 is reported:
/// with fewer, the p90 rests on the top handful of samples.
const MIN_OPS: usize = 100;

/// Facts only the measured loop or the workload's checks can give.
pub(crate) struct LoopFacts {
    pub op_p90_ms: f64,
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub generator_lag_p99_ms: f64,
    pub tracing_overhead_share: f64,
    /// Fsyncs per group commit of the workload's own log; `None` when
    /// its engine keeps none.
    pub wal_fsyncs_per_commit: Option<f64>,
}

impl LoopFacts {
    /// The facts of a traced loop. Fails a run with fewer than
    /// [`MIN_OPS`] closed-loop ops.
    pub fn of(
        out: &LoopOut,
        seconds: f64,
        wal_fsyncs_per_commit: Option<f64>,
    ) -> Result<LoopFacts, String> {
        if out.op_ms.len() < MIN_OPS {
            return Err(format!(
                "only {} closed-loop ops in {seconds} s; the op p90 needs at least {MIN_OPS}",
                out.op_ms.len()
            ));
        }
        let reads = out.read_ms(seconds * 1e3);
        Ok(LoopFacts {
            op_p90_ms: percentile(&sorted(out.op_ms.clone()), 0.9),
            read_p50_ms: percentile(&reads, 0.5),
            read_p99_ms: percentile(&reads, 0.99),
            generator_lag_p99_ms: out.generator_lag_p99_ms(),
            tracing_overhead_share: out.tracing_overhead_share,
            wal_fsyncs_per_commit,
        })
    }
}

/// The traced run's report for a workload whose engine keeps no log:
/// its WAL figures come from the layer probe's own log, and it has no
/// log to recover, so `engine.recovery_s` reads 0.
pub(crate) fn traced_report(
    cfg: &Config,
    out: LoopOut,
    subject: &Subject<'_>,
) -> Result<Report, String> {
    let facts = LoopFacts::of(&out, cfg.seconds, None)?;
    let report = Report::new(&out, Vec::new());
    let mut spans = out.spans;
    let mut metrics = layers::probe(subject, &facts, cfg, &mut spans)?;
    eprintln!("layers: engine.recovery_s = 0, the engine keeps no log to recover");
    metrics.push(("engine.recovery_s", 0.0));
    layers::write_trace(cfg, &spans)?;
    Ok(Report { metrics, ..report })
}
