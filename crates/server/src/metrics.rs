//! Server-wide counters, gauges, and latency histograms.
//!
//! Everything here is updated from connection and pool threads and
//! rendered on demand by the `METRICS` command — either as a
//! two-column `(metric, value)` result set or as Prometheus text
//! exposition. Latencies go into fixed `AtomicHistogram`s over
//! `log10(microseconds)` in `[0, 7)` — bucket `b` covers
//! `[10^(b/2), 10^((b+1)/2))` µs, spanning 1 µs to 10 s in 14
//! buckets. Recording is lock-free: a bucket index is computed from
//! the latency and a single atomic increment lands the sample, so
//! worker threads never serialize on a histogram mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nlq_obs::PromText;
use nlq_storage::Value;

/// Commands tracked separately in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `Execute` requests.
    Execute,
    /// `SetOption` requests.
    SetOption,
    /// `Status` requests.
    Status,
    /// `Metrics` requests (both result-set and Prometheus forms).
    Metrics,
    /// `Ping` requests.
    Ping,
    /// `Shutdown` requests.
    Shutdown,
    /// `Cancel` requests (handled inline by session readers).
    Cancel,
    /// `Trace` requests (recent/slow query trace pages).
    Trace,
    /// Streamed-ingest envelopes (`InsertDone` commits; the header and
    /// chunk frames are unacknowledged and fold into this command).
    Ingest,
    /// `BatchScore` requests (keyed point-lookup scoring).
    BatchScore,
    /// `Checkpoint` requests (snapshot tables, truncate the WAL).
    Checkpoint,
}

/// How many commands the metrics arrays track.
const NCOMMANDS: usize = 11;

const COMMANDS: [(Command, &str); NCOMMANDS] = [
    (Command::Execute, "execute"),
    (Command::SetOption, "set_option"),
    (Command::Status, "status"),
    (Command::Metrics, "metrics"),
    (Command::Ping, "ping"),
    (Command::Shutdown, "shutdown"),
    (Command::Cancel, "cancel"),
    (Command::Trace, "trace"),
    (Command::Ingest, "ingest"),
    (Command::BatchScore, "batch_score"),
    (Command::Checkpoint, "checkpoint"),
];

fn slot(cmd: Command) -> usize {
    COMMANDS
        .iter()
        .position(|(c, _)| *c == cmd)
        .expect("command registered")
}

/// Histogram domain: log10 of the latency in microseconds.
const LAT_LO: f64 = 0.0;
const LAT_HI: f64 = 7.0;
const LAT_BUCKETS: usize = 14;
const LAT_WIDTH: f64 = (LAT_HI - LAT_LO) / LAT_BUCKETS as f64;

/// Lower bound of bucket `b` in microseconds: `10^(b/2)`.
fn bucket_bound_micros(b: usize) -> f64 {
    10f64.powf(LAT_LO + b as f64 * LAT_WIDTH)
}

/// Where one latency sample lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketIndex {
    Below,
    In(usize),
    Above,
}

/// Maps a latency in microseconds to its histogram bucket, preserving
/// the legacy `Histogram` semantics exactly: `log10(µs) < 0` falls
/// below, `> 7` falls above, and exactly `10^7` µs clamps into the
/// last bucket. The floating-point `log10` is boundary-corrected
/// against the exact bucket bounds so a sample of exactly `10^(b/2)`
/// µs always lands in bucket `b`.
fn bucket_index(micros: f64) -> BucketIndex {
    let x = micros.log10();
    if x < LAT_LO {
        return BucketIndex::Below;
    }
    if x > LAT_HI && micros > bucket_bound_micros(LAT_BUCKETS) {
        return BucketIndex::Above;
    }
    let mut b = (((x - LAT_LO) / LAT_WIDTH) as usize).min(LAT_BUCKETS - 1);
    // log10 rounding can land a boundary value one bucket off; nudge
    // against the exact bounds.
    while b + 1 < LAT_BUCKETS && micros >= bucket_bound_micros(b + 1) {
        b += 1;
    }
    while b > 0 && micros < bucket_bound_micros(b) {
        b -= 1;
    }
    BucketIndex::In(b)
}

/// A fixed-bucket latency histogram updated with plain atomic
/// increments — no mutex, so concurrent recorders never contend
/// beyond the cache line.
struct AtomicHistogram {
    buckets: [AtomicU64; LAT_BUCKETS],
    below: AtomicU64,
    above: AtomicU64,
    /// Sum of recorded latencies in microseconds (for Prometheus
    /// `_sum`).
    sum_micros: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: Default::default(),
            below: AtomicU64::new(0),
            above: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    fn record(&self, micros: u64) {
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        match bucket_index(micros.max(1) as f64) {
            BucketIndex::Below => self.below.fetch_add(1, Ordering::Relaxed),
            BucketIndex::In(b) => self.buckets[b].fetch_add(1, Ordering::Relaxed),
            BucketIndex::Above => self.above.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn counts(&self) -> [u64; LAT_BUCKETS] {
        std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }

    fn below(&self) -> u64 {
        self.below.load(Ordering::Relaxed)
    }

    fn above(&self) -> u64 {
        self.above.load(Ordering::Relaxed)
    }

    fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    fn total(&self) -> u64 {
        self.below() + self.counts().iter().sum::<u64>() + self.above()
    }
}

/// All server metrics; cheap to share behind an `Arc`.
pub struct Metrics {
    counts: [AtomicU64; NCOMMANDS],
    errors: [AtomicU64; NCOMMANDS],
    latency: [AtomicHistogram; NCOMMANDS],
    /// Connections refused by admission control.
    pub connections_rejected: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: AtomicU64,
    /// Currently open sessions.
    pub sessions_active: AtomicU64,
    /// Queries that hit the per-query wall-clock limit.
    pub query_timeouts: AtomicU64,
    /// Queries refused because the pool queue was full.
    pub queue_rejections: AtomicU64,
    /// Results dropped for exceeding row/byte limits.
    pub results_too_large: AtomicU64,
    /// Queries that ended with a client- or drain-initiated cancel.
    pub queries_cancelled: AtomicU64,
    /// Queries cancelled while still queued — the worker skipped them
    /// at dequeue without executing anything.
    pub queries_cancelled_queued: AtomicU64,
    /// `Cancel` request frames received (whether or not they landed
    /// on a live statement).
    pub cancel_requests: AtomicU64,
    /// Total `RowsChunk` payload bytes written to sockets.
    pub bytes_streamed: AtomicU64,
    /// Total `RowsChunk` frames written to sockets.
    pub chunks_streamed: AtomicU64,
    /// Summary-store hits accumulated across statements.
    pub summary_hits: AtomicU64,
    /// Summary-store misses accumulated across statements.
    pub summary_misses: AtomicU64,
    /// Stale summaries rebuilt on demand across statements.
    pub summary_stale_rebuilds: AtomicU64,
    /// Completed queries slower than the slow-query threshold.
    pub slow_queries: AtomicU64,
    /// Rows committed through streamed-ingest envelopes.
    pub ingest_rows: AtomicU64,
    /// Keys scored through `BatchScore` requests.
    pub batch_score_keys: AtomicU64,
    /// Models published by the refresh daemon (mirrored from the
    /// daemon's own counter at render time).
    pub model_refreshes: AtomicU64,
    /// Ingest envelopes refused with a retry hint because the refresh
    /// daemon was too far behind (`--staleness-bound`).
    pub ingest_backpressure: AtomicU64,
    /// Trace records overwritten after the rings wrapped (recent +
    /// slow rings; mirrored from the rings at render time). When this
    /// grows, `TRACE` pages anchored at old cursors report
    /// `truncated`.
    pub trace_ring_evicted: AtomicU64,
    /// CPU nanoseconds attributed to completed queries (worker thread
    /// plus per-shard executors, summed at gather).
    pub query_cpu_nanos: AtomicU64,
    /// Rows folded into bound summaries since their models were last
    /// published — the refresh daemon's worst-case lag (mirrored at
    /// render time; 0 without a daemon).
    pub refresh_lag_rows: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics {
            counts: Default::default(),
            errors: Default::default(),
            latency: std::array::from_fn(|_| AtomicHistogram::new()),
            connections_rejected: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            query_timeouts: AtomicU64::new(0),
            queue_rejections: AtomicU64::new(0),
            results_too_large: AtomicU64::new(0),
            queries_cancelled: AtomicU64::new(0),
            queries_cancelled_queued: AtomicU64::new(0),
            cancel_requests: AtomicU64::new(0),
            bytes_streamed: AtomicU64::new(0),
            chunks_streamed: AtomicU64::new(0),
            summary_hits: AtomicU64::new(0),
            summary_misses: AtomicU64::new(0),
            summary_stale_rebuilds: AtomicU64::new(0),
            slow_queries: AtomicU64::new(0),
            ingest_rows: AtomicU64::new(0),
            batch_score_keys: AtomicU64::new(0),
            model_refreshes: AtomicU64::new(0),
            ingest_backpressure: AtomicU64::new(0),
            trace_ring_evicted: AtomicU64::new(0),
            query_cpu_nanos: AtomicU64::new(0),
            refresh_lag_rows: AtomicU64::new(0),
        }
    }

    /// Records one completed command with its wall-clock latency.
    pub fn record(&self, cmd: Command, latency: Duration, ok: bool) {
        let s = slot(cmd);
        self.counts[s].fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors[s].fetch_add(1, Ordering::Relaxed);
        }
        self.latency[s].record(latency.as_micros() as u64);
    }

    /// Folds one statement's summary-store counters in.
    pub fn record_summary(&self, hits: u64, misses: u64, stale_rebuilds: u64) {
        self.summary_hits.fetch_add(hits, Ordering::Relaxed);
        self.summary_misses.fetch_add(misses, Ordering::Relaxed);
        self.summary_stale_rebuilds
            .fetch_add(stale_rebuilds, Ordering::Relaxed);
    }

    /// The named gauges/counters as `(name, value)` pairs, in render
    /// order.
    fn named(&self, queue_depth: usize, workers_busy: usize) -> Vec<(&'static str, u64)> {
        vec![
            ("queue_depth", queue_depth as u64),
            ("workers_busy", workers_busy as u64),
            (
                "connections_accepted",
                self.connections_accepted.load(Ordering::Relaxed),
            ),
            (
                "connections_rejected",
                self.connections_rejected.load(Ordering::Relaxed),
            ),
            (
                "sessions_active",
                self.sessions_active.load(Ordering::Relaxed),
            ),
            (
                "query_timeouts",
                self.query_timeouts.load(Ordering::Relaxed),
            ),
            (
                "queue_rejections",
                self.queue_rejections.load(Ordering::Relaxed),
            ),
            (
                "results_too_large",
                self.results_too_large.load(Ordering::Relaxed),
            ),
            (
                "queries_cancelled",
                self.queries_cancelled.load(Ordering::Relaxed),
            ),
            (
                "queries_cancelled_queued",
                self.queries_cancelled_queued.load(Ordering::Relaxed),
            ),
            (
                "cancel_requests",
                self.cancel_requests.load(Ordering::Relaxed),
            ),
            (
                "bytes_streamed",
                self.bytes_streamed.load(Ordering::Relaxed),
            ),
            (
                "chunks_streamed",
                self.chunks_streamed.load(Ordering::Relaxed),
            ),
            ("summary_hits", self.summary_hits.load(Ordering::Relaxed)),
            (
                "summary_misses",
                self.summary_misses.load(Ordering::Relaxed),
            ),
            (
                "summary_stale_rebuilds",
                self.summary_stale_rebuilds.load(Ordering::Relaxed),
            ),
            ("slow_queries", self.slow_queries.load(Ordering::Relaxed)),
            (
                "ingest_rows_total",
                self.ingest_rows.load(Ordering::Relaxed),
            ),
            (
                "batch_score_keys_total",
                self.batch_score_keys.load(Ordering::Relaxed),
            ),
            (
                "model_refreshes_total",
                self.model_refreshes.load(Ordering::Relaxed),
            ),
            (
                "ingest_backpressure_total",
                self.ingest_backpressure.load(Ordering::Relaxed),
            ),
            (
                "trace_ring_evicted_total",
                self.trace_ring_evicted.load(Ordering::Relaxed),
            ),
            (
                "query_cpu_us_total",
                self.query_cpu_nanos.load(Ordering::Relaxed) / 1_000,
            ),
            (
                "refresh_lag_rows",
                self.refresh_lag_rows.load(Ordering::Relaxed),
            ),
        ]
    }

    /// Renders every metric as `(name, value)` rows. `queue_depth` and
    /// `workers_busy` are sampled by the caller (the pool owns them).
    pub fn render(&self, queue_depth: usize, workers_busy: usize) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for (name, v) in self.named(queue_depth, workers_busy) {
            rows.push(vec![Value::Str(name.to_owned()), Value::Int(v as i64)]);
        }
        for (i, (_, name)) in COMMANDS.iter().enumerate() {
            let count = self.counts[i].load(Ordering::Relaxed);
            rows.push(vec![
                Value::Str(format!("command.{name}.count")),
                Value::Int(count as i64),
            ]);
            rows.push(vec![
                Value::Str(format!("command.{name}.errors")),
                Value::Int(self.errors[i].load(Ordering::Relaxed) as i64),
            ]);
            if count == 0 {
                continue;
            }
            let hist = &self.latency[i];
            for (b, n) in hist.counts().into_iter().enumerate() {
                if n == 0 {
                    continue;
                }
                rows.push(vec![
                    Value::Str(format!(
                        "command.{name}.latency_us[{:.0},{:.0})",
                        bucket_bound_micros(b),
                        bucket_bound_micros(b + 1)
                    )),
                    Value::Int(n as i64),
                ]);
            }
            if hist.above() > 0 {
                rows.push(vec![
                    Value::Str(format!("command.{name}.latency_us[10s,inf)")),
                    Value::Int(hist.above() as i64),
                ]);
            }
        }
        rows
    }

    /// Renders every metric in the Prometheus text exposition format:
    /// the named gauges/counters as `nlq_<name>` families, per-command
    /// request/error counters with a `command` label, and per-command
    /// latency histograms with cumulative `_bucket` series (in
    /// seconds, as Prometheus convention wants).
    pub fn render_prometheus(&self, queue_depth: usize, workers_busy: usize) -> String {
        let mut p = PromText::new();
        for (name, v) in self.named(queue_depth, workers_busy) {
            let kind = match name {
                "queue_depth" | "workers_busy" | "sessions_active" | "refresh_lag_rows" => "gauge",
                _ => "counter",
            };
            let full = format!("nlq_{name}");
            p.family(&full, kind, name);
            p.sample(&full, &[], v as f64);
        }

        p.family(
            "nlq_command_requests_total",
            "counter",
            "Requests handled, by command",
        );
        for (i, (_, name)) in COMMANDS.iter().enumerate() {
            p.sample(
                "nlq_command_requests_total",
                &[("command", name)],
                self.counts[i].load(Ordering::Relaxed) as f64,
            );
        }
        p.family(
            "nlq_command_errors_total",
            "counter",
            "Requests that failed, by command",
        );
        for (i, (_, name)) in COMMANDS.iter().enumerate() {
            p.sample(
                "nlq_command_errors_total",
                &[("command", name)],
                self.errors[i].load(Ordering::Relaxed) as f64,
            );
        }

        p.family(
            "nlq_command_latency_seconds",
            "histogram",
            "Request wall-clock latency, by command",
        );
        for (i, (_, name)) in COMMANDS.iter().enumerate() {
            let hist = &self.latency[i];
            let counts = hist.counts();
            // Cumulative buckets: everything at or under the bucket's
            // upper bound, which includes the legacy "below" samples.
            let mut cumulative = hist.below();
            for (b, n) in counts.into_iter().enumerate() {
                cumulative += n;
                let le = format!("{}", bucket_bound_micros(b + 1) / 1e6);
                p.sample(
                    "nlq_command_latency_seconds_bucket",
                    &[("command", name), ("le", &le)],
                    cumulative as f64,
                );
            }
            p.sample(
                "nlq_command_latency_seconds_bucket",
                &[("command", name), ("le", "+Inf")],
                hist.total() as f64,
            );
            p.sample(
                "nlq_command_latency_seconds_sum",
                &[("command", name)],
                hist.sum_micros() as f64 / 1e6,
            );
            p.sample(
                "nlq_command_latency_seconds_count",
                &[("command", name)],
                hist.total() as f64,
            );
        }
        p.finish()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Renders the engine-side gauges — shard count, per-shard counters,
/// and plan-cache state — as `(name, value)` METRICS rows. A plain
/// single-`Db` engine reports `shards = 1` with no per-shard rows and
/// no plan cache.
pub fn render_engine_rows(
    shard_count: usize,
    shards: &[nlq_engine::ShardMetricsSnapshot],
    plan_cache: Option<nlq_engine::PlanCacheStats>,
) -> Vec<Vec<Value>> {
    let mut rows = vec![vec![
        Value::Str("shards".into()),
        Value::Int(shard_count as i64),
    ]];
    for s in shards {
        let i = s.shard;
        rows.push(vec![
            Value::Str(format!("shard.{i}.queries")),
            Value::Int(s.queries as i64),
        ]);
        rows.push(vec![
            Value::Str(format!("shard.{i}.rows_scanned")),
            Value::Int(s.rows_scanned as i64),
        ]);
        rows.push(vec![
            Value::Str(format!("shard.{i}.queue_depth")),
            Value::Int(s.queue_depth as i64),
        ]);
        rows.push(vec![
            Value::Str(format!("shard.{i}.busy_us")),
            Value::Int((s.busy_nanos / 1_000) as i64),
        ]);
    }
    if let Some(c) = plan_cache {
        rows.push(vec![
            Value::Str("plan_cache.hits".into()),
            Value::Int(c.hits as i64),
        ]);
        rows.push(vec![
            Value::Str("plan_cache.misses".into()),
            Value::Int(c.misses as i64),
        ]);
        rows.push(vec![
            Value::Str("plan_cache.entries".into()),
            Value::Int(c.entries as i64),
        ]);
    }
    rows
}

/// Renders the engine-side gauges as Prometheus text exposition
/// families (appended after the server families by the caller).
pub fn render_engine_prometheus(
    shard_count: usize,
    shards: &[nlq_engine::ShardMetricsSnapshot],
    plan_cache: Option<nlq_engine::PlanCacheStats>,
) -> String {
    let mut p = PromText::new();
    p.family("nlq_shards", "gauge", "Number of engine shards");
    p.sample("nlq_shards", &[], shard_count as f64);
    if !shards.is_empty() {
        p.family(
            "nlq_shard_queries_total",
            "counter",
            "Statements executed, by shard",
        );
        for s in shards {
            let label = s.shard.to_string();
            p.sample(
                "nlq_shard_queries_total",
                &[("shard", &label)],
                s.queries as f64,
            );
        }
        p.family(
            "nlq_shard_rows_scanned_total",
            "counter",
            "Base-table rows scanned, by shard",
        );
        for s in shards {
            let label = s.shard.to_string();
            p.sample(
                "nlq_shard_rows_scanned_total",
                &[("shard", &label)],
                s.rows_scanned as f64,
            );
        }
        p.family(
            "nlq_shard_queue_depth",
            "gauge",
            "Jobs waiting on the shard's executor, by shard",
        );
        for s in shards {
            let label = s.shard.to_string();
            p.sample(
                "nlq_shard_queue_depth",
                &[("shard", &label)],
                s.queue_depth as f64,
            );
        }
        p.family(
            "nlq_shard_busy_seconds_total",
            "counter",
            "Executor-thread busy time, by shard",
        );
        for s in shards {
            let label = s.shard.to_string();
            p.sample(
                "nlq_shard_busy_seconds_total",
                &[("shard", &label)],
                s.busy_nanos as f64 / 1e9,
            );
        }
    }
    if let Some(c) = plan_cache {
        p.family("nlq_plan_cache_hits_total", "counter", "Plan-cache hits");
        p.sample("nlq_plan_cache_hits_total", &[], c.hits as f64);
        p.family(
            "nlq_plan_cache_misses_total",
            "counter",
            "Plan-cache misses",
        );
        p.sample("nlq_plan_cache_misses_total", &[], c.misses as f64);
        p.family("nlq_plan_cache_entries", "gauge", "Plans currently cached");
        p.sample("nlq_plan_cache_entries", &[], c.entries as f64);
    }
    p.finish()
}

/// One durability metric: its `METRICS` row name, whether it is a
/// monotone counter (else a gauge), its help text, and its value. The
/// Prometheus family name derives from the row name
/// ([`prometheus_family`]), so both surfaces carry one set of names.
type WalMetric = (&'static str, bool, &'static str, u64);

/// The durability metrics — WAL counters since open, current log size,
/// and what the last recovery replayed. A volatile engine (no
/// `--wal-dir`) has none.
fn wal_metrics(
    wal: Option<nlq_storage::WalStatsSnapshot>,
    log_bytes: Option<u64>,
    recovery: Option<nlq_engine::RecoveryInfo>,
) -> Vec<WalMetric> {
    let mut out = Vec::new();
    if let Some(w) = wal {
        out.extend([
            (
                "wal.bytes",
                true,
                "Bytes appended to the write-ahead log since open",
                w.bytes,
            ),
            (
                "wal.records",
                true,
                "Records appended to the write-ahead log since open",
                w.records,
            ),
            ("wal.fsyncs", true, "fsync calls issued", w.fsyncs),
            (
                "wal.checkpoints",
                true,
                "Checkpoints taken since open",
                w.checkpoints,
            ),
        ]);
    }
    if let Some(b) = log_bytes {
        out.push((
            "wal.log_bytes",
            false,
            "Live write-ahead log size (drops to zero at checkpoint)",
            b,
        ));
    }
    if let Some(r) = recovery {
        out.extend([
            (
                "recovery.replayed_records",
                false,
                "Committed WAL records re-applied at the last open",
                r.replayed_records,
            ),
            (
                "recovery.replayed_envelopes",
                false,
                "Committed envelopes re-applied at the last open",
                r.replayed_envelopes,
            ),
            (
                "recovery.truncated_bytes",
                false,
                "Torn-tail bytes discarded at the last open",
                r.truncated_bytes,
            ),
            (
                "recovery.checkpoint_tables",
                false,
                "Tables loaded from the checkpoint at the last open",
                r.checkpoint_tables,
            ),
        ]);
    }
    out
}

/// The Prometheus family for a dotted metric row name: `nlq_` plus the
/// name with dots as underscores, and `_total` on counters.
fn prometheus_family(row: &str, counter: bool) -> String {
    let base = format!("nlq_{}", row.replace('.', "_"));
    if counter {
        base + "_total"
    } else {
        base
    }
}

/// Renders the durability metrics as `(name, value)` METRICS rows.
pub fn render_wal_rows(
    wal: Option<nlq_storage::WalStatsSnapshot>,
    log_bytes: Option<u64>,
    recovery: Option<nlq_engine::RecoveryInfo>,
) -> Vec<Vec<Value>> {
    wal_metrics(wal, log_bytes, recovery)
        .into_iter()
        .map(|(name, _, _, v)| vec![Value::Str(name.into()), Value::Int(v as i64)])
        .collect()
}

/// Renders the durability metrics as Prometheus text exposition
/// families (appended after the engine families by the caller).
pub fn render_wal_prometheus(
    wal: Option<nlq_storage::WalStatsSnapshot>,
    log_bytes: Option<u64>,
    recovery: Option<nlq_engine::RecoveryInfo>,
) -> String {
    let mut p = PromText::new();
    for (name, counter, help, v) in wal_metrics(wal, log_bytes, recovery) {
        let family = prometheus_family(name, counter);
        p.family(&family, if counter { "counter" } else { "gauge" }, help);
        p.sample(&family, &[], v as f64);
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_and_render() {
        let m = Metrics::new();
        m.record(Command::Execute, Duration::from_micros(50), true);
        m.record(Command::Execute, Duration::from_millis(20), false);
        m.record(Command::Ping, Duration::from_micros(2), true);
        m.record(Command::Cancel, Duration::from_micros(3), true);
        m.record_summary(3, 1, 2);
        m.queries_cancelled.fetch_add(1, Ordering::Relaxed);
        m.bytes_streamed.fetch_add(4096, Ordering::Relaxed);
        m.chunks_streamed.fetch_add(2, Ordering::Relaxed);

        let rows = m.render(5, 2);
        let get = |name: &str| -> i64 {
            rows.iter()
                .find(|r| r[0].as_str() == Some(name))
                .unwrap_or_else(|| panic!("missing metric {name}"))[1]
                .as_i64()
                .unwrap()
        };
        assert_eq!(get("queue_depth"), 5);
        assert_eq!(get("workers_busy"), 2);
        assert_eq!(get("queries_cancelled"), 1);
        assert_eq!(get("bytes_streamed"), 4096);
        assert_eq!(get("chunks_streamed"), 2);
        assert_eq!(get("command.cancel.count"), 1);
        assert_eq!(get("command.execute.count"), 2);
        assert_eq!(get("command.execute.errors"), 1);
        assert_eq!(get("command.ping.count"), 1);
        assert_eq!(get("summary_hits"), 3);
        assert_eq!(get("summary_misses"), 1);
        assert_eq!(get("summary_stale_rebuilds"), 2);
        // Both execute latencies landed in some histogram bucket.
        let hist_total: i64 = rows
            .iter()
            .filter(|r| {
                r[0].as_str()
                    .is_some_and(|s| s.starts_with("command.execute.latency_us["))
            })
            .map(|r| r[1].as_i64().unwrap())
            .sum();
        assert_eq!(hist_total, 2);
    }

    #[test]
    fn wal_rows_render_only_for_durable_engines() {
        assert!(render_wal_rows(None, None, None).is_empty());
        assert_eq!(render_wal_prometheus(None, None, None), "");

        let snap = nlq_storage::WalStatsSnapshot {
            bytes: 128,
            records: 3,
            fsyncs: 2,
            replayed: 0,
            checkpoints: 1,
        };
        let info = nlq_engine::RecoveryInfo {
            replayed_records: 7,
            replayed_envelopes: 4,
            truncated_bytes: 13,
            checkpoint_tables: 2,
        };
        let rows = render_wal_rows(Some(snap), Some(64), Some(info));
        let get = |name: &str| -> i64 {
            rows.iter()
                .find(|r| r[0].as_str() == Some(name))
                .unwrap_or_else(|| panic!("missing metric {name}"))[1]
                .as_i64()
                .unwrap()
        };
        assert_eq!(get("wal.bytes"), 128);
        assert_eq!(get("wal.fsyncs"), 2);
        assert_eq!(get("wal.checkpoints"), 1);
        assert_eq!(get("wal.log_bytes"), 64);
        assert_eq!(get("recovery.replayed_records"), 7);
        assert_eq!(get("recovery.truncated_bytes"), 13);
        assert_eq!(get("recovery.checkpoint_tables"), 2);

        let text = render_wal_prometheus(Some(snap), Some(64), Some(info));
        nlq_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("nlq_wal_fsyncs_total 2"));
        assert!(text.contains("nlq_wal_checkpoints_total 1"));
        assert!(text.contains("nlq_wal_log_bytes 64"));
        assert!(text.contains("nlq_recovery_replayed_records 7"));

        // One set of names: every `wal.*`/`recovery.*` row has the
        // Prometheus family named after it (`_total` on counters), with
        // the same value.
        assert_eq!(rows.len(), 9);
        for row in &rows {
            let name = row[0].as_str().unwrap();
            assert!(name.starts_with("wal.") || name.starts_with("recovery."));
            let base = format!("nlq_{}", name.replace('.', "_"));
            let family = [base.clone() + "_total", base]
                .into_iter()
                .find(|f| text.contains(&format!("# TYPE {f} ")))
                .unwrap_or_else(|| panic!("no Prometheus family for {name}:\n{text}"));
            let value = row[1].as_i64().unwrap();
            assert!(
                text.lines().any(|l| l == format!("{family} {value}")),
                "{family} does not report {value}:\n{text}"
            );
        }
    }

    #[test]
    fn bucket_boundaries_land_in_their_documented_bucket() {
        // A latency of exactly 10^(b/2) µs is the documented lower
        // bound of bucket b and must land there, not one off due to
        // floating-point log10.
        for b in 0..LAT_BUCKETS {
            let micros = bucket_bound_micros(b);
            assert_eq!(
                bucket_index(micros),
                BucketIndex::In(b),
                "boundary 10^({b}/2) = {micros} µs"
            );
            // Integer microsecond just below the boundary stays in the
            // previous bucket.
            if b > 0 {
                let just_below = (micros - 1.0).max(1.0);
                match bucket_index(just_below) {
                    BucketIndex::In(idx) => assert!(idx < b || just_below >= micros),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // Exactly 10^7 µs (10 s) clamps into the last bucket, like the
        // legacy histogram; anything beyond falls above.
        assert_eq!(
            bucket_index(bucket_bound_micros(LAT_BUCKETS)),
            BucketIndex::In(LAT_BUCKETS - 1)
        );
        assert_eq!(bucket_index(2e7), BucketIndex::Above);
        assert_eq!(bucket_index(0.5), BucketIndex::Below);
    }

    #[test]
    fn concurrent_recording_matches_serial_replay() {
        // A deterministic latency workload recorded by 8 threads
        // concurrently must produce exactly the same buckets as the
        // same samples replayed serially.
        let samples: Vec<u64> = (0..4000u64).map(|i| (i * 2503 + 7) % 20_000_000).collect();
        let concurrent = Arc::new(Metrics::new());
        let threads: Vec<_> = samples
            .chunks(500)
            .map(|chunk| {
                let m = Arc::clone(&concurrent);
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for micros in chunk {
                        m.record(Command::Execute, Duration::from_micros(micros), true);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let serial = Metrics::new();
        for &micros in &samples {
            serial.record(Command::Execute, Duration::from_micros(micros), true);
        }

        let s = slot(Command::Execute);
        assert_eq!(concurrent.latency[s].counts(), serial.latency[s].counts());
        assert_eq!(concurrent.latency[s].below(), serial.latency[s].below());
        assert_eq!(concurrent.latency[s].above(), serial.latency[s].above());
        assert_eq!(
            concurrent.latency[s].sum_micros(),
            serial.latency[s].sum_micros()
        );
        assert_eq!(concurrent.latency[s].total() as usize, samples.len());
    }

    #[test]
    fn prometheus_rendering_round_trips_cumulative_buckets() {
        let m = Metrics::new();
        let samples = [1u64, 3, 10, 999, 50_000, 2_000_000, 20_000_000];
        for &micros in &samples {
            m.record(Command::Execute, Duration::from_micros(micros), true);
        }
        let text = m.render_prometheus(0, 0);
        nlq_obs::validate_exposition(&text).expect("valid exposition");

        // Parse the execute command's bucket series back out and check
        // it is cumulative, monotonic, and consistent with the raw
        // bucket counts.
        let mut cumulative = Vec::new();
        let mut inf = None;
        let mut count = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("nlq_command_latency_seconds_bucket{") {
                if !rest.contains("command=\"execute\"") {
                    continue;
                }
                let value: f64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                if rest.contains("le=\"+Inf\"") {
                    inf = Some(value as u64);
                } else {
                    cumulative.push(value as u64);
                }
            } else if let Some(rest) =
                line.strip_prefix("nlq_command_latency_seconds_count{command=\"execute\"}")
            {
                count = Some(rest.trim().parse::<f64>().unwrap() as u64);
            }
        }
        assert_eq!(cumulative.len(), LAT_BUCKETS);
        assert!(
            cumulative.windows(2).all(|w| w[0] <= w[1]),
            "{cumulative:?}"
        );
        // Reconstruct per-bucket counts by differencing and compare
        // with the histogram's own view.
        let s = slot(Command::Execute);
        let raw = m.latency[s].counts();
        let mut prev = m.latency[s].below();
        for (b, &c) in cumulative.iter().enumerate() {
            assert_eq!(c - prev, raw[b], "bucket {b}");
            prev = c;
        }
        assert_eq!(inf, Some(samples.len() as u64));
        assert_eq!(count, Some(samples.len() as u64));
        // One 20 s sample fell past the last bucket: +Inf exceeds the
        // last finite bucket by exactly that overflow.
        assert_eq!(inf.unwrap() - cumulative[LAT_BUCKETS - 1], 1);
    }
}
