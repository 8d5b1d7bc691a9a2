//! The traced run's per-layer ledger. Each layer is measured by
//! re-running the workload's own op — the same SQL, rows and keys —
//! through that layer's public function, inside spans the benchmark
//! records. A layer's self time is its entry minus the entry of the
//! layer below. Every workload reports every layer metric; where the
//! workload's engine has no such layer (no shard layer, no plan cache,
//! no log to recover) the metric reads 0 and the run says why on stderr.
//! The WAL figures come from a probe log that commits one envelope of
//! the table's row shape per call. Summary reads and model refresh run
//! on a private `Db` holding a copy of the workload's table with a Γ
//! summary over the op's columns.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nlq_client::Client;
use nlq_engine::{phase_spans, Db, ExecOptions, ResultSet, SqlEngine};
use nlq_feature::{Binding, RefreshConfig, RefreshLoop};
use nlq_linalg::kernels;
use nlq_models::MatrixShape;
use nlq_server::wire::{ChunkEncoder, StreamAssembler, WireStats};
use nlq_storage::{FileIo, Row, Table, Value, Wal};
use nlq_summary::{SummaryDef, SummaryStore};
use nlq_udf::pack::unpack_nlq;
use nlq_udf::{
    AggregateUdf, BatchArg, LinearRegScoreUdf, NlqUdf, ParamStyle, ScalarBatchArg, ScalarUdf,
};

use crate::catalog::PER_LAYER;
use crate::common::{gamma_sql, score_sql, LoopFacts, Subject, ENVELOPE_ROWS, READ_KEYS, WORKERS};
use crate::gamma::fit;
use crate::gen::{subseed, FreshRows, Zipf};
use crate::host;
use crate::stats::median;
use crate::trace::Recorder;
use crate::Config;

/// Op ids of probe calls carry this bit.
const PROBE_OP: u64 = 1 << 41;
/// Keys of probe envelopes start here, far above any workload key.
const PROBE_KEY_BASE: i64 = 1 << 40;

type Metrics = Vec<(&'static str, f64)>;

/// Times `reps` calls of `f` inside spans named `name`; returns the
/// call times in seconds and the last result.
fn sample<T>(
    spans: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for r in 0..reps.max(1) {
        let id = spans.begin(name, PROBE_OP | r as u64, None);
        let t = Instant::now();
        let out = f()?;
        secs.push(t.elapsed().as_secs_f64());
        spans.end(id);
        last = Some(black_box(out));
    }
    Ok((secs, last.expect("at least one call")))
}

fn ms(secs: &[f64]) -> f64 {
    median(secs) * 1e3
}

fn us(secs: &[f64]) -> f64 {
    median(secs) * 1e6
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Measures every per-layer metric for the set-up workload `s`.
pub(crate) fn probe(
    s: &Subject<'_>,
    facts: &LoopFacts,
    cfg: &Config,
    spans: &mut Recorder,
) -> Result<Metrics, String> {
    let heavy = cfg.probe_reps;
    let light = cfg.probe_reps * 20;
    let local = s.shards[0];
    let table = local.table("X").map_err(err("probe table"))?;
    let gamma = gamma_sql(&s.gamma_cols);
    let score = score_sql(s.d, s.model);
    let mut m: Metrics = Vec::new();
    let mut chains: Vec<(&str, Vec<(&str, f64)>)> = Vec::new();

    // ---- data layers, over the first shard's column blocks ----
    let idx = col_indices(&table, &s.gamma_cols)?;
    let data = DataProbe::new(&table, &idx)?;
    let (k, _) = sample(
        spans,
        "linalg.block_triangular",
        heavy,
        || Ok(data.kernel()),
    )?;
    let kernel_gbps = data.bytes as f64 / median(&k) / 1e9;
    let memcpy_gbps = host::memcpy_gbps(&data.columns(), heavy);
    let (scan, _) = sample(spans, "storage.scan_partition_blocks", heavy, || {
        data.scan(&table, &idx)
    })?;
    let (acc, _) = sample(spans, "udf.accumulate_batch", heavy, || {
        data.accumulate(&table, &idx)
    })?;
    m.push(("linalg.gamma_kernel_gbps", kernel_gbps));
    m.push(("linalg.memcpy_gbps", memcpy_gbps));
    m.push(("linalg.roofline_share", kernel_gbps / memcpy_gbps));
    m.push((
        "udf.gamma_accumulate_gbps",
        data.bytes as f64 / median(&acc) / 1e9,
    ));
    m.push((
        "storage.block_scan_gbps",
        data.bytes as f64 / median(&scan) / 1e9,
    ));

    // ---- the Γ op, layer by layer ----
    let (shard_gamma, _) = slowest(spans, &s.shards, &gamma, heavy)?;
    let engine_gamma = engine_entry(spans, s, &gamma, heavy, &shard_gamma)?;
    let mut client = Client::connect(s.addr).map_err(|e| format!("probe connect: {e}"))?;
    let (client_gamma, remote) = sample(spans, "client.execute", heavy, || {
        client.execute(&gamma).map_err(|e| format!("client Γ: {e}"))
    })?;
    let packed = remote.rows[0][0]
        .as_str()
        .ok_or("Γ returned no packed value")?;
    let nlq = unpack_nlq(packed).map_err(|e| format!("unpack Γ: {e}"))?;
    let (fits, _) = sample(spans, "core.fit", light, || fit(&nlq))?;
    m.push(("engine.gamma_exec_ms", ms(&shard_gamma)));
    m.push(("shard.self_ms", ms(&engine_gamma) - ms(&shard_gamma)));
    m.push((
        "server.gamma_self_ms",
        ms(&client_gamma) - ms(&engine_gamma),
    ));
    m.push(("core.fit_us", us(&fits)));
    chains.push((
        "Γ op",
        vec![
            ("server (Client::execute)", ms(&client_gamma)),
            ("shard (SqlEngine::execute)", ms(&engine_gamma)),
            ("engine (slowest shard Db::execute)", ms(&shard_gamma)),
        ],
    ));
    chains.push((
        "Γ scan path over shard 0's blocks",
        vec![
            ("udf (NlqUdf accumulate_batch)", ms(&acc)),
            ("linalg (block_triangular over owned copies)", ms(&k)),
        ],
    ));
    chains.push((
        "storage alone",
        vec![("storage (block scan touching every value)", ms(&scan))],
    ));
    drop(data);

    // ---- counts and span coverage of the workload's own op ----
    let main = s
        .engine
        .execute_with(&s.main_sql, &ExecOptions::default())
        .map_err(err("main op"))?;
    m.push(("engine.rows_scanned_per_op", main.stats.rows_scanned as f64));
    if s.shards.len() == 1 {
        eprintln!("layers: shard.self_ms = 0, the engine is a single Db (no shard layer)");
    }
    let cache = s.engine.plan_cache_stats();
    if cache.is_none() {
        eprintln!("layers: shard.plan_cache_hit_ratio = 0, the engine keeps no plan cache");
    }
    m.push((
        "shard.plan_cache_hit_ratio",
        cache.map_or(0.0, |c| c.hits as f64 / (c.hits + c.misses).max(1) as f64),
    ));
    let mut gaps = Vec::with_capacity(heavy);
    for r in 0..heavy {
        let id = spans.begin("engine.execute", PROBE_OP | r as u64, None);
        let t = Instant::now();
        let rs = local.execute(&s.main_sql).map_err(err("local op"))?;
        let wall = t.elapsed().as_nanos() as f64;
        spans.end(id);
        let covered: u64 = phase_spans(&rs.stats).iter().map(|p| p.dur_nanos).sum();
        gaps.push(1.0 - covered as f64 / wall);
    }
    m.push(("engine.unattributed_share", median(&gaps)));

    // ---- the scoring op, layer by layer ----
    let (shard_score, local_rows) = slowest(spans, &s.shards, &score, heavy)?;
    let engine_score = engine_entry(spans, s, &score, heavy, &shard_score)?;
    let model = model_coefficients(local, s.model)?;
    let (eval, _) = sample(spans, "udf.eval_batch", heavy, || {
        score_blocks(&table, s.d, &model)
    })?;
    let wire = WireProbe::new(&local_rows.rows, local_rows.columns.len());
    let (enc, payloads) = sample(spans, "server.chunk_encoder", heavy, || Ok(wire.encode()))?;
    let (dec, _) = sample(spans, "client.stream_assembler", heavy, || {
        wire.decode(&payloads)
    })?;
    let (stream, _) = sample(spans, "client.stream", heavy, || {
        let mut rows = 0u64;
        let mut st = client.query(&score).map_err(|e| format!("stream: {e}"))?;
        for row in &mut st {
            row.map_err(|e| format!("stream: {e}"))?;
            rows += 1;
        }
        Ok(rows)
    })?;
    let loopback = host::loopback_mb_per_s(wire.bytes as usize, 3)
        .map_err(|e| format!("loopback reference: {e}"))?;
    m.push(("engine.score_exec_ms", ms(&shard_score)));
    m.push((
        "udf.score_eval_rows_per_s",
        table.row_count() as f64 / median(&eval),
    ));
    m.push((
        "server.encode_mb_per_s",
        wire.bytes as f64 / median(&enc) / 1e6,
    ));
    m.push((
        "client.decode_mb_per_s",
        wire.bytes as f64 / median(&dec) / 1e6,
    ));
    m.push(("server.loopback_mb_per_s", loopback));
    m.push((
        "server.wire_bytes_per_row",
        wire.bytes as f64 / wire.rows.len().max(1) as f64,
    ));
    m.push(("server.stream_self_ms", ms(&stream) - ms(&engine_score)));
    drop((payloads, local_rows));
    chains.push((
        "score op",
        vec![
            ("server+client (streamed to the client)", ms(&stream)),
            ("engine entry (SqlEngine::execute)", ms(&engine_score)),
            ("engine (slowest shard Db::execute)", ms(&shard_score)),
            ("udf (eval_batch over shard 0)", ms(&eval)),
        ],
    ));

    // ---- the ingest envelope, layer by layer ----
    let mut fresh = FreshRows::new(s.d, PROBE_KEY_BASE, subseed(s.seed, 4));
    let mut envelope = || -> Vec<Row> {
        fresh
            .take(ENVELOPE_ROWS)
            .into_iter()
            .map(|mut r| {
                if !s.with_y {
                    r.pop();
                }
                r
            })
            .collect()
    };
    let mut private: Table = (*table).clone();
    let env = envelope();
    let (append, _) = sample(spans, "storage.insert_rows", light, || {
        private
            .insert_rows(env.clone())
            .map_err(|e| format!("append: {e}"))
    })?;
    let store = SummaryStore::new();
    let def = SummaryDef {
        name: "probe".into(),
        table: "x".into(),
        columns: s.gamma_cols.clone(),
        shape: MatrixShape::Triangular,
        minmax: true,
        group_by: None,
    };
    store
        .create(def, &private)
        .map_err(|e| format!("probe summary: {e}"))?;
    let (fold, _) = sample(spans, "summary.fold_rows", light, || {
        store.fold_rows("x", private.schema(), &env);
        Ok(())
    })?;
    let wal_dir = cfg.work_dir.join("probe-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("probe wal dir: {e}"))?;
    let io = FileIo::open(&wal_dir.join("wal.log")).map_err(|e| format!("probe wal: {e}"))?;
    let wal = Wal::new(Arc::new(io), true, 1, 0);
    let mut commit_bytes = 0;
    let (commits, _) = sample(spans, "storage.wal_commit", light, || {
        let eid = wal.alloc_eid();
        let logged = wal
            .log_rows(eid, "x", &env)
            .map_err(|e| format!("wal log: {e}"))?;
        let marker = wal.commit(eid).map_err(|e| format!("wal commit: {e}"))?;
        commit_bytes = logged + marker;
        Ok(())
    })?;
    let fsyncs_per_commit = facts.wal_fsyncs_per_commit.unwrap_or_else(|| {
        eprintln!(
            "layers: storage.wal_fsyncs_per_commit is the probe log's, the engine keeps none"
        );
        wal.stats().snapshot().fsyncs as f64 / commits.len() as f64
    });
    drop(wal);
    let raw = host::raw_fsync_us(&wal_dir.join("raw"), commit_bytes as usize, light)
        .map_err(|e| format!("fsync reference: {e}"))?;
    std::fs::remove_dir_all(&wal_dir).map_err(|e| format!("probe wal dir: {e}"))?;
    drop(private);
    m.push(("storage.append_us", us(&append)));
    m.push(("summary.fold_us", us(&fold)));
    m.push(("storage.wal_commit_us", us(&commits)));
    m.push((
        "storage.wal_bytes_per_row",
        commit_bytes as f64 / env.len() as f64,
    ));
    m.push(("storage.raw_fsync_us", raw));
    m.push(("storage.wal_fsyncs_per_commit", fsyncs_per_commit));

    // ---- reads ----
    let keys = Zipf::new(s.n, subseed(s.seed, 1)).keys(READ_KEYS);
    let (batch, _) = sample(spans, "engine.batch_score", light, || {
        local
            .batch_score("X", s.model, &keys, false, &ExecOptions::default())
            .map_err(err("batch score"))
    })?;
    let (lookup, _) = sample(spans, "storage.lookup_keys", light, || {
        table.lookup_keys(&keys).map_err(|e| format!("lookup: {e}"))
    })?;
    let (ping, _) = sample(spans, "server.ping", light, || {
        client.ping().map_err(|e| format!("ping: {e}"))
    })?;
    m.push(("engine.batch_score_us", us(&batch)));
    m.push(("storage.pk_lookup_us", us(&lookup)));
    m.push(("server.ping_rtt_us", us(&ping)));

    // ---- summary reads and model refresh, on a private Db holding a
    // copy of the table with a Γ summary over the op's columns ----
    let db = Db::new(WORKERS);
    db.register_table("X", (*table).clone())
        .map_err(err("probe db"))?;
    db.execute(&format!(
        "CREATE SUMMARY probe ON X ({}) SHAPE triang",
        s.gamma_cols.join(", ")
    ))
    .map_err(err("probe summary"))?;
    let db: Arc<dyn SqlEngine> = Arc::new(db);
    let mut hits = 0;
    let (summary_reads, _) = sample(spans, "engine.summary_read", light, || {
        let rs = db
            .execute_with(&gamma, &ExecOptions::default())
            .map_err(err("summary read"))?;
        hits += u64::from(rs.stats.summary_path);
        Ok(())
    })?;
    let mut refresh = RefreshLoop::new(
        Arc::clone(&db),
        vec![Binding::regression("probe")],
        RefreshConfig {
            cadence: Duration::ZERO,
            min_delta_rows: 0,
            auto_discover: false,
        },
    );
    refresh.tick().map_err(err("first refresh"))?;
    let mut ticks = Vec::with_capacity(heavy);
    for r in 0..heavy {
        db.ingest_rows("X", envelope())
            .map_err(err("probe ingest"))?;
        let id = spans.begin("feature.refresh_tick", PROBE_OP | r as u64, None);
        let t = Instant::now();
        let published = refresh.tick().map_err(err("refresh"))?;
        ticks.push(t.elapsed().as_secs_f64());
        spans.end(id);
        if published != 1 {
            return Err(format!(
                "wrong answer: a refresh tick after an ingest published {published} models"
            ));
        }
    }
    drop((refresh, db));
    m.push(("engine.summary_read_us", us(&summary_reads)));
    m.push(("summary.hit_ratio", hits as f64 / light as f64));
    m.push(("feature.refresh_tick_us", us(&ticks)));
    m.push(("client.op_p90_ms", facts.op_p90_ms));
    m.push(("client.read_p50_ms", facts.read_p50_ms));
    m.push(("client.read_p99_ms", facts.read_p99_ms));
    m.push(("bench.generator_lag_p99_ms", facts.generator_lag_p99_ms));
    m.push(("bench.tracing_overhead_share", facts.tracing_overhead_share));

    // Last, because it appends to the live table: the COW append the
    // engine runs per envelope (the WAL part is timed above). The probe
    // copies above are freed and one untimed append runs first, so the
    // allocator is in the state the workload's own envelopes see.
    drop(table);
    local.insert_rows("X", envelope()).map_err(err("insert"))?;
    let (insert, _) = sample(spans, "engine.insert_rows", heavy, || {
        local.insert_rows("X", envelope()).map_err(err("insert"))
    })?;
    m.push(("engine.insert_envelope_ms", ms(&insert)));
    chains.push((
        "ingest envelope",
        vec![
            ("engine (Db::insert_rows)", ms(&insert)),
            ("storage (Table::insert_rows)", us(&append) / 1e3),
        ],
    ));
    chains.push((
        "durable commit",
        vec![
            ("storage (Wal::log_rows + commit)", us(&commits) / 1e3),
            ("hardware (write + sync_data)", raw / 1e3),
        ],
    ));

    print_ledger(&chains, spans);
    Ok(m)
}

/// Times of the engine's own entry point for `sql`: the shard layer's
/// `SqlEngine::execute` on a sharded engine; on a single `Db` there is
/// no layer between it and the engine, so its times are `db_times`.
fn engine_entry(
    spans: &mut Recorder,
    s: &Subject<'_>,
    sql: &str,
    reps: usize,
    db_times: &[f64],
) -> Result<Vec<f64>, String> {
    if s.shards.len() == 1 {
        return Ok(db_times.to_vec());
    }
    let (times, _) = sample(spans, "shard.execute", reps, || {
        s.engine
            .execute_with(sql, &ExecOptions::default())
            .map_err(err("sharded execute"))
    })?;
    Ok(times)
}

fn col_indices(table: &Table, cols: &[String]) -> Result<Vec<usize>, String> {
    cols.iter()
        .map(|c| {
            table
                .schema()
                .index_of(c)
                .ok_or_else(|| format!("table X has no column {c}"))
        })
        .collect()
}

/// Per repetition, the time of the slowest shard's in-process
/// execution of `sql` (each shard's call in its own span); returns the
/// times and the slowest shard's last result.
fn slowest(
    spans: &mut Recorder,
    shards: &[&Db],
    sql: &str,
    reps: usize,
) -> Result<(Vec<f64>, ResultSet), String> {
    let mut times = Vec::with_capacity(reps);
    let mut result = None;
    for r in 0..reps.max(1) {
        let mut worst = 0.0;
        for db in shards {
            let id = spans.begin("engine.execute", PROBE_OP | r as u64, None);
            let t = Instant::now();
            let rs = db.execute(sql).map_err(err("shard execute"))?;
            let secs = t.elapsed().as_secs_f64();
            spans.end(id);
            if secs >= worst {
                worst = secs;
                result = Some(rs);
            }
        }
        times.push(worst);
    }
    Ok((times, result.expect("at least one shard")))
}

/// `(b0, b1..bd)` of a one-row model table.
fn model_coefficients(db: &Db, model: &str) -> Result<Vec<Value>, String> {
    let rs = db
        .execute(&format!("SELECT * FROM {model}"))
        .map_err(err("model"))?;
    rs.rows
        .into_iter()
        .next()
        .ok_or_else(|| format!("model {model} is empty"))
}

/// Scores every block of `X1..Xd` with the regression UDF's batch path.
fn score_blocks(table: &Table, d: usize, model: &[Value]) -> Result<usize, String> {
    let idx = col_indices(table, &crate::common::x_cols(d))?;
    let mut out = Vec::with_capacity(nlq_storage::BLOCK_ROWS);
    let mut scored = 0;
    for p in 0..table.partition_count() {
        let mut it = table
            .scan_partition_blocks(p, &idx)
            .map_err(|e| format!("scan: {e}"))?;
        while let Some(block) = it.next_block() {
            let block = block.map_err(|e| format!("scan: {e}"))?;
            let mut args: Vec<ScalarBatchArg<'_>> = (0..d)
                .map(|c| ScalarBatchArg::Col {
                    values: block.column(c).values,
                    validity: block.column(c).validity(),
                })
                .collect();
            args.extend(model.iter().map(ScalarBatchArg::Const));
            out.clear();
            LinearRegScoreUdf
                .eval_batch(&args, block.len(), &mut out)
                .map_err(|e| format!("eval_batch: {e}"))?;
            scored += black_box(&out).len();
        }
    }
    Ok(scored)
}

/// Owned copies of one table's column blocks, for the kernel and copy
/// references.
struct DataProbe {
    /// Per block, one vector per projected column.
    blocks: Vec<Vec<Vec<f64>>>,
    bytes: u64,
}

impl DataProbe {
    fn new(table: &Table, idx: &[usize]) -> Result<DataProbe, String> {
        let mut blocks = Vec::new();
        for p in 0..table.partition_count() {
            let mut it = table
                .scan_partition_blocks(p, idx)
                .map_err(|e| format!("scan: {e}"))?;
            while let Some(block) = it.next_block() {
                let block = block.map_err(|e| format!("scan: {e}"))?;
                blocks.push(
                    (0..idx.len())
                        .map(|c| block.column(c).values.to_vec())
                        .collect(),
                );
            }
        }
        let bytes = (table.row_count() * idx.len() * 8) as u64;
        Ok(DataProbe { blocks, bytes })
    }

    fn columns(&self) -> Vec<&[f64]> {
        self.blocks
            .iter()
            .flat_map(|b| b.iter().map(Vec::as_slice))
            .collect()
    }

    /// `kernels::block_triangular` over every block.
    fn kernel(&self) -> Vec<f64> {
        let d = self.blocks.first().map_or(0, Vec::len);
        let mut q = vec![0.0; d * d];
        let mut cols: Vec<&[f64]> = Vec::with_capacity(d);
        for b in &self.blocks {
            cols.clear();
            cols.extend(b.iter().map(Vec::as_slice));
            kernels::block_triangular(&mut q, d, &cols);
        }
        q
    }

    /// Block scan touching every value.
    fn scan(&self, table: &Table, idx: &[usize]) -> Result<f64, String> {
        let mut acc = 0.0;
        for p in 0..table.partition_count() {
            let mut it = table
                .scan_partition_blocks(p, idx)
                .map_err(|e| format!("scan: {e}"))?;
            while let Some(block) = it.next_block() {
                let block = block.map_err(|e| format!("scan: {e}"))?;
                for c in 0..idx.len() {
                    acc += block.column(c).values.iter().sum::<f64>();
                }
            }
        }
        Ok(acc)
    }

    /// The `nlq_list` aggregate state's block path over every block.
    fn accumulate(&self, table: &Table, idx: &[usize]) -> Result<(), String> {
        let mut state = NlqUdf::new(ParamStyle::List).init();
        let mut args = vec![
            BatchArg::Const(Value::Int(idx.len() as i64)),
            BatchArg::Const(Value::Str("triang".into())),
        ];
        args.extend((0..idx.len()).map(BatchArg::Col));
        for p in 0..table.partition_count() {
            let mut it = table
                .scan_partition_blocks(p, idx)
                .map_err(|e| format!("scan: {e}"))?;
            while let Some(block) = it.next_block() {
                let block = block.map_err(|e| format!("scan: {e}"))?;
                state
                    .accumulate_batch(&block, &args, None)
                    .map_err(|e| format!("accumulate: {e}"))?;
            }
        }
        black_box(state.finalize().map_err(|e| format!("finalize: {e}"))?);
        Ok(())
    }
}

/// A scored result encoded and decoded the way the server and client
/// move it.
struct WireProbe<'a> {
    rows: &'a [Row],
    ncols: usize,
    bytes: u64,
}

impl<'a> WireProbe<'a> {
    const CHUNK_BYTES: usize = 256 << 10;

    fn new(rows: &'a [Row], ncols: usize) -> WireProbe<'a> {
        let mut probe = WireProbe {
            rows,
            ncols,
            bytes: 0,
        };
        let mut enc = ChunkEncoder::new(1, ncols, Self::CHUNK_BYTES);
        for r in rows {
            enc.push_row(r);
        }
        probe.bytes = enc.total_bytes();
        probe
    }

    /// Every chunk payload plus the trailer.
    fn encode(&self) -> Vec<Vec<u8>> {
        let mut enc = ChunkEncoder::new(1, self.ncols, Self::CHUNK_BYTES);
        let mut payloads: Vec<Vec<u8>> = self.rows.iter().filter_map(|r| enc.push_row(r)).collect();
        payloads.extend(enc.finish());
        payloads.push(enc.done_payload(&WireStats::default()));
        payloads
    }

    fn decode(&self, payloads: &[Vec<u8>]) -> Result<usize, String> {
        let mut asm = StreamAssembler::new(1, self.ncols);
        let mut done = false;
        for p in payloads {
            done = asm.push_payload(p).map_err(|e| format!("decode: {e}"))?;
        }
        if !done || asm.rows().len() != self.rows.len() {
            return Err("wrong answer: decoded stream does not match the encoded rows".into());
        }
        Ok(asm.rows().len())
    }
}

/// Prints the self-time chains and the span table to stderr.
fn print_ledger(chains: &[(&str, Vec<(&str, f64)>)], spans: &Recorder) {
    for (op, chain) in chains {
        eprintln!("self time, {op} (entry minus the entry of the layer below):");
        for (i, (layer, entry)) in chain.iter().enumerate() {
            let below = chain.get(i + 1).map_or(0.0, |(_, e)| *e);
            eprintln!(
                "  {layer:<42} entry {entry:>10.3} ms  self {:>10.3} ms",
                entry - below
            );
        }
    }
    eprintln!("spans by layer (count, total ms, self ms):");
    for (layer, (count, total, own)) in spans.layer_table() {
        eprintln!("  {layer:<10} {count:>7} {total:>12.3} {own:>12.3}");
    }
    eprintln!("predictions (metric: should move / flat on):");
    for m in PER_LAYER {
        eprintln!("  {}: {} / {}", m.name, m.moves, m.flat_on);
    }
}

/// Writes the traced run's spans under the benchmark's output directory.
pub(crate) fn write_trace(cfg: &Config, spans: &Recorder) -> Result<(), String> {
    let dir = cfg.trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("trace dir: {e}"))?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", spans.spans().len(), path.display());
    Ok(())
}
