//! `feature_serve`: a durable feature store under mixed traffic. The
//! base is a regression table with a triangular Γ summary over all its
//! columns, checkpointed during set-up; the server's refresh daemon
//! republishes `fs_beta` from the summary on a fixed cadence. One
//! closed-loop writer sends 512-row ingest envelopes with fresh keys
//! (WAL fsync on every group commit); one open-loop reader alternates
//! `batch_score` of Zipf keys against the published model with the
//! summary-answered Γ query.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nlq_client::Client;
use nlq_engine::{Db, SqlEngine};
use nlq_server::{serve, ServerHandle};
use nlq_storage::Value;
use nlq_udf::pack::unpack_nlq;

use crate::common::{
    end_to_end, gamma_sql, measure, server_config, timed_setups, x_cols, Fail, LoopFacts, Subject,
    ENVELOPE_ROWS, READ_KEYS, WORKERS,
};
use crate::gen::{self, subseed, FreshRows, Zipf};
use crate::stats::{close, median};
use crate::trace::Recorder;
use crate::{layers, Config, Report};

/// Feature columns (plus `Y`).
const D: usize = 8;
const SUMMARY: &str = "fs";
const MODEL: &str = "fs_beta";
/// Refresh daemon cadence.
const REFRESH: Duration = Duration::from_millis(100);
/// Rows per ingest chunk frame (four chunks per envelope).
const CHUNK_ROWS: usize = 128;

/// Removes a directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up feature store. Fields drop in order: server, engine, then
/// the WAL directory.
struct Store {
    server: ServerHandle,
    db: Arc<Db>,
    rows: Vec<Vec<f64>>,
    dir: DirGuard,
}

fn columns() -> Vec<String> {
    let mut cols = x_cols(D);
    cols.push("Y".into());
    cols
}

fn build(cfg: &Config, rep: usize) -> Result<Store, String> {
    let dir = DirGuard(cfg.work_dir.join(format!("wal-{rep}")));
    let _ = std::fs::remove_dir_all(&dir.0);
    let rows = gen::regression_rows(cfg.rows, D, cfg.seed);
    let db = Arc::new(Db::open_durable(WORKERS, &dir.0, true).map_err(|e| format!("open: {e}"))?);
    db.load_points("X", &rows, true)
        .map_err(|e| format!("load: {e}"))?;
    db.execute(&format!(
        "CREATE SUMMARY {SUMMARY} ON X ({}) SHAPE triang",
        columns().join(", ")
    ))
    .map_err(|e| format!("create summary: {e}"))?;
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    // The checkpoint syncs only its manifest; flush the table snapshots
    // too, so their write-back is part of set-up and not of the run.
    for entry in std::fs::read_dir(dir.0.join("checkpoint")).map_err(|e| format!("ls: {e}"))? {
        let path = entry.map_err(|e| format!("ls: {e}"))?.path();
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", path.display()))?;
    }
    let server = serve(
        Arc::clone(&db) as Arc<dyn SqlEngine>,
        server_config(Some(REFRESH)),
    )
    .map_err(|e| format!("serve: {e}"))?;
    let published = Instant::now();
    while db.table(MODEL).is_err() {
        if published.elapsed() > Duration::from_secs(60) {
            return Err(format!("{MODEL} was not published within 60 s"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(Store {
        server,
        db,
        rows,
        dir,
    })
}

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let (store, setups) = timed_setups(cfg.setup_reps, |rep| build(cfg, rep))?;
    let Store {
        server,
        db,
        rows,
        dir,
    } = store;
    let addr = server.addr();
    let n = rows.len();
    let cols = columns();
    let col_refs: Vec<&str> = std::iter::once("i")
        .chain(cols.iter().map(String::as_str))
        .collect();
    let gamma = gamma_sql(&cols);
    // Rows acked so far, shared by the writer and the reader.
    let acked = AtomicU64::new(0);
    let wal_before = db.wal_stats().expect("durable engine keeps a log");

    let out = {
        let mut fresh = FreshRows::new(D, n as i64 + 1, subseed(cfg.seed, 3));
        let mut writer = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut reader = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut zipf = Zipf::new(n, subseed(cfg.seed, 1));
        measure(
            cfg.seconds,
            cfg.workload.read_rate(),
            subseed(cfg.seed, 5),
            cfg.trace,
            |op, rec| {
                let envelope = fresh.take(ENVELOPE_ROWS);
                ingest_op(
                    &mut writer,
                    &col_refs,
                    envelope,
                    &acked,
                    cfg.tamper,
                    op,
                    rec,
                )
            },
            |op, rec| {
                if op % 2 == 0 {
                    key_read(&mut reader, &zipf.keys(READ_KEYS), op, rec)
                } else {
                    gamma_read(&mut reader, &gamma, n as u64, &acked, op, rec)
                }
            },
        )?
    };
    let acked = acked.load(Ordering::SeqCst);
    let wal_after = db.wal_stats().expect("durable engine keeps a log");
    let commits = (acked / ENVELOPE_ROWS as u64).max(1);
    let wal_fsyncs_per_commit = (wal_after.fsyncs - wal_before.fsyncs) as f64 / commits as f64;
    check_count(&db, n as u64 + acked, "live table")?;

    let mut report = Report::new(&out, end_to_end(median(&setups), &out));
    let facts = if cfg.trace {
        Some(LoopFacts::of(
            &out,
            cfg.seconds,
            Some(wal_fsyncs_per_commit),
        )?)
    } else {
        None
    };
    let mut spans = out.spans;
    if let Some(facts) = facts {
        let subject = Subject {
            engine: db.as_ref(),
            shards: vec![db.as_ref()],
            addr,
            gamma_cols: cols.clone(),
            d: D,
            with_y: true,
            model: MODEL,
            main_sql: gamma.clone(),
            n,
            seed: cfg.seed,
        };
        report.metrics = layers::probe(&subject, &facts, cfg, &mut spans)?;
    }

    // Shut down, then recover from the WAL directory: every acked row
    // must come back (rows the envelope probe inserted bypass the log
    // and are not expected), and the recovered summary must equal a
    // scan of the recovered table.
    drop(server);
    drop(db);
    let t = Instant::now();
    let recovered = Db::open_durable(WORKERS, &dir.0, true).map_err(|e| format!("reopen: {e}"))?;
    let recovery_s = t.elapsed().as_secs_f64();
    check_count(&recovered, n as u64 + acked, "recovered table")?;
    check_summary_equals_scan(&recovered, &cols)?;
    drop(recovered);
    drop(dir);
    if cfg.trace {
        report.metrics.push(("engine.recovery_s", recovery_s));
        layers::write_trace(cfg, &spans)?;
    }
    Ok(report)
}

/// One envelope: header, four chunks, done; the ack must count every row.
fn ingest_op(
    client: &mut Client,
    cols: &[&str],
    envelope: Vec<Vec<Value>>,
    acked: &AtomicU64,
    tamper: bool,
    op: u64,
    rec: &mut Recorder,
) -> Result<u64, Fail> {
    let id = rec.begin("client.ingest", op, None);
    let mut ingest = client.begin_ingest("X", cols)?;
    for chunk in envelope.chunks(CHUNK_ROWS) {
        ingest.chunk(chunk.to_vec())?;
    }
    let mut ack = ingest.finish()?;
    rec.end(id);
    if tamper {
        ack -= 1;
    }
    if ack != envelope.len() as u64 {
        return Err(Fail::Wrong(format!(
            "envelope of {} rows acked {ack}",
            envelope.len()
        )));
    }
    acked.fetch_add(ack, Ordering::SeqCst);
    Ok(ack)
}

/// `batch_score` of Zipf keys against the published model: one row per
/// key, each a point lookup, every key present.
fn key_read(client: &mut Client, keys: &[i64], op: u64, rec: &mut Recorder) -> Result<(), Fail> {
    let rs = rec.time("client.batch_score", op, None, || {
        client.batch_score("X", MODEL, keys, false)
    })?;
    if rs.rows.len() != keys.len() || rs.stats.rows_scanned > keys.len() as u64 {
        return Err(Fail::Wrong(format!(
            "batch_score of {} keys returned {} rows after scanning {}",
            keys.len(),
            rs.rows.len(),
            rs.stats.rows_scanned
        )));
    }
    for (row, &key) in rs.rows.iter().zip(keys) {
        if row[0].as_i64() != Some(key) || !row[1].as_f64().is_some_and(f64::is_finite) {
            return Err(Fail::Wrong(format!("key {key} scored {row:?}")));
        }
    }
    Ok(())
}

/// The Γ query: answered by the summary, and covering every row acked
/// before it was sent (plus at most the one envelope in flight).
fn gamma_read(
    client: &mut Client,
    sql: &str,
    base: u64,
    acked: &AtomicU64,
    op: u64,
    rec: &mut Recorder,
) -> Result<(), Fail> {
    let before = acked.load(Ordering::SeqCst);
    let rs = rec.time("client.execute", op, None, || client.execute(sql))?;
    let after = acked.load(Ordering::SeqCst);
    if !rs.stats.summary_path {
        return Err(Fail::Wrong("Γ read left the summary path".into()));
    }
    let packed = rs
        .rows
        .first()
        .and_then(|r| r.first())
        .and_then(Value::as_str)
        .ok_or_else(|| Fail::Wrong("Γ read returned no packed value".into()))?;
    let got = unpack_nlq(packed)
        .map_err(|e| Fail::Wrong(format!("unpack Γ: {e}")))?
        .n() as u64;
    let (lo, hi) = (base + before, base + after + ENVELOPE_ROWS as u64);
    if got < lo || got > hi {
        return Err(Fail::Wrong(format!(
            "summary Γ covers {got} rows, expected {lo}..={hi}"
        )));
    }
    Ok(())
}

fn check_count(db: &Db, want: u64, what: &str) -> Result<(), String> {
    let rs = db
        .execute("SELECT count(*) FROM X")
        .map_err(|e| format!("count {what}: {e}"))?;
    match rs.rows[0][0].as_i64() {
        Some(got) if got as u64 == want => Ok(()),
        got => Err(format!(
            "wrong answer: {what} holds {got:?} rows, expected {want}"
        )),
    }
}

/// The maintained summary Γ against a Γ the engine scans for (the
/// predicate keeps the summary from answering).
fn check_summary_equals_scan(db: &Db, cols: &[String]) -> Result<(), String> {
    let summary = SqlEngine::summary_gamma(db, SUMMARY).map_err(|e| format!("summary Γ: {e}"))?;
    let rs = db
        .execute(&format!("{} WHERE i > 0", gamma_sql(cols)))
        .map_err(|e| format!("scan Γ: {e}"))?;
    if rs.stats.summary_path {
        return Err("scan Γ was answered by the summary".into());
    }
    let scan = rs.rows[0][0]
        .as_str()
        .ok_or("scan Γ returned no packed value")
        .and_then(|s| unpack_nlq(s).map_err(|_| "scan Γ does not unpack"))?;
    let (qs, qc) = (summary.q_full(), scan.q_full());
    let mut ok = summary.n() == scan.n();
    for a in 0..cols.len() {
        ok &= close(summary.l()[a], scan.l()[a], 1e-9);
        for b in 0..=a {
            ok &= close(qs[(a, b)], qc[(a, b)], 1e-9);
        }
    }
    if !ok {
        return Err(format!(
            "wrong answer: recovered summary Γ (n = {}) differs from scan Γ (n = {})",
            summary.n(),
            scan.n()
        ));
    }
    Ok(())
}
