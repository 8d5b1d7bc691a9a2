//! `score_stream`: the paper's scoring path. One closed-loop client
//! streams every scored row of `X CROSS JOIN BETA` from a single `Db`
//! over loopback, so scalar-UDF evaluation, wire encoding and client
//! decoding carry the op. An open-loop reader scores Zipf-skewed keys
//! beside it.

use std::sync::Arc;

use nlq_client::Client;
use nlq_engine::{Db, SqlEngine};
use nlq_linalg::Vector;
use nlq_server::serve;

use crate::common::{
    end_to_end, measure, score_sql, server_config, timed_setups, traced_report, x_cols, Fail,
    Subject, READ_KEYS, WORKERS,
};
use crate::gen::{self, subseed, Rng, Zipf};
use crate::stats::{close, median};
use crate::trace::Recorder;
use crate::{Config, Report};

/// Dimensionality of the scored data.
const D: usize = 8;
/// Rows of each streamed result checked against `b0 + β·x`.
const SAMPLE_ROWS: usize = 1000;

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let (b0, beta) = gen::beta(D, cfg.seed);
    let (built, setups) = timed_setups(cfg.setup_reps, |_| {
        let rows = gen::mixture_rows(cfg.rows, D, cfg.seed);
        let db = Arc::new(Db::new(WORKERS));
        db.load_points("X", &rows, false)
            .map_err(|e| format!("load: {e}"))?;
        db.register_beta("BETA", b0, &Vector::from_slice(&beta))
            .map_err(|e| format!("register model: {e}"))?;
        let server = serve(Arc::clone(&db) as Arc<dyn SqlEngine>, server_config(None))
            .map_err(|e| format!("serve: {e}"))?;
        Ok((rows, db, server))
    })?;
    let (rows, db, server) = &built;
    let addr = server.addr();
    let n = rows.len();
    let sql = score_sql(D, "BETA");
    let mut sample = vec![false; n];
    let mut rng = Rng::new(subseed(cfg.seed, 2));
    for _ in 0..SAMPLE_ROWS {
        sample[rng.below(n)] = true;
    }

    let out = {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut reader = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut zipf = Zipf::new(n, subseed(cfg.seed, 1));
        let check = Check {
            rows,
            model: (b0, &beta),
            sample: &sample,
            tamper: cfg.tamper,
        };
        measure(
            cfg.seconds,
            cfg.workload.read_rate(),
            subseed(cfg.seed, 5),
            cfg.trace,
            |op, rec| stream_op(&mut client, &sql, &check, op, rec),
            |op, rec| {
                let keys = zipf.keys(READ_KEYS);
                score_read(&mut reader, "BETA", &keys, rows, (b0, &beta), op, rec)
            },
        )?
    };
    if !cfg.trace {
        return Ok(Report::new(&out, end_to_end(median(&setups), &out)));
    }
    let subject = Subject {
        engine: db.as_ref(),
        shards: vec![db.as_ref()],
        addr,
        gamma_cols: x_cols(D),
        d: D,
        with_y: false,
        model: "BETA",
        main_sql: sql.clone(),
        n,
        seed: cfg.seed,
    };
    traced_report(cfg, out, &subject)
}

/// What a streamed result is checked against.
struct Check<'a> {
    rows: &'a [Vec<f64>],
    model: (f64, &'a [f64]),
    /// Row ids (0-based) whose score is recomputed client-side.
    sample: &'a [bool],
    /// Corrupt the first sampled score before checking it.
    tamper: bool,
}

/// One full score: every row streamed back, the count checked, and
/// the sampled rows' scores recomputed.
fn stream_op(
    client: &mut Client,
    sql: &str,
    check: &Check<'_>,
    op: u64,
    rec: &mut Recorder,
) -> Result<u64, Fail> {
    let n = check.rows.len();
    let id = rec.begin("client.stream", op, None);
    let mut stream = client.query(sql)?;
    let mut count = 0u64;
    let mut tamper = check.tamper;
    for row in &mut stream {
        let row = row?;
        count += 1;
        let key = row[0].as_i64().unwrap_or(0);
        if key < 1 || key as usize > n {
            return Err(Fail::Wrong(format!("streamed row has key {:?}", row[0])));
        }
        let i = key as usize - 1;
        if check.sample[i] {
            let mut got = row[1].as_f64();
            if std::mem::take(&mut tamper) {
                got = got.map(|v| v + 1.0);
            }
            let want = gen::score(check.model.0, check.model.1, &check.rows[i]);
            if !got.is_some_and(|g| close(g, want, 1e-9)) {
                return Err(Fail::Wrong(format!(
                    "row {key} scored {:?}, expected {want}",
                    row[1]
                )));
            }
        }
    }
    drop(stream);
    rec.end(id);
    if count != n as u64 {
        return Err(Fail::Wrong(format!(
            "streamed {count} rows, the table holds {n}"
        )));
    }
    Ok(count)
}

/// One feature-store read: `batch_score` of `keys` against `model`,
/// every score checked against `b0 + β·x` of the generated row.
pub(crate) fn score_read(
    client: &mut Client,
    model: &str,
    keys: &[i64],
    rows: &[Vec<f64>],
    (b0, beta): (f64, &[f64]),
    op: u64,
    rec: &mut Recorder,
) -> Result<(), Fail> {
    let rs = rec.time("client.batch_score", op, None, || {
        client.batch_score("X", model, keys, false)
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
        let want = gen::score(b0, beta, &rows[key as usize - 1]);
        match (row[0].as_i64(), row[1].as_f64()) {
            (Some(k), Some(got)) if k == key && crate::stats::close(got, want, 1e-9) => {}
            _ => {
                return Err(Fail::Wrong(format!(
                    "key {key} scored {:?}, expected {want}",
                    row
                )))
            }
        }
    }
    Ok(())
}
