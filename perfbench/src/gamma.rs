//! `gamma_build`: the paper's headline path. One closed-loop client
//! asks a 2-shard `ShardedDb` over loopback for Γ of every row — no
//! summary is defined, so every op scans — and fits a linear regression
//! and a PCA from the answer. An open-loop reader pings the server
//! beside it: a shard-routed point read would queue in each shard's
//! executor behind the running Γ partial, which makes its latency a
//! function of the op's phase, not of the read path.

use std::sync::Arc;

use nlq_client::Client;
use nlq_engine::SqlEngine;
use nlq_linalg::{Matrix, Vector};
use nlq_models::{LinearRegression, Nlq, Pca, PcaInput};
use nlq_server::serve;
use nlq_shard::ShardedDb;
use nlq_storage::Value;
use nlq_udf::pack::unpack_nlq;

use crate::common::{
    end_to_end, gamma_sql, measure, server_config, timed_setups, traced_report, x_cols, Fail,
    Subject,
};
use crate::gen::{self, subseed};
use crate::stats::{median, RefGamma};
use crate::trace::Recorder;
use crate::{Config, Report};

/// Dimensionality of the mixture data.
pub(crate) const D: usize = 16;
const SHARDS: usize = 2;
/// PCA components fitted per op.
const PCA_K: usize = 4;

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let (b0, beta) = gen::beta(D, cfg.seed);
    let (built, setups) = timed_setups(cfg.setup_reps, |_| {
        let rows = gen::mixture_rows(cfg.rows, D, cfg.seed);
        let db = Arc::new(ShardedDb::new(SHARDS, 1));
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
    let reference = RefGamma::of(D, rows.iter().map(Vec::as_slice));
    let sql = gamma_sql(&x_cols(D));

    let out = {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut reader = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        measure(
            cfg.seconds,
            cfg.workload.read_rate(),
            subseed(cfg.seed, 5),
            cfg.trace,
            |op, rec| gamma_op(&mut client, &sql, &reference, cfg.tamper, op, rec),
            |op, rec| Ok(rec.time("client.ping", op, None, || reader.ping())?),
        )?
    };
    if !cfg.trace {
        return Ok(Report::new(&out, end_to_end(median(&setups), &out)));
    }
    let subject = Subject {
        engine: db.as_ref(),
        shards: (0..SHARDS).map(|i| db.shard_db(i).as_ref()).collect(),
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

/// One model build: Γ over the wire, checked against the benchmark's
/// own sums, then a regression and a PCA fitted from it.
fn gamma_op(
    client: &mut Client,
    sql: &str,
    reference: &RefGamma,
    tamper: bool,
    op: u64,
    rec: &mut Recorder,
) -> Result<u64, Fail> {
    let root = rec.begin("bench.model_build", op, None);
    let rs = rec.time("client.execute", op, Some(root), || client.execute(sql))?;
    let packed = rs
        .rows
        .first()
        .and_then(|r| r.first())
        .and_then(Value::as_str)
        .ok_or_else(|| Fail::Wrong("Γ query returned no packed value".into()))?;
    let mut nlq = unpack_nlq(packed).map_err(|e| Fail::Wrong(format!("unpack Γ: {e}")))?;
    if tamper {
        nlq = perturbed(&nlq);
    }
    if rs.stats.rows_scanned != reference.n() {
        return Err(Fail::Wrong(format!(
            "Γ scanned {} rows, the table holds {}",
            rs.stats.rows_scanned,
            reference.n()
        )));
    }
    reference.check(&nlq, 1e-9).map_err(Fail::Wrong)?;
    rec.time("core.fit", op, Some(root), || fit(&nlq))
        .map_err(Fail::Wrong)?;
    rec.end(root);
    Ok(reference.n())
}

/// Fits the op's two models: X_d regressed on the other dimensions,
/// and a correlation PCA.
pub(crate) fn fit(nlq: &Nlq) -> Result<(), String> {
    let reg = LinearRegression::fit(nlq).map_err(|e| format!("regression fit: {e}"))?;
    let pca = Pca::fit(nlq, PCA_K.min(nlq.d()), PcaInput::Correlation)
        .map_err(|e| format!("pca fit: {e}"))?;
    if !reg.intercept().is_finite() || pca.eigenvalues().iter().any(|v| !v.is_finite()) {
        return Err("model fit produced a non-finite value".into());
    }
    Ok(())
}

/// Γ with one cross-product entry moved by a relative 1e-6.
pub(crate) fn perturbed(nlq: &Nlq) -> Nlq {
    let mut q: Matrix = nlq.q_full();
    let (a, b) = (nlq.d() - 1, 0);
    q[(a, b)] *= 1.0 + 1e-6;
    q[(b, a)] = q[(a, b)];
    Nlq::from_parts(
        nlq.shape(),
        nlq.n(),
        nlq.l().clone(),
        q,
        nlq.min().to_vec(),
        nlq.max().to_vec(),
    )
    .expect("same dimensions")
}
