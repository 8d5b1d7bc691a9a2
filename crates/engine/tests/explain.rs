//! Tests for EXPLAIN: the plan text must reflect the executor's
//! actual decisions (pushdown, join sizing, fast paths, aggregation).

use nlq_engine::{sqlgen, Db};
use nlq_models::MatrixShape;

fn plan_text(db: &Db, sql: &str) -> String {
    let rs = db.execute(sql).unwrap();
    assert_eq!(rs.columns, vec!["plan"]);
    rs.rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect::<Vec<_>>()
        .join("\n")
}

fn scoring_db() -> Db {
    let db = Db::new(4);
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 7) as f64]).collect();
    db.load_points("X", &rows, false).unwrap();
    db
}

#[test]
fn explain_simple_scan() {
    let db = scoring_db();
    let plan = plan_text(&db, "EXPLAIN SELECT X1, X2 FROM X WHERE X1 > 10");
    assert!(
        plan.contains("scan X (100 rows, 4 partitions, 4 workers)"),
        "{plan}"
    );
    assert!(plan.contains("filter: 1 residual predicate(s)"), "{plan}");
    assert!(plan.contains("project: 2 expression(s)"), "{plan}");
}

#[test]
fn explain_shows_pushdown_collapsing_the_join() {
    let db = scoring_db();
    // 16-centroid scoring: 16 aliases of C, each pinned by WHERE.
    let centroids: Vec<nlq_linalg::Vector> = (0..16)
        .map(|j| nlq_linalg::Vector::from_vec(vec![j as f64, 0.0]))
        .collect();
    db.register_centroids("C", &centroids).unwrap();
    let names = sqlgen::x_cols(2);
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::score_cluster_udf("X", &names, 16, "C")
    );
    let plan = plan_text(&db, &sql);
    // Without pushdown this product would be 16^16; with it, exactly 1.
    assert!(
        plan.contains("-> 1 combination(s) after pushing 16 predicate(s)"),
        "{plan}"
    );
}

#[test]
fn explain_aggregate_counts_fast_paths_and_udfs() {
    let db = scoring_db();
    let names = sqlgen::x_cols(2);
    // The paper's long SQL query: 1 + d + d(d+1)/2 = 6 sum() terms at
    // d = 2 (plus 1 null placeholder) — all fast-path candidates.
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::nlq_sql_query("X", &names, MatrixShape::Triangular)
    );
    let plan = plan_text(&db, &sql);
    assert!(
        plan.contains("aggregate: 6 call(s) (6 fast-path candidate(s), 0 UDF state(s))"),
        "{plan}"
    );

    // The UDF form: exactly one aggregate call, one UDF state.
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::nlq_udf_query(
            "X",
            &names,
            MatrixShape::Triangular,
            nlq_udf::ParamStyle::List
        )
    );
    let plan = plan_text(&db, &sql);
    assert!(
        plan.contains("aggregate: 1 call(s) (0 fast-path candidate(s), 1 UDF state(s))"),
        "{plan}"
    );
}

#[test]
fn explain_group_order_limit() {
    let db = scoring_db();
    let plan = plan_text(
        &db,
        "EXPLAIN SELECT X2, count(*) FROM X GROUP BY X2 HAVING count(*) > 5 \
         ORDER BY count(*) DESC LIMIT 3",
    );
    assert!(plan.contains("group by 1 key(s)"), "{plan}");
    assert!(plan.contains("having: post-aggregation filter"), "{plan}");
    assert!(plan.contains("order by: 1 key(s)"), "{plan}");
    assert!(plan.contains("limit: 3"), "{plan}");
}

#[test]
fn explain_reports_scan_mode() {
    let db = scoring_db();
    let names = sqlgen::x_cols(2);

    // All-numeric aggregate pipeline, no predicates → block mode,
    // over the 2 projected float columns.
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::nlq_udf_query(
            "X",
            &names,
            MatrixShape::Triangular,
            nlq_udf::ParamStyle::List
        )
    );
    let plan = plan_text(&db, &sql);
    assert!(
        plan.contains("scan mode: block (1024-row column blocks over 2 float column(s))"),
        "{plan}"
    );

    // A compilable residual predicate stays on the block path as a
    // selection bitmap.
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM X WHERE X2 > 1");
    assert!(
        plan.contains("scan mode: block") && plan.contains("1 predicate(s) as selection bitmap"),
        "{plan}"
    );

    // A predicate outside the compilable subset (arithmetic) forces
    // the row path.
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM X WHERE X1 + X2 > 1");
    assert!(
        plan.contains("scan mode: row-at-a-time (1 residual predicate(s) not block-compilable)"),
        "{plan}"
    );

    // GROUP BY forces the row path.
    let plan = plan_text(&db, "EXPLAIN SELECT X2, sum(X1) FROM X GROUP BY X2");
    assert!(plan.contains("scan mode: row-at-a-time"), "{plan}");

    // So does disabling the block path on the connection.
    let db = scoring_db();
    db.set_block_scan(false);
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM X");
    assert!(plan.contains("scan mode: row-at-a-time"), "{plan}");
}

#[test]
fn result_sets_carry_exec_stats() {
    let db = scoring_db();
    let rs = db.execute("SELECT sum(X1), min(X2) FROM X").unwrap();
    assert!(rs.stats.block_path);
    assert_eq!(rs.stats.rows_scanned, 100);
    // 100 rows over 4 partitions: one (partial) block each.
    assert_eq!(rs.stats.blocks_scanned, 4);

    let db = scoring_db();
    db.set_block_scan(false);
    let rs = db.execute("SELECT sum(X1), min(X2) FROM X").unwrap();
    assert!(!rs.stats.block_path);
    assert_eq!(rs.stats.rows_scanned, 100);
    assert_eq!(rs.stats.blocks_scanned, 0);
}

#[test]
fn explain_analyze_executes_and_reports_phases() {
    let db = scoring_db();
    let plan = plan_text(&db, "EXPLAIN ANALYZE SELECT sum(X1), min(X2) FROM X");
    assert!(plan.starts_with("total: "), "{plan}");
    assert!(plan.contains("phase parse: "), "{plan}");
    assert!(plan.contains("phase plan: "), "{plan}");
    assert!(plan.contains("phase scan: "), "{plan}");
    assert!(plan.contains("rows=100"), "{plan}");
    // The trailing remainder phase makes the listed times sum exactly
    // to the reported total.
    assert!(plan.contains("phase other: "), "{plan}");
    assert!(plan.contains("scan mode: block"), "{plan}");
    assert!(plan.contains("rows scanned: 100"), "{plan}");

    // EXPLAIN ANALYZE really executes: stats carry the scan counters.
    let rs = db.execute("EXPLAIN ANALYZE SELECT sum(X1) FROM X").unwrap();
    assert_eq!(rs.stats.rows_scanned, 100);
    assert!(rs.stats.block_path);
}

#[test]
fn explain_analyze_reports_summary_answers() {
    let db = scoring_db();
    db.execute("CREATE SUMMARY sx ON X (X1, X2)").unwrap();
    let plan = plan_text(&db, "EXPLAIN ANALYZE SELECT sum(X1) FROM X");
    assert!(plan.contains("phase summary-lookup: "), "{plan}");
    assert!(
        plan.contains("scan mode: summary (answered from materialized Γ, no scan)"),
        "{plan}"
    );
    assert!(plan.contains("rows scanned: 0"), "{plan}");
    assert!(plan.contains("summary: 1 hit(s)"), "{plan}");
}

#[test]
fn trace_option_records_engine_phase_spans() {
    use nlq_engine::ExecOptions;
    use nlq_obs::{Phase, Trace};

    let db = scoring_db();
    let trace = Trace::new();
    let opts = ExecOptions {
        trace: Some(trace.clone()),
        ..ExecOptions::default()
    };
    db.execute_with("SELECT sum(X1) FROM X", &opts).unwrap();
    let spans = trace.spans();
    let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
    assert!(phases.contains(&Phase::Parse), "{phases:?}");
    assert!(phases.contains(&Phase::Plan), "{phases:?}");
    assert!(phases.contains(&Phase::Scan), "{phases:?}");
    let scan = spans.iter().find(|s| s.phase == Phase::Scan).unwrap();
    assert_eq!(scan.rows, 100);
    // Spans are laid out sequentially from the statement start.
    for pair in spans.windows(2) {
        assert!(pair[1].start_nanos >= pair[0].start_nanos + pair[0].dur_nanos);
    }
}

#[test]
fn explain_does_not_execute_the_scan() {
    // EXPLAIN of a query with a failing UDF argument must still work:
    // the scan never runs, so per-row errors never happen.
    let db = scoring_db();
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1 / (X2 - X2)) FROM X");
    assert!(plan.contains("aggregate: 1 call(s)"), "{plan}");
}

/// The access path a statement took or will take, as both surfaces
/// name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Summary,
    Block,
    Row,
}

fn kind_of(mode: &str) -> Kind {
    if mode.starts_with("summary") {
        Kind::Summary
    } else if mode.starts_with("block") {
        Kind::Block
    } else if mode.starts_with("row-at-a-time") {
        Kind::Row
    } else {
        panic!("unknown scan mode {mode:?}")
    }
}

/// EXPLAIN's verdict: the `scan mode:` kind, plus the fallback it
/// names for a stale summary.
fn explained_kinds(plan: &str) -> (Kind, Option<Kind>) {
    let mode = plan
        .lines()
        .find_map(|l| l.strip_prefix("scan mode: "))
        .unwrap_or_else(|| panic!("no scan mode line:\n{plan}"));
    let fallback = mode.split_once("; fallback: ").map(|(_, f)| kind_of(f));
    (kind_of(mode), fallback)
}

fn executed_kind(stats: &nlq_engine::ExecStats) -> Kind {
    if stats.summary_path {
        Kind::Summary
    } else if stats.block_path {
        Kind::Block
    } else {
        Kind::Row
    }
}

/// One corpus entry: statements run after loading (summaries, DML),
/// the block-scan toggle, and the query.
struct Case {
    name: &'static str,
    setup: &'static [&'static str],
    block_scan: bool,
    sql: String,
}

/// `X(i, X1..X3, Y)` with `Y = i mod 4`, plus a regression model `B`,
/// centroids `C`, PCA tables `LAMBDA`/`MU`, and `T(x, y)` whose `x` has
/// NULLs.
fn corpus_rows() -> Vec<Vec<f64>> {
    (0..600)
        .map(|i| {
            let t = i as f64;
            vec![
                t * 0.5 - 100.0,
                (i % 17) as f64 - 8.0,
                (t * 0.37).sin(),
                (i % 4) as f64,
            ]
        })
        .collect()
}

fn load_models(
    mut register_beta: impl FnMut(&nlq_linalg::Vector),
    mut register_centroids: impl FnMut(&[nlq_linalg::Vector]),
    mut register_pca: impl FnMut(&nlq_linalg::Matrix, &nlq_linalg::Vector),
) {
    register_beta(&nlq_linalg::Vector::from_vec(vec![0.5, -1.0, 2.0]));
    let centroids: Vec<nlq_linalg::Vector> = (0..3)
        .map(|j| nlq_linalg::Vector::from_vec(vec![j as f64, 1.0, -(j as f64)]))
        .collect();
    register_centroids(&centroids);
    let mut lambda = nlq_linalg::Matrix::zeros(3, 2);
    lambda[(0, 0)] = 1.0;
    lambda[(1, 1)] = 1.0;
    register_pca(&lambda, &nlq_linalg::Vector::from_vec(vec![0.0; 3]));
}

fn corpus_db(case: &Case) -> Db {
    let db = Db::new(4);
    db.load_points("X", &corpus_rows(), true).unwrap();
    load_models(
        |b| db.register_beta("B", 0.25, b).unwrap(),
        |c| db.register_centroids("C", c).unwrap(),
        |l, m| {
            db.register_lambda("LAMBDA", l).unwrap();
            db.register_mu("MU", m).unwrap();
        },
    );
    db.execute("CREATE TABLE T (x FLOAT, y FLOAT)").unwrap();
    db.execute("INSERT INTO T VALUES (1.0, 2.0), (NULL, 3.0), (4.0, 5.0), (2.5, NULL), (7.0, 1.0)")
        .unwrap();
    for stmt in case.setup {
        db.execute(stmt).unwrap();
    }
    db.set_block_scan(case.block_scan);
    db
}

fn corpus() -> Vec<Case> {
    use nlq_udf::ParamStyle;
    let cols = sqlgen::x_cols(3);
    let case = |name, setup, block_scan, sql: String| Case {
        name,
        setup,
        block_scan,
        sql,
    };
    let fresh: &[&str] = &["CREATE SUMMARY sx ON X (X1, X2, X3)"];
    // DELETE leaves a min/max summary stale (min/max do not subtract).
    let stale: &[&str] = &[
        "CREATE SUMMARY sx ON X (X1, X2, X3)",
        "DELETE FROM X WHERE i > 590",
    ];
    // T's summary skips its NULL-x row, so it may only answer a full
    // nlq over both columns; a stale one learns that only on rebuild.
    let t_fresh: &[&str] = &["CREATE SUMMARY st ON T (x, y)"];
    let t_stale: &[&str] = &[
        "CREATE SUMMARY st ON T (x, y)",
        "DELETE FROM T WHERE y > 4.5",
    ];
    let x1_only: &[&str] = &["CREATE SUMMARY s ON X (X1)"];
    let grouped: &[&str] = &["CREATE SUMMARY g ON X (X1, X2) GROUP BY Y"];
    let tri = MatrixShape::Triangular;
    vec![
        case(
            "long SQL Γ",
            &[],
            true,
            sqlgen::nlq_sql_query("X", &cols, tri),
        ),
        case(
            "nlq_list UDF",
            &[],
            true,
            sqlgen::nlq_udf_query("X", &cols, tri, ParamStyle::List),
        ),
        case(
            "nlq_str UDF",
            &[],
            true,
            sqlgen::nlq_udf_query("X", &cols, tri, ParamStyle::String),
        ),
        case(
            "grouped nlq_list",
            &[],
            true,
            sqlgen::nlq_grouped_query("X", &cols, "Y", tri, ParamStyle::List),
        ),
        case(
            "regression scoring",
            &[],
            true,
            sqlgen::score_regression_udf("X", &cols, "B"),
        ),
        case(
            "cluster scoring",
            &[],
            true,
            sqlgen::score_cluster_udf("X", &cols, 3, "C"),
        ),
        case(
            "PCA scoring",
            &[],
            true,
            sqlgen::score_pca_udf("X", &cols, 2, "LAMBDA", "MU"),
        ),
        case(
            "filtered aggregate",
            &[],
            true,
            "SELECT sum(X1), count(*) FROM X WHERE X2 > 0".into(),
        ),
        case(
            "filtered aggregate, arithmetic predicate",
            &[],
            true,
            "SELECT sum(X1) FROM X WHERE X1 * X2 > 1".into(),
        ),
        case(
            "filtered scoring",
            &[],
            true,
            format!(
                "{} WHERE x.X2 > 0",
                sqlgen::score_regression_udf("X", &cols, "B")
            ),
        ),
        case(
            "cross join",
            &[],
            true,
            "SELECT count(*), sum(x.X1) FROM X x CROSS JOIN C c".into(),
        ),
        case(
            "GROUP BY",
            &[],
            true,
            "SELECT Y, sum(X1), avg(X2) FROM X GROUP BY Y".into(),
        ),
        case(
            "ORDER BY aggregate",
            &[],
            true,
            "SELECT Y, sum(X1) FROM X GROUP BY Y ORDER BY sum(X2) DESC".into(),
        ),
        case(
            "global ORDER BY aggregate",
            &[],
            true,
            "SELECT sum(X1) FROM X ORDER BY sum(X2)".into(),
        ),
        case(
            "scalar ORDER BY",
            &[],
            true,
            "SELECT i, X1 FROM X ORDER BY X1 DESC LIMIT 5".into(),
        ),
        case(
            "block scan off",
            &[],
            false,
            "SELECT sum(X1), min(X2) FROM X".into(),
        ),
        case(
            "block scan off, scoring",
            &[],
            false,
            sqlgen::score_regression_udf("X", &cols, "B"),
        ),
        case("integer argument", &[], true, "SELECT sum(i) FROM X".into()),
        case(
            "fresh summary",
            fresh,
            true,
            sqlgen::nlq_udf_query("X", &cols, tri, ParamStyle::List),
        ),
        case(
            "fresh summary, plain aggregates",
            fresh,
            true,
            "SELECT sum(X1), avg(X3) FROM X".into(),
        ),
        case(
            "fresh summary, unsummarized column",
            fresh,
            true,
            "SELECT sum(Y) FROM X".into(),
        ),
        case(
            "fresh summary, filtered",
            fresh,
            true,
            "SELECT sum(X1) FROM X WHERE X2 > 0".into(),
        ),
        case(
            "stale summary",
            stale,
            true,
            "SELECT sum(X1), count(*) FROM X".into(),
        ),
        case(
            "stale summary, scan off",
            stale,
            false,
            "SELECT sum(X2) FROM X".into(),
        ),
        case(
            "grouped summary",
            grouped,
            true,
            "SELECT Y, sum(X1) FROM X GROUP BY Y".into(),
        ),
        case(
            "fresh summary, NULL rows skipped",
            t_fresh,
            true,
            "SELECT sum(y) FROM T".into(),
        ),
        case(
            "fresh summary, NULL rows skipped, full nlq",
            t_fresh,
            true,
            "SELECT nlq_list(2, 'triang', x, y) FROM T".into(),
        ),
        case(
            "stale summary, NULL rows skipped",
            t_stale,
            true,
            "SELECT sum(x) FROM T".into(),
        ),
        // The two statements an earlier, mirrored EXPLAIN misreported:
        // ORDER BY adds a call the summary cannot answer, and a stale
        // summary that skips NULL rows falls back after its rebuild.
        case(
            "probe: ORDER BY call",
            x1_only,
            true,
            "SELECT sum(X1) FROM X ORDER BY sum(X2)".into(),
        ),
        case(
            "probe: stale NULL-skipping summary",
            t_stale,
            true,
            "SELECT avg(x) FROM T".into(),
        ),
    ]
}

#[test]
fn explain_scan_mode_matches_the_executed_path() {
    for case in corpus() {
        let db = corpus_db(&case);
        let plan = plan_text(&db, &format!("EXPLAIN {}", case.sql));
        let (explained, fallback) = explained_kinds(&plan);
        let rs = db
            .execute(&case.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let ran = executed_kind(&rs.stats);
        match fallback {
            None => assert_eq!(ran, explained, "{}:\n{plan}", case.name),
            Some(f) => assert!(
                ran == Kind::Summary || ran == f,
                "{}: ran {ran:?}, EXPLAIN named summary or {f:?}:\n{plan}",
                case.name
            ),
        }
        // Only a stale summary's line names a fallback.
        assert_eq!(
            fallback.is_some(),
            plan.contains("stale; rebuilt on execute"),
            "{}:\n{plan}",
            case.name
        );
    }
}

#[test]
fn motivating_probes_report_the_path_that_runs() {
    let cases = corpus();
    let probe = |name: &str| cases.iter().find(|c| c.name == name).unwrap();

    // The ORDER BY call is bound by EXPLAIN too: two calls, block scan.
    let case = probe("probe: ORDER BY call");
    let db = corpus_db(case);
    let plan = plan_text(&db, &format!("EXPLAIN {}", case.sql));
    assert!(plan.contains("aggregate: 2 call(s)"), "{plan}");
    assert!(plan.contains("scan mode: block"), "{plan}");
    let rs = db.execute(&case.sql).unwrap();
    assert!(rs.stats.block_path && !rs.stats.summary_path);
    assert_eq!(rs.stats.summary_misses, 1);

    // The stale summary is rebuilt, then its skipped NULL row sends
    // the statement to the named block fallback.
    let case = probe("probe: stale NULL-skipping summary");
    let db = corpus_db(case);
    let plan = plan_text(&db, &format!("EXPLAIN {}", case.sql));
    assert!(
        plan.contains("scan mode: summary (st, stale; rebuilt on execute); fallback: block"),
        "{plan}"
    );
    let rs = db.execute(&case.sql).unwrap();
    assert!(rs.stats.block_path && !rs.stats.summary_path);
    assert_eq!(rs.stats.summary_stale_rebuilds, 1);
    assert_eq!(rs.stats.summary_misses, 1);
}

#[test]
fn sharded_explain_matches_the_executed_path() {
    use nlq_shard::ShardedDb;
    for case in corpus().into_iter().filter(|c| c.setup.is_empty()) {
        let db = ShardedDb::new(2, 2);
        db.load_points("X", &corpus_rows(), true).unwrap();
        load_models(
            |b| db.register_beta("B", 0.25, b).unwrap(),
            |c| db.register_centroids("C", c).unwrap(),
            |l, m| {
                db.register_lambda("LAMBDA", l).unwrap();
                db.register_mu("MU", m).unwrap();
            },
        );
        db.set_block_scan(case.block_scan);
        let rs = db.execute(&format!("EXPLAIN {}", case.sql)).unwrap();
        let plan: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        let plan = plan.join("\n");
        let (explained, fallback) = explained_kinds(&plan);
        assert_eq!(fallback, None, "{}:\n{plan}", case.name);
        let rs = db
            .execute(&case.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            executed_kind(&rs.stats),
            explained,
            "{}:\n{plan}",
            case.name
        );
    }
}
