//! Every metric the benchmark reports, with its unit. The per-layer
//! entries also carry the prediction made before measuring: which
//! end-to-end figure a change in that layer should move, and on which
//! workloads it should leave the end-to-end figures flat.
//! `BENCHMARK.json` lists the same names and units.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// End-to-end figure this layer should move (per-layer only).
    pub moves: &'static str,
    /// Workloads whose end-to-end figures it should leave flat.
    pub flat_on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        moves: "",
        flat_on: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    flat_on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        moves,
        flat_on,
    }
}

/// Reported with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s"),
    e2e("rows_per_s", "rows/s"),
    e2e("op_p50_ms", "ms"),
    e2e("peak_rss_mb", "MiB"),
    e2e("ok_share", "ratio"),
];

const G: &str = "gamma_build";
const F: &str = "feature_serve";
const NOT_G: &str = "score_stream, feature_serve";
const NOT_S: &str = "gamma_build, feature_serve";
const NOT_F: &str = "gamma_build, score_stream";

/// Reported with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "linalg.gamma_kernel_gbps",
        "GB/s",
        "gamma_build rows_per_s, op_p50_ms",
        NOT_G,
    ),
    layer(
        "linalg.memcpy_gbps",
        "GB/s",
        "none: hardware reference",
        "all",
    ),
    layer(
        "linalg.roofline_share",
        "ratio",
        "gamma_build rows_per_s, op_p50_ms",
        NOT_G,
    ),
    layer(
        "udf.gamma_accumulate_gbps",
        "GB/s",
        "gamma_build op_p50_ms",
        NOT_G,
    ),
    layer(
        "storage.block_scan_gbps",
        "GB/s",
        "gamma_build, score_stream rows_per_s",
        F,
    ),
    layer("engine.gamma_exec_ms", "ms", "gamma_build op_p50_ms", NOT_G),
    layer("shard.self_ms", "ms", "gamma_build op_p50_ms", NOT_G),
    layer("server.gamma_self_ms", "ms", "gamma_build op_p50_ms", NOT_G),
    layer(
        "core.fit_us",
        "us",
        "gamma_build op_p50_ms (under 1%)",
        NOT_G,
    ),
    layer(
        "engine.rows_scanned_per_op",
        "rows",
        "none: exact count",
        "all",
    ),
    layer(
        "shard.plan_cache_hit_ratio",
        "ratio",
        "none: exact count",
        "all",
    ),
    layer(
        "engine.unattributed_share",
        "ratio",
        "none: span coverage of Db::execute",
        "all",
    ),
    layer(
        "engine.score_exec_ms",
        "ms",
        "score_stream rows_per_s, op_p50_ms",
        G,
    ),
    layer(
        "udf.score_eval_rows_per_s",
        "rows/s",
        "score_stream rows_per_s",
        G,
    ),
    layer(
        "server.encode_mb_per_s",
        "MB/s",
        "score_stream rows_per_s, op_p50_ms",
        NOT_S,
    ),
    layer(
        "client.decode_mb_per_s",
        "MB/s",
        "score_stream rows_per_s, op_p50_ms",
        NOT_S,
    ),
    layer(
        "server.loopback_mb_per_s",
        "MB/s",
        "none: hardware reference",
        "all",
    ),
    layer(
        "server.wire_bytes_per_row",
        "B/row",
        "score_stream rows_per_s",
        NOT_S,
    ),
    layer(
        "server.stream_self_ms",
        "ms",
        "score_stream op_p50_ms",
        NOT_S,
    ),
    layer(
        "engine.insert_envelope_ms",
        "ms",
        "feature_serve rows_per_s, op_p50_ms, client.read_p99_ms",
        NOT_F,
    ),
    layer(
        "storage.append_us",
        "us",
        "feature_serve rows_per_s, op_p50_ms",
        NOT_F,
    ),
    layer("summary.fold_us", "us", "feature_serve op_p50_ms", NOT_F),
    layer(
        "storage.wal_commit_us",
        "us",
        "feature_serve op_p50_ms",
        NOT_F,
    ),
    layer(
        "storage.wal_bytes_per_row",
        "B/row",
        "feature_serve op_p50_ms",
        NOT_F,
    ),
    layer(
        "storage.raw_fsync_us",
        "us",
        "none: hardware reference",
        "all",
    ),
    layer(
        "storage.wal_fsyncs_per_commit",
        "ratio",
        "feature_serve op_p50_ms",
        NOT_F,
    ),
    layer(
        "engine.recovery_s",
        "s",
        "none: restart time (0 where the engine keeps no log)",
        "all",
    ),
    layer(
        "engine.batch_score_us",
        "us",
        "feature_serve client.read_p50_ms",
        NOT_F,
    ),
    layer(
        "storage.pk_lookup_us",
        "us",
        "feature_serve client.read_p50_ms",
        NOT_F,
    ),
    layer(
        "engine.summary_read_us",
        "us",
        "feature_serve client.read_p50_ms",
        NOT_F,
    ),
    layer(
        "server.ping_rtt_us",
        "us",
        "client.read_p50_ms on every workload",
        "none",
    ),
    layer(
        "summary.hit_ratio",
        "ratio",
        "feature_serve client.read_p50_ms",
        NOT_F,
    ),
    layer(
        "feature.refresh_tick_us",
        "us",
        "feature_serve read freshness",
        NOT_F,
    ),
    layer(
        "client.op_p90_ms",
        "ms",
        "none: the op tail, unbounded because co-tenant load moves it",
        "none",
    ),
    layer(
        "client.read_p50_ms",
        "ms",
        "none: the open-loop read, unbounded because co-tenant load moves it",
        "none",
    ),
    layer(
        "client.read_p99_ms",
        "ms",
        "none: the read tail, unbounded because host CPU steal moves it",
        "none",
    ),
    layer(
        "bench.generator_lag_p99_ms",
        "ms",
        "none: validity of the run",
        "all",
    ),
    layer(
        "bench.tracing_overhead_share",
        "ratio",
        "none: validity of the run",
        "all",
    ),
];

/// The catalogue entry for `name`, in either list.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
