//! The traced run's per-layer measurements: tallies read from what the
//! engine already exposes (`QueryTrace`, `QueryStats.metrics`,
//! `DurabilityStatus`) and probes that time calls into one layer's public
//! functions, each inside a benchmark-side span.

use crate::common::Stmt;
use crate::spans::Recorder;
use crate::stats;
use rasql_api::wire::Response;
use rasql_core::{QueryResult, RaSqlContext};
use rasql_storage::crashpoint::CrashInjector;
use rasql_storage::snapshot::encode_state;
use rasql_storage::{CsrGraph, CsrWeight, DurableState, Relation, Row, Wal, WalRecord};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Rows per `RowBatch` frame, as the server streams them.
const BATCH_ROWS: usize = 512;

/// Median of `xs`, or 0 when a probe had nothing to time.
fn med(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Engine-side counters summed over the traced statements.
#[derive(Debug, Default)]
pub struct EngineTally {
    statements: u64,
    cliques: u64,
    kernel_cliques: u64,
    cache_hits: u64,
    rounds: u64,
    delta_rows: u64,
    round_us: u64,
    stages: u64,
    tasks: u64,
    dispatch_us: u64,
    run_us: u64,
    barrier_us: u64,
    stage_us: u64,
    elapsed_us: u64,
    shuffle_rows: u64,
    shuffle_bytes: u64,
    combined_rows: u64,
    join_output_rows: u64,
    remote_fetches: u64,
    broadcast_bytes: u64,
    peak_memory: u64,
}

impl EngineTally {
    /// Fold in one traced statement.
    pub fn add(&mut self, r: &QueryResult) {
        let m = &r.stats.metrics;
        self.statements += 1;
        self.cache_hits += m.cache_hits;
        self.stages += m.stages;
        self.tasks += m.tasks;
        self.shuffle_rows += m.shuffle_rows;
        self.shuffle_bytes += m.shuffle_bytes;
        self.combined_rows += m.combined_rows;
        self.join_output_rows += m.join_output_rows;
        self.remote_fetches += m.remote_fetches;
        self.broadcast_bytes += m.broadcast_bytes;
        self.peak_memory = self.peak_memory.max(m.peak_memory);
        let Some(t) = &r.trace else { return };
        self.elapsed_us += t.elapsed_us;
        for s in &t.stages {
            self.dispatch_us += s.dispatch_us;
            self.run_us += s.run_us;
            self.barrier_us += s.barrier_us;
            self.stage_us += s.total_us;
        }
        for c in &t.cliques {
            self.cliques += 1;
            if c.kernel != "generic" {
                self.kernel_cliques += 1;
            }
            self.rounds += u64::from(c.fixpoint_rounds);
            for it in &c.iterations {
                self.delta_rows += it.delta_rows;
                self.round_us += it.elapsed_us;
            }
        }
    }

    /// Write the engine layers' metrics. Counts and times are per statement.
    pub fn fill(&self, out: &mut Metrics) {
        let per = |v: u64| ratio(v, self.statements);
        out.insert(
            "kernel.clique_share",
            ratio(self.kernel_cliques, self.cliques),
        );
        out.insert(
            "csr.cache_hit_ratio",
            ratio(self.cache_hits, self.kernel_cliques),
        );
        out.insert("fixpoint.rounds", per(self.rounds));
        out.insert("fixpoint.delta_rows", per(self.delta_rows));
        out.insert("fixpoint.round_ms", per(self.round_us) / 1e3);
        out.insert("exec.stages", per(self.stages));
        out.insert("exec.tasks", per(self.tasks));
        out.insert("exec.dispatch_ms", per(self.dispatch_us) / 1e3);
        out.insert("exec.run_ms", per(self.run_us) / 1e3);
        out.insert("exec.barrier_ms", per(self.barrier_us) / 1e3);
        out.insert("exec.shuffle_rows", per(self.shuffle_rows));
        out.insert("exec.shuffle_bytes", per(self.shuffle_bytes));
        out.insert("exec.combined_rows", per(self.combined_rows));
        out.insert("exec.join_output_rows", per(self.join_output_rows));
        out.insert("exec.remote_fetches", per(self.remote_fetches));
        out.insert("exec.broadcast_bytes", per(self.broadcast_bytes));
        out.insert("governor.peak_memory_bytes", self.peak_memory as f64);
        out.insert(
            "trace.unattributed_frac",
            1.0 - ratio(self.stage_us, self.elapsed_us),
        );
    }
}

/// Run `stmts` in-process with tracing on, each inside a `statement` span
/// with a `core.query` child, and push every result's row batches through
/// the wire codec (`wire.encode` / `wire.decode` children). Returns the
/// rows and bytes the codec handled.
pub fn traced_statements(
    rec: &mut Recorder,
    ctx: &RaSqlContext,
    stmts: &mut dyn FnMut() -> Option<Stmt>,
    tally: &mut EngineTally,
    on_ok: &mut dyn FnMut(&Stmt),
) -> Result<(u64, u64), String> {
    let (mut rows, mut bytes) = (0u64, 0u64);
    while let Some(stmt) = stmts() {
        let req = rec.request();
        rec.span(
            req,
            None,
            "statement",
            |rec, parent| -> Result<(), String> {
                let result = rec
                    .span(req, Some(parent), "core.query", |_, _| ctx.query(&stmt.sql))
                    .map_err(|e| format!("traced `{}`: {e}", stmt.sql))?;
                tally.add(&result);
                on_ok(&stmt);
                for chunk in result.relation.rows().chunks(BATCH_ROWS) {
                    let frame = Response::RowBatch {
                        rows: chunk.to_vec(),
                    };
                    let encoded = rec.span(req, Some(parent), "wire.encode", |_, _| frame.encode());
                    let decoded = rec.span(req, Some(parent), "wire.decode", |_, _| {
                        Response::decode(&encoded)
                    });
                    if decoded.as_ref() != Ok(&frame) {
                        return Err(format!("wire round trip changed a batch of `{}`", stmt.sql));
                    }
                    rows += chunk.len() as u64;
                    bytes += encoded.len() as u64;
                }
                Ok(())
            },
        )?;
    }
    Ok((rows, bytes))
}

/// Wire metrics from the spans `traced_statements` recorded.
pub fn fill_wire(rec: &Recorder, rows: u64, bytes: u64, out: &mut Metrics) {
    out.insert("wire.encode_us", med(&rec.durations("wire.encode")));
    out.insert("wire.decode_us", med(&rec.durations("wire.decode")));
    out.insert("wire.bytes_per_row", ratio(bytes, rows));
}

/// `plan.compile_us`: median over the distinct query statements of the
/// median `RaSqlContext::explain` time (three calls each).
pub fn compile_probe(
    rec: &mut Recorder,
    ctx: &RaSqlContext,
    sqls: &[String],
) -> Result<f64, String> {
    let mut per_stmt = Vec::new();
    for sql in sqls {
        let req = rec.request();
        let mut times = Vec::new();
        for _ in 0..3 {
            rec.span(req, None, "plan.compile", |_, _| ctx.explain(sql))
                .map_err(|e| format!("explain `{sql}`: {e}"))?;
            times.push(rec.last_us());
        }
        per_stmt.push(med(&times));
    }
    Ok(med(&per_stmt))
}

/// `csr.build_ms` (median of three builds) and `csr.bytes` for an edge table
/// whose columns 0 and 1 are the endpoints.
pub fn csr_probe(
    rec: &mut Recorder,
    edges: &Relation,
    weight: CsrWeight,
    partitions: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let req = rec.request();
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..3 {
        let g = rec
            .span(req, None, "csr.build", |_, _| {
                CsrGraph::build(edges.rows(), 0, 1, weight, std::iter::empty(), partitions)
            })
            .ok_or("CsrGraph::build rejected the edge table")?;
        times.push(rec.last_us() / 1e3);
        bytes = g.size_bytes();
    }
    out.insert("csr.build_ms", med(&times));
    out.insert("csr.bytes", bytes as f64);
    Ok(())
}

/// `wal.append_us`, `wal.bytes_per_insert` and `wal.snapshot_ms`: append
/// one single-row insert record per row to a fresh log in `dir`, then
/// publish `state` as a snapshot three times.
pub fn wal_probe(
    rec: &mut Recorder,
    dir: &Path,
    table: &str,
    rows: &[Row],
    state: &DurableState,
    out: &mut Metrics,
) -> Result<(), String> {
    let wal = Wal::open(dir, CrashInjector::none()).map_err(|e| e.to_string())?;
    let req = rec.request();
    for (i, row) in rows.iter().enumerate() {
        let record = WalRecord::Insert {
            name: table.to_string(),
            rows: vec![row.clone()],
            version: i as u64 + 1,
        };
        rec.span(req, None, "wal.append", |_, _| wal.append(&record))
            .map_err(|e| e.to_string())?;
    }
    out.insert("wal.append_us", med(&rec.durations("wal.append")));
    out.insert(
        "wal.bytes_per_insert",
        ratio(wal.stats().bytes, rows.len() as u64),
    );
    let encoded = encode_state(state);
    let mut times = Vec::new();
    for _ in 0..3 {
        let published = rec
            .span(req, None, "wal.snapshot", |_, _| {
                wal.publish_snapshot(&encoded, wal.record_count())
            })
            .map_err(|e| e.to_string())?;
        if !published {
            return Err("snapshot publish raced an append".into());
        }
        times.push(rec.last_us() / 1e3);
    }
    out.insert("wal.snapshot_ms", med(&times));
    Ok(())
}

/// A durable image of in-memory tables, as a snapshot would hold it.
pub fn state_of(tables: &[(&str, &Relation)]) -> DurableState {
    DurableState {
        version_floor: 1,
        tables: tables
            .iter()
            .map(|(name, rel)| rasql_storage::TableImage {
                name: name.to_string(),
                schema: rel.schema().clone(),
                rows: rel.rows().to_vec(),
                version: 1,
                rewrite_version: 1,
            })
            .collect(),
        views: Vec::new(),
    }
}

/// `matview.refresh_ms`: median time of `REFRESH MATERIALIZED VIEW view`
/// right after each of `inserts`.
pub fn refresh_probe(
    rec: &mut Recorder,
    ctx: &RaSqlContext,
    view: &str,
    inserts: &[String],
) -> Result<f64, String> {
    let refresh = format!("REFRESH MATERIALIZED VIEW {view}");
    let mut times = Vec::new();
    for insert in inserts {
        let req = rec.request();
        ctx.query(insert).map_err(|e| format!("{insert}: {e}"))?;
        rec.span(req, None, "matview.refresh", |_, _| ctx.query(&refresh))
            .map_err(|e| format!("{refresh}: {e}"))?;
        times.push(rec.last_us() / 1e3);
    }
    Ok(med(&times))
}

/// Matview counters from the context's cumulative metrics.
pub fn fill_matview(ctx: &RaSqlContext, before: &rasql_exec::MetricsSnapshot, out: &mut Metrics) {
    let now = ctx.metrics();
    out.insert(
        "matview.incremental_ratio",
        ratio(
            now.view_refreshes_incremental - before.view_refreshes_incremental,
            now.view_refreshes - before.view_refreshes,
        ),
    );
    out.insert("matview.retained_bytes", now.retained_bytes as f64);
}

/// `server.status_rtt_us`: median round trip of `Client::status`.
pub fn status_probe(rec: &mut Recorder, client: &mut rasql_client::Client) -> Result<f64, String> {
    let req = rec.request();
    for _ in 0..50 {
        rec.span(req, None, "client.status", |_, _| client.status())
            .map_err(|e| e.to_string())?;
    }
    Ok(med(&rec.durations("client.status")))
}

/// Serve `ctx` on loopback for the length of the probe and run `stmts`
/// through a client: `server.overhead_us` is the client-observed latency
/// minus the `elapsed_us` the server reports in `StatementDone`.
pub fn server_probe(
    rec: &mut Recorder,
    ctx: &Arc<RaSqlContext>,
    stmts: &[Stmt],
    out: &mut Metrics,
) -> Result<(), String> {
    let handle = rasql_server::serve(Arc::clone(ctx), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let probe = (|| -> Result<(), String> {
        let mut client = rasql_client::Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        let mut overheads = Vec::new();
        for stmt in stmts {
            let req = rec.request();
            let results = rec
                .span(req, None, "client.query", |_, _| client.query(&stmt.sql))
                .map_err(|e| format!("served `{}`: {e}", stmt.sql))?;
            let engine_us: u64 = results.iter().map(|r| r.stats.elapsed_us).sum();
            overheads.push(rec.last_us() - engine_us as f64);
        }
        out.insert("server.overhead_us", med(&overheads));
        out.insert("server.status_rtt_us", status_probe(rec, &mut client)?);
        client.close().map_err(|e| e.to_string())
    })();
    let clean = handle.shutdown();
    probe?;
    if !clean {
        return Err("server did not drain cleanly".into());
    }
    Ok(())
}

/// Distinct SQL texts of `stmts` that compile to a query plan (INSERTs are
/// left out: they have no plan to explain).
pub fn distinct_queries(stmts: impl IntoIterator<Item = Stmt>) -> Vec<String> {
    let mut v: Vec<String> = stmts
        .into_iter()
        .filter(|s| s.insert.is_none())
        .map(|s| s.sql)
        .collect();
    v.sort();
    v.dedup();
    v
}

/// Write the spans as JSON lines to `.perfbench/spans/<name>.jsonl`.
pub fn write_spans(rec: &Recorder, name: &str) -> Result<(), String> {
    let dir = Path::new(".perfbench").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, rec.to_json_lines()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}

/// `trace.overhead_frac`: how much lower traced throughput is.
pub fn overhead_frac(untraced_qps: f64, traced_qps: f64) -> f64 {
    1.0 - traced_qps / untraced_qps
}
