//! The in-process workloads' runner: one caller in a closed loop over
//! `RaSqlContext::query`.

use crate::common::{self, closed_loop, one_of_each, secs, Class, Deck, Scratch, Stmt};
use crate::layers::{self, EngineTally, Metrics};
use crate::spans::Recorder;
use crate::stats;
use crate::{Args, Outcome};
use rasql_core::RaSqlContext;
use rasql_storage::{CsrWeight, Relation};
use std::sync::Arc;
use std::time::Instant;

/// Output check run outside the timed phase; `Err` describes a mismatch.
pub type Check = Box<dyn Fn(&RaSqlContext) -> Result<(), String>>;

/// An in-process workload: its generated tables, statement mix and checks.
pub struct Workload {
    pub name: &'static str,
    pub tables: Vec<(&'static str, Relation)>,
    pub classes: Vec<Class>,
    pub check: Check,
    /// The edge table the CSR probe builds, and its weight column.
    pub csr: (&'static str, CsrWeight),
    /// Materialized-view probe: the defining query, then the single-row
    /// inserts each followed by an explicit refresh.
    pub matview: (String, Vec<String>),
}

impl Workload {
    fn table(&self, name: &str) -> &Relation {
        &self
            .tables
            .iter()
            .find(|(n, _)| *n == name)
            .expect("declared table")
            .1
    }
}

/// Build the context: register the tables, then run one statement of every
/// class (building CSR graphs and any other warm state).
fn setup(
    w: &Workload,
    tables: Vec<(&'static str, Relation)>,
    seed: u64,
) -> Result<Arc<RaSqlContext>, String> {
    let ctx = common::context();
    for (name, rel) in tables {
        ctx.register(name, rel)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for stmt in one_of_each(&w.classes, seed) {
        ctx.query(&stmt.sql)
            .map_err(|e| format!("set-up `{}`: {e}", stmt.sql))?;
    }
    Ok(Arc::new(ctx))
}

/// Median set-up time over `reps` set-ups; returns the last context.
fn timed_setups(w: &Workload, seed: u64, reps: usize) -> Result<(f64, Arc<RaSqlContext>), String> {
    let mut times = Vec::new();
    let mut ctx = None;
    for _ in 0..reps {
        drop(ctx.take());
        let tables = w.tables.clone();
        let t = Instant::now();
        ctx = Some(setup(w, tables, seed)?);
        times.push(secs(t));
    }
    let ctx = ctx.expect("at least one set-up");
    Ok((stats::median(&times).expect("at least one set-up"), ctx))
}

fn query_ok(ctx: &RaSqlContext, stmt: &Stmt) -> bool {
    match ctx.query(&stmt.sql) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("statement failed: {}: {e}", stmt.sql);
            false
        }
    }
}

pub fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(w, args);
    }
    let (setup_s, ctx) = timed_setups(w, args.seed, common::SETUP_REPS)?;
    (w.check)(&ctx)?;
    let mut deck = Deck::new(&w.classes, args.seed);
    let phase = closed_loop(&mut deck, args.seconds, common::MIN_SAMPLES, |s| {
        query_ok(&ctx, s)
    });
    let figures = phase.report(w.name)?;
    phase.print_classes(&w.classes);
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", setup_s);
    metrics.insert("throughput_qps", figures.throughput);
    metrics.insert("latency_p50_ms", figures.p50);
    metrics.insert("latency_p95_ms", figures.p95);
    metrics.insert("peak_rss_mb", common::peak_rss_mb()?);
    Ok(Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    })
}

/// The traced run: half the time untraced, half traced, then one probe per
/// layer the timed statements do not reach on their own.
fn traced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    let (_, ctx) = timed_setups(w, args.seed, 1)?;
    (w.check)(&ctx)?;
    let half = args.seconds / 2.0;
    let mut deck = Deck::new(&w.classes, args.seed);
    let untraced = closed_loop(&mut deck, half, 1, |s| query_ok(&ctx, s));
    let untraced_qps = untraced.attempted as f64 / untraced.latencies_ms.iter().sum::<f64>() * 1e3;

    let mut rec = Recorder::new();
    let mut tally = EngineTally::default();
    ctx.set_tracing(true);
    let start = Instant::now();
    let mut next = || (secs(start) < half).then(|| deck.next_stmt());
    let (rows, bytes) =
        layers::traced_statements(&mut rec, &ctx, &mut next, &mut tally, &mut |_| {})?;
    ctx.set_tracing(false);
    let query_us = rec.durations("core.query");
    let traced_qps = query_us.len() as f64 / query_us.iter().sum::<f64>() * 1e6;

    let mut out = Metrics::new();
    tally.fill(&mut out);
    layers::fill_wire(&rec, rows, bytes, &mut out);
    out.insert(
        "trace.overhead_frac",
        layers::overhead_frac(untraced_qps, traced_qps),
    );
    let sample: Vec<Stmt> = {
        let mut d = Deck::new(&w.classes, args.seed ^ 0xC0);
        (0..200).map(|_| d.next_stmt()).collect()
    };
    out.insert(
        "plan.compile_us",
        layers::compile_probe(&mut rec, &ctx, &layers::distinct_queries(sample.clone()))?,
    );
    let (csr_table, weight) = w.csr;
    layers::csr_probe(
        &mut rec,
        w.table(csr_table),
        weight,
        ctx.config().partitions,
        &mut out,
    )?;
    layers::server_probe(&mut rec, &ctx, &sample[..20], &mut out)?;

    // No data directory: the WAL layer is probed on a scratch log with this
    // workload's rows as single-row inserts; nothing is written durably.
    let csr_rows = w.table(csr_table).rows();
    let csr_rows = &csr_rows[..csr_rows.len().min(256)];
    let tables: Vec<(&str, &Relation)> = w.tables.iter().map(|(n, r)| (*n, r)).collect();
    layers::wal_probe(
        &mut rec,
        &scratch.dir("wal-probe")?,
        csr_table,
        csr_rows,
        &layers::state_of(&tables),
        &mut out,
    )?;
    out.insert("wal.snapshots", 0.0);
    out.insert("wal.write_amp", 0.0);

    // Last, as it mutates a base table.
    let before = ctx.metrics();
    let (view_sql, inserts) = &w.matview;
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW bench_probe AS {view_sql}"
    ))
    .map_err(|e| format!("create probe view: {e}"))?;
    out.insert(
        "matview.refresh_ms",
        layers::refresh_probe(&mut rec, &ctx, "bench_probe", inserts)?,
    );
    layers::fill_matview(&ctx, &before, &mut out);

    layers::write_spans(&rec, &format!("{}-seed{}", w.name, args.seed))?;
    Ok(Outcome {
        attempted: untraced.attempted + query_us.len() as u64,
        failed: untraced.failed,
        metrics: out,
    })
}
