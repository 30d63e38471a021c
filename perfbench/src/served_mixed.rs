//! `served-mixed`: a durable `rasql-server` in this process, driven by two
//! client connections over loopback with short statements — point
//! aggregates, REACH, single-row INSERTs and reads of an incrementally
//! maintained SSSP view. Compile, wire, session and WAL are a visible share
//! of each statement; the inserts invalidate the CSR cache, drive view
//! refreshes and complete several snapshot cycles.

use crate::common::{
    self, one_of_each, pick, same_rows, secs, vertices_with_out_edges, Class, Deck, Phase, Rng,
    Scratch, Stmt,
};
use crate::layers::{self, EngineTally, Metrics};
use crate::spans::Recorder;
use crate::stats::{self, DurabilityCounters, WriteAccount};
use crate::{Args, Outcome};
use rasql_client::Client;
use rasql_core::{library, RaSqlContext};
use rasql_datagen::{rmat, RmatConfig};
use rasql_gap::Csr;
use rasql_server::ServerHandle;
use rasql_storage::{CsrWeight, Relation, Row, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const VERTICES: usize = 1_024;
const REACH_SOURCES: usize = 8;
const CONNECTIONS: usize = 2;
const VIEW: &str = "sp";
/// User bytes of one inserted `(Src, Dst, Cost)` row: three 8-byte values.
const ROW_BYTES: u64 = 24;

/// Generated inputs: the initial edge table and the statement mix.
struct Inputs {
    edges: Relation,
    view_source: i64,
    classes: Vec<Class>,
}

fn inputs(seed: u64) -> Inputs {
    let edges = rmat(
        VERTICES,
        RmatConfig {
            weighted: true,
            ..Default::default()
        },
        seed,
    );
    let sources = pick(
        &vertices_with_out_edges(&edges),
        REACH_SOURCES,
        &mut Rng::new(seed),
    );
    let v = VERTICES as u64;
    // Per block of ten statements on each connection: INSERT (~2 ms) 1,
    // point (~3 ms) 3, REACH (~4 ms) 5 and view read (~6 ms, the longest
    // tail) 1. Sorted by latency, REACH holds ranks 40–90 % and view reads
    // 90–100 %, so p50 falls inside REACH and p95 at the median view read
    // rather than in its tail. One insert in ten keeps `edge` growing
    // slowly enough (~13 % in 30 s) for the mix to stay steady.
    let classes = vec![
        Class {
            name: "point",
            per_block: 3,
            make: Box::new(move |rng| {
                let k = rng.below(v);
                (
                    format!("SELECT count(*), min(Cost), max(Cost) FROM edge WHERE Src = {k}"),
                    None,
                )
            }),
        },
        Class::pool(
            "reach",
            5,
            sources.iter().map(|&s| library::reach(s)).collect(),
        ),
        Class {
            name: "insert",
            per_block: 1,
            make: Box::new(move |rng| {
                let (s, d, c) = (rng.below(v) as i64, rng.below(v) as i64, rng.below(100));
                (
                    format!("INSERT INTO edge VALUES ({s}, {d}, {c}.0)"),
                    Some(Row::new(vec![
                        Value::Int(s),
                        Value::Int(d),
                        Value::Double(c as f64),
                    ])),
                )
            }),
        },
        Class::pool("view", 1, vec![format!("SELECT Dst, Cost FROM {VIEW}")]),
    ];
    Inputs {
        view_source: sources[0],
        edges,
        classes,
    }
}

/// A running durable server and its two client connections.
struct Served {
    ctx: Arc<RaSqlContext>,
    handle: ServerHandle,
    clients: Vec<Client>,
    dir: PathBuf,
    /// Every insert the server acknowledged, in no particular order.
    acked: Vec<Row>,
}

fn durable_context(dir: &Path) -> Result<RaSqlContext, String> {
    RaSqlContext::try_with_config(
        common::engine_config()
            .with_data_dir(dir)
            .with_snapshot_every(common::SNAPSHOT_EVERY),
    )
    .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Open the data directory, register `edge`, create the view, start the
/// server, connect, and run one statement of every class.
fn setup(inputs: &Inputs, edges: Relation, dir: PathBuf, seed: u64) -> Result<Served, String> {
    let ctx = durable_context(&dir)?;
    ctx.register("edge", edges).map_err(|e| e.to_string())?;
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW {VIEW} AS {}",
        library::sssp(inputs.view_source)
    ))
    .map_err(|e| format!("create view: {e}"))?;
    let ctx = Arc::new(ctx);
    let handle = rasql_server::serve(Arc::clone(&ctx), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut served = Served {
        ctx,
        clients: Vec::new(),
        dir,
        acked: Vec::new(),
        handle,
    };
    for _ in 0..CONNECTIONS {
        let client = Client::connect(served.handle.addr()).map_err(|e| e.to_string())?;
        served.clients.push(client);
    }
    for stmt in one_of_each(&inputs.classes, seed) {
        served.clients[0]
            .query(&stmt.sql)
            .map_err(|e| format!("set-up `{}`: {e}", stmt.sql))?;
        served.acked.extend(stmt.insert);
    }
    Ok(served)
}

/// Close the connections and stop the server; returns the context, which
/// nothing else holds any more.
fn stop(served: Served) -> Result<(RaSqlContext, PathBuf, Vec<Row>), String> {
    for client in served.clients {
        client.close().map_err(|e| e.to_string())?;
    }
    if !served.handle.shutdown() {
        return Err("server did not drain cleanly".into());
    }
    let ctx = Arc::try_unwrap(served.ctx).map_err(|_| "context still shared after shutdown")?;
    Ok((ctx, served.dir, served.acked))
}

fn counters(ctx: &RaSqlContext) -> DurabilityCounters {
    let s = ctx.durability_status().expect("durable context");
    DurabilityCounters {
        wal_bytes: s.wal_bytes,
        snapshots: s.snapshots,
        last_snapshot_bytes: s.last_snapshot_bytes,
    }
}

/// One served statement as the client saw it.
struct Timing {
    start: Instant,
    end: Instant,
    engine_us: u64,
}

/// Both connections in a closed loop for `seconds` (and at least
/// `min_samples` statements in total). The durability counters are folded
/// into `account` after every statement.
fn wire_phase(
    served: &mut Served,
    classes: &[Class],
    seed: u64,
    seconds: f64,
    min_samples: usize,
    account: &Mutex<WriteAccount>,
) -> (Phase, Vec<Timing>) {
    let ctx = &served.ctx;
    let start = Instant::now();
    let per_conn = min_samples.div_ceil(CONNECTIONS);
    let results: Vec<(Phase, Vec<Timing>, Vec<Row>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    let mut deck = Deck::new(classes, seed.wrapping_mul(31).wrapping_add(i as u64));
                    let mut phase = Phase::new(start);
                    let mut timings = Vec::new();
                    let mut acked = Vec::new();
                    while secs(start) < seconds || phase.latencies_ms.len() < per_conn {
                        let stmt = deck.next_stmt();
                        let t = Instant::now();
                        let result = client.query(&stmt.sql);
                        let end = Instant::now();
                        phase.record(stmt.class, t, result.is_ok());
                        match result {
                            Ok(rs) => {
                                timings.push(Timing {
                                    start: t,
                                    end,
                                    engine_us: rs.iter().map(|r| r.stats.elapsed_us).sum(),
                                });
                                acked.extend(stmt.insert);
                            }
                            Err(e) => eprintln!("statement failed: {}: {e}", stmt.sql),
                        }
                        account
                            .lock()
                            .expect("no panics while holding the account")
                            .observe(counters(ctx));
                    }
                    phase.elapsed = start.elapsed();
                    (phase, timings, acked)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::new(start);
    let mut timings = Vec::new();
    for (p, t, acked) in results {
        phase.merge(p);
        timings.extend(t);
        served.acked.extend(acked);
    }
    (phase, timings)
}

/// End-of-run output checks: the view equals a fresh SSSP over the final
/// `edge`; REACH and a point aggregate match the serial oracles; reopening
/// the data directory recovers exactly the initial rows plus every
/// acknowledged insert, with the same state digest.
fn verify(served: Served, inputs: &Inputs) -> Result<(), String> {
    let (ctx, dir, acked) = stop(served)?;
    let rows = |ctx: &RaSqlContext, sql: &str| {
        ctx.query(sql)
            .map(|r| r.relation.rows().to_vec())
            .map_err(|e| format!("check `{sql}`: {e}"))
    };
    let view = rows(&ctx, &format!("SELECT Dst, Cost FROM {VIEW}"))?;
    same_rows(
        "view vs ad-hoc sssp",
        &view,
        &rows(&ctx, &library::sssp(inputs.view_source))?,
    )?;
    let mut expected = inputs.edges.rows().to_vec();
    expected.extend(acked);
    let final_edges = rows(&ctx, "SELECT Src, Dst, Cost FROM edge")?;
    same_rows("edge", &final_edges, &expected)?;

    let src = inputs.view_source;
    let final_rel =
        Relation::try_new(inputs.edges.schema().clone(), final_edges).map_err(|e| e.to_string())?;
    let reach: Vec<Row> = rasql_gap::bfs_reach(&Csr::from_relation(&final_rel), src as usize)
        .into_iter()
        .map(|v| Row::new(vec![Value::Int(i64::from(v))]))
        .collect();
    same_rows("reach", &rows(&ctx, &library::reach(src))?, &reach)?;
    let costs: Vec<f64> = expected
        .iter()
        .filter(|r| r.get(0) == &Value::Int(src))
        .map(|r| match r.get(2) {
            Value::Double(c) => *c,
            other => panic!("generated cost {other:?}"),
        })
        .collect();
    let point = Row::new(vec![
        Value::Int(costs.len() as i64),
        Value::Double(costs.iter().copied().fold(f64::INFINITY, f64::min)),
        Value::Double(costs.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
    ]);
    same_rows(
        "point aggregate",
        &rows(
            &ctx,
            &format!("SELECT count(*), min(Cost), max(Cost) FROM edge WHERE Src = {src}"),
        )?,
        &[point],
    )?;

    let digest = ctx.state_digest();
    drop(ctx);
    let reopened = durable_context(&dir)?;
    same_rows(
        "recovered edge",
        &rows(&reopened, "SELECT Src, Dst, Cost FROM edge")?,
        &expected,
    )?;
    if reopened.state_digest() != digest {
        return Err(format!(
            "recovered state digest {} differs from {digest}",
            reopened.state_digest()
        ));
    }
    Ok(())
}

fn timed_setups(
    inputs: &Inputs,
    scratch: &Scratch,
    seed: u64,
    reps: usize,
) -> Result<(f64, Served), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..reps {
        if let Some(old) = kept.take() {
            let (ctx, dir, _) = stop(old)?;
            drop(ctx);
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        let dir = scratch.dir(&format!("data-{i}"))?;
        let edges = inputs.edges.clone();
        let t = Instant::now();
        kept = Some(setup(inputs, edges, dir, seed)?);
        times.push(secs(t));
    }
    let served = kept.expect("at least one set-up");
    Ok((stats::median(&times).expect("at least one set-up"), served))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    let inputs = inputs(args.seed);
    if args.trace {
        return traced(&inputs, &scratch, args);
    }
    let (setup_s, mut served) = timed_setups(&inputs, &scratch, args.seed, common::SETUP_REPS)?;
    let base = counters(&served.ctx);
    let account = Mutex::new(WriteAccount::new(base));
    let acked_before = served.acked.len();
    let (phase, _) = wire_phase(
        &mut served,
        &inputs.classes,
        args.seed,
        args.seconds,
        common::MIN_SAMPLES,
        &account,
    );
    let account = account.into_inner().expect("client threads joined");
    let inserted = (served.acked.len() - acked_before) as u64;
    let figures = phase.report("served-mixed")?;
    let insert_class = inputs
        .classes
        .iter()
        .position(|c| c.name == "insert")
        .expect("the mix has inserts");
    let writes = phase.class_latencies(insert_class);
    let show = |p: Option<stats::Percentile>| {
        p.map_or("n/a (fewer than 10 samples beyond)".to_string(), |p| {
            format!(
                "{:.3} ms over {} samples ({} beyond)",
                p.value, p.samples, p.beyond
            )
        })
    };
    phase.print_classes(&inputs.classes);
    eprintln!(
        "  writes: p50 {}, p95 {}; write_amp {:.2} ({} bytes for {inserted} inserts); {} snapshots",
        show(stats::percentile(&writes, 50.0)),
        show(stats::percentile(&writes, 95.0)),
        account.amplification(inserted * ROW_BYTES),
        account.written(),
        account.snapshots_since(&base),
    );
    verify(served, &inputs)?;
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

/// The traced run: a third untraced over the wire, a third traced over the
/// wire, and a third replaying the same mix in-process on the server's
/// context, where the engine's traces are visible; then the layer probes.
fn traced(inputs: &Inputs, scratch: &Scratch, args: &Args) -> Result<Outcome, String> {
    let (_, mut served) = timed_setups(inputs, scratch, args.seed, 1)?;
    let third = args.seconds / 3.0;
    let base = counters(&served.ctx);
    let metrics_base = served.ctx.metrics();
    let mut out = Metrics::new();

    let account = Mutex::new(WriteAccount::new(base));
    let acked_before = served.acked.len();
    let (untraced, _) = wire_phase(&mut served, &inputs.classes, args.seed, third, 1, &account);
    let inserted = (served.acked.len() - acked_before) as u64;
    let account = account.into_inner().expect("client threads joined");
    out.insert("wal.write_amp", account.amplification(inserted * ROW_BYTES));

    let mut rec = Recorder::new();
    served.ctx.set_tracing(true);
    let account = Mutex::new(WriteAccount::new(counters(&served.ctx)));
    let (traced, timings) = wire_phase(
        &mut served,
        &inputs.classes,
        args.seed ^ 0xC1,
        third,
        1,
        &account,
    );
    let mut overheads = Vec::new();
    for t in &timings {
        let req = rec.request();
        rec.record(req, "client.query", t.start, t.end);
        overheads.push((t.end - t.start).as_secs_f64() * 1e6 - t.engine_us as f64);
    }
    out.insert(
        "server.overhead_us",
        stats::median(&overheads).unwrap_or(0.0),
    );
    out.insert(
        "trace.overhead_frac",
        layers::overhead_frac(untraced.throughput(), traced.throughput()),
    );

    let mut tally = EngineTally::default();
    let mut deck = Deck::new(&inputs.classes, args.seed ^ 0xC2);
    let start = Instant::now();
    let mut next = || (secs(start) < third).then(|| deck.next_stmt());
    let mut acked = Vec::new();
    let ctx = Arc::clone(&served.ctx);
    let (rows, bytes) =
        layers::traced_statements(&mut rec, &ctx, &mut next, &mut tally, &mut |s: &Stmt| {
            acked.extend(s.insert.clone())
        })?;
    ctx.set_tracing(false);
    served.acked.extend(acked);
    tally.fill(&mut out);
    layers::fill_wire(&rec, rows, bytes, &mut out);
    out.insert(
        "wal.snapshots",
        (counters(&ctx).snapshots - base.snapshots) as f64,
    );

    out.insert(
        "server.status_rtt_us",
        layers::status_probe(&mut rec, &mut served.clients[0])?,
    );
    let sample: Vec<Stmt> = {
        let mut d = Deck::new(&inputs.classes, args.seed ^ 0xC0);
        (0..200).map(|_| d.next_stmt()).collect()
    };
    out.insert(
        "plan.compile_us",
        layers::compile_probe(&mut rec, &ctx, &layers::distinct_queries(sample.clone()))?,
    );
    let edges = ctx
        .query("SELECT Src, Dst, Cost FROM edge")
        .map_err(|e| e.to_string())?
        .relation;
    layers::csr_probe(
        &mut rec,
        &edges,
        CsrWeight::Float {
            col: 2,
            promote_int: false,
        },
        ctx.config().partitions,
        &mut out,
    )?;
    let inserts: Vec<&Stmt> = sample
        .iter()
        .filter(|s| s.insert.is_some())
        .take(5)
        .collect();
    out.insert(
        "matview.refresh_ms",
        layers::refresh_probe(
            &mut rec,
            &ctx,
            VIEW,
            &inserts.iter().map(|s| s.sql.clone()).collect::<Vec<_>>(),
        )?,
    );
    served
        .acked
        .extend(inserts.iter().filter_map(|s| s.insert.clone()));
    layers::fill_matview(&ctx, &metrics_base, &mut out);

    let state = rasql_storage::snapshot::read_snapshot(&served.dir)
        .map_err(|e| e.to_string())?
        .ok_or("no snapshot was published")?;
    let acked_rows = &served.acked[..served.acked.len().min(256)];
    layers::wal_probe(
        &mut rec,
        &scratch.dir("wal-probe")?,
        "edge",
        acked_rows,
        &state,
        &mut out,
    )?;
    drop(ctx);
    verify(served, inputs)?;
    layers::write_spans(&rec, &format!("served-mixed-seed{}", args.seed))?;
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted + rec.durations("core.query").len() as u64,
        failed: untraced.failed + traced.failed,
        metrics: out,
    })
}
