//! Golden oracle for the fixpoint drivers.
//!
//! Runs a fixed matrix of recursive queries (TC, SG, CC, SSSP, REACH,
//! company control, BOM) at 2 workers under every evaluation mode the
//! engine has — decomposed, specialized kernel, semi-naive combined and
//! split, naive, a materialized-view resume, a spilling memory budget, and
//! zero-retry fault injection with checkpointing — and renders everything
//! deterministic about each run: the result size, per-clique iteration
//! counts, every `IterationTrace` field except `elapsed_us`, the stage
//! labels and kinds in order, the recovery event kinds and rounds, and the
//! fixpoint-relevant counters. The rendering must match
//! `tests/golden/fixpoint_golden.txt` byte for byte.
//!
//! On a mismatch the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/fixpoint_golden.actual` for inspection.

use rasql_core::{library, EngineConfig, EngineError, QueryResult, RaSqlContext};
use rasql_exec::{ExecError, FaultSpec};
use rasql_storage::{DataType, Relation, Row, Schema, Value};
use std::fmt::Write as _;

const EXPECTED: &str = "tests/golden/fixpoint_golden.txt";

fn int_rel(cols: &[&str], rows: &[&[i64]]) -> Relation {
    Relation::try_new(
        Schema::new(cols.iter().map(|c| (*c, DataType::Int)).collect()),
        rows.iter()
            .map(|r| Row::new(r.iter().map(|v| Value::Int(*v)).collect()))
            .collect(),
    )
    .unwrap()
}

/// One query of the matrix: its name, SQL, and input tables. The first
/// table is the one the resume leg withholds rows from.
struct Query {
    name: &'static str,
    sql: String,
    tables: Vec<(&'static str, Relation)>,
}

fn queries() -> Vec<Query> {
    let edges = rasql_datagen::rmat(48, rasql_datagen::RmatConfig::default(), 7);
    let weighted = rasql_datagen::rmat(
        48,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        5,
    );
    // A complete binary tree: node i's parent is (i - 1) / 2.
    let rel_rows: Vec<[i64; 2]> = (1i64..31).map(|i| [(i - 1) / 2, i]).collect();
    let rel = int_rel(
        &["Parent", "Child"],
        &rel_rows.iter().map(|r| &r[..]).collect::<Vec<_>>(),
    );
    let shares = int_rel(
        &["By", "Of", "Percent"],
        &[
            &[0, 1, 60],
            &[1, 2, 30],
            &[0, 2, 25],
            &[2, 3, 51],
            &[3, 4, 40],
            &[0, 4, 20],
            &[1, 4, 15],
        ],
    );
    let tree = rasql_datagen::tree_hierarchy(
        rasql_datagen::TreeConfig {
            target_nodes: 80,
            ..Default::default()
        },
        17,
    );
    vec![
        Query {
            name: "tc",
            sql: library::transitive_closure(),
            tables: vec![("edge", edges.clone())],
        },
        Query {
            name: "sg",
            sql: library::same_generation(),
            tables: vec![("rel", rel)],
        },
        Query {
            name: "cc",
            sql: library::cc(),
            tables: vec![("edge", edges.clone())],
        },
        Query {
            name: "sssp",
            sql: library::sssp(1),
            tables: vec![("edge", weighted)],
        },
        Query {
            name: "reach",
            sql: library::reach(1),
            tables: vec![("edge", edges)],
        },
        Query {
            name: "company-control",
            sql: library::company_control(),
            tables: vec![("shares", shares)],
        },
        Query {
            name: "bom",
            sql: library::bom_delivery(),
            tables: vec![("assbl", tree.assbl), ("basic", tree.basic)],
        },
    ]
}

/// Two workers, traced, no simulated scheduler latency.
fn base(cfg: EngineConfig) -> EngineConfig {
    cfg.with_workers(2)
        .with_tracing(true)
        .with_stage_latency_us(0)
}

/// Zero task retries and a checkpoint every 2 rounds: every injected kill
/// is a lost stage the fixpoint has to recover from.
fn faulted(cfg: EngineConfig, seed: u64) -> EngineConfig {
    cfg.with_faults(Some(FaultSpec {
        kill: 0.12,
        delay: 0.0,
        loss: 0.0,
        delay_us: 0,
        seed,
    }))
    .with_max_task_retries(0)
    .with_checkpoint_interval(2)
}

fn semi_naive() -> EngineConfig {
    EngineConfig::rasql()
        .with_specialized_kernels(false)
        .with_decomposed(false)
}

fn context(cfg: &EngineConfig, q: &Query) -> RaSqlContext {
    let ctx = RaSqlContext::with_config(base(cfg.clone()));
    for (name, rel) in &q.tables {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx
}

fn literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d:?}"),
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
        Value::Null => "NULL".to_string(),
    }
}

fn insert_sql(table: &str, rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.values().iter().map(literal).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// Materialize the query over its first table minus the last 3 rows,
/// INSERT those rows, then REFRESH: the REFRESH statement is the one
/// rendered (a delta-seeded resume when the view is eligible).
fn resume(q: &Query) -> (Result<QueryResult, EngineError>, String) {
    let (first, full) = &q.tables[0];
    let rows = full.rows();
    let split = rows.len() - 3;
    let initial = Relation::try_new(full.schema().clone(), rows[..split].to_vec()).unwrap();
    let ctx = RaSqlContext::with_config(base(EngineConfig::rasql()));
    ctx.register(first, initial).unwrap();
    for (name, rel) in &q.tables[1..] {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {}", q.sql))
        .unwrap();
    ctx.query(&insert_sql(first, &rows[split..])).unwrap();
    let result = ctx.query("REFRESH MATERIALIZED VIEW v");
    let how = ctx
        .mat_view("v")
        .map_or_else(|| "none".to_string(), |mv| mv.last_refresh);
    (result, how)
}

/// A stable rendering of an error: the variant, plus the stage for a lost
/// one (the task index depends on which failed task reported first).
fn error_line(e: &EngineError) -> String {
    match e {
        EngineError::Exec(ExecError::RetriesExhausted { stage, .. }) => {
            format!("retries exhausted in '{stage}'")
        }
        EngineError::Exec(ExecError::MemoryExceeded { .. }) => "memory exceeded".to_string(),
        EngineError::NonTermination { view, iterations } => {
            format!("non-termination of '{view}' at {iterations}")
        }
        other => format!("{other}"),
    }
}

fn render(out: &mut String, leg: &str, q: &Query, result: &Result<QueryResult, EngineError>) {
    writeln!(out, "== {leg} / {}", q.name).unwrap();
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            writeln!(out, "error: {}", error_line(e)).unwrap();
            return;
        }
    };
    let m = &r.stats.metrics;
    writeln!(
        out,
        "rows={} iterations={:?}",
        r.relation.len(),
        r.stats.iterations
    )
    .unwrap();
    writeln!(
        out,
        "counters iterations={} shuffle_rows={} shuffle_bytes={} combined_rows={} \
         checkpoints={} restores={} task_failures={}",
        m.iterations,
        m.shuffle_rows,
        m.shuffle_bytes,
        m.combined_rows,
        m.checkpoints,
        m.restores,
        m.task_failures
    )
    .unwrap();
    let Some(trace) = &r.trace else {
        writeln!(out, "untraced").unwrap();
        return;
    };
    for c in &trace.cliques {
        writeln!(
            out,
            "clique {} mode={} kernel={} rounds={}",
            c.views.join(","),
            c.mode,
            c.kernel,
            c.fixpoint_rounds
        )
        .unwrap();
        for it in &c.iterations {
            writeln!(
                out,
                "  round={} delta={} total={} stages={} shuffle_rows={} shuffle_bytes={}",
                it.round,
                it.delta_rows,
                it.total_rows,
                it.stages,
                it.shuffle_rows,
                it.shuffle_bytes
            )
            .unwrap();
        }
    }
    for s in &trace.stages {
        writeln!(out, "stage {} [{}]", s.label, s.kind.as_str()).unwrap();
    }
    for e in &trace.recovery {
        writeln!(out, "recovery {} round={}", e.kind.as_str(), e.round).unwrap();
    }
}

fn render_matrix() -> String {
    let mut out = String::new();
    let legs: Vec<(&str, EngineConfig)> = vec![
        ("rasql", EngineConfig::rasql()),
        (
            "interpreter",
            EngineConfig::rasql().with_specialized_kernels(false),
        ),
        ("split", EngineConfig::bigdatalog_like()),
        ("naive", EngineConfig::spark_sql_naive()),
        ("spill", semi_naive().with_memory_budget(2048)),
    ];
    let queries = queries();
    for (leg, cfg) in &legs {
        for q in &queries {
            let result = context(cfg, q).query(&q.sql);
            render(&mut out, leg, q, &result);
        }
    }
    for q in &queries {
        let (result, how) = resume(q);
        render(&mut out, &format!("resume[{how}]"), q, &result);
    }
    // Fault legs: the semi-naive interpreter, combined and split
    // (checkpoint/restore), and the default config, whose kernel and
    // decomposed paths reset and rerun.
    // Each scans seeds in order, one summary line per seed, up to the first
    // seed whose run succeeds after restoring, which is rendered in full.
    for (leg, cfg) in [
        ("fault-semi-naive", semi_naive()),
        (
            "fault-split",
            EngineConfig::bigdatalog_like().with_decomposed(false),
        ),
        ("fault-rasql", EngineConfig::rasql()),
    ] {
        for q in &queries {
            writeln!(out, "== {leg} / {} seed scan", q.name).unwrap();
            for seed in 0u64..40 {
                let result = context(&faulted(cfg.clone(), seed), q).query(&q.sql);
                match &result {
                    Ok(r) if r.stats.metrics.restores > 0 => {
                        render(&mut out, &format!("{leg} seed={seed}"), q, &result);
                        break;
                    }
                    Ok(r) => writeln!(out, "seed={seed} ok rows={}", r.relation.len()).unwrap(),
                    Err(e) => writeln!(out, "seed={seed} error: {}", error_line(e)).unwrap(),
                }
            }
        }
    }
    out
}

#[test]
fn fixpoint_drivers_match_golden() {
    let actual = render_matrix();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPECTED);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fixpoint_golden.actual");
        std::fs::write(&dump, &actual).unwrap();
        let first = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        match first {
            Some((i, (a, e))) => panic!(
                "golden mismatch at line {}:\n  expected: {e}\n  actual:   {a}\n\
                 full rendering written to {}",
                i + 1,
                dump.display()
            ),
            None => panic!(
                "golden length mismatch ({} vs {} lines); full rendering written to {}",
                actual.lines().count(),
                expected.lines().count(),
                dump.display()
            ),
        }
    }
}
