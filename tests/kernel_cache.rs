//! Warm kernel cliques: a CSR cache hit serves the whole clique set-up (base
//! seeds and graph), so the repeated query evaluates no base plan. Every
//! warm result must equal the cold one and the serial oracles; a table
//! change or a read of a lower clique's view must never serve a stale entry.

use rasql::core::{library, RaSqlContext};
use rasql::datagen::{rmat, RmatConfig};
use rasql::exec::{IterationTrace, QueryTrace};
use rasql::gap;
use rasql::prelude::*;

fn weighted_graph(n: usize, seed: u64) -> Relation {
    rmat(
        n,
        RmatConfig {
            weighted: true,
            ..Default::default()
        },
        seed,
    )
}

fn traced_ctx(edges: Relation) -> RaSqlContext {
    let ctx = RaSqlContext::builder()
        .workers(2)
        .stage_latency_us(0)
        .tracing(true)
        .build();
    ctx.register("edge", edges).unwrap();
    ctx
}

fn sorted(rel: &Relation) -> Vec<Row> {
    let mut rows = rel.rows().to_vec();
    rows.sort();
    rows
}

/// The deterministic per-round counters of the query's only clique.
fn rounds(trace: &QueryTrace) -> Vec<(u32, u64, u64, u64, u64, u64)> {
    assert_eq!(trace.cliques.len(), 1);
    trace.cliques[0]
        .iterations
        .iter()
        .map(|i: &IterationTrace| {
            (
                i.round,
                i.delta_rows,
                i.total_rows,
                i.stages,
                i.shuffle_rows,
                i.shuffle_bytes,
            )
        })
        .collect()
}

/// Stages scheduled before the clique's first kernel round: the base-branch
/// evaluation (scan + projection) and nothing else.
fn setup_stages(trace: &QueryTrace) -> usize {
    trace
        .stages
        .iter()
        .take_while(|s| s.label != "fixpoint kernel")
        .count()
}

fn cc_oracle(edges: &Relation) -> Vec<Row> {
    let mut rows: Vec<Row> = gap::algorithms::cc_rasql_oracle(edges)
        .into_iter()
        .map(|(v, c)| Row::new(vec![Value::Int(v), Value::Int(c)]))
        .collect();
    rows.sort();
    rows
}

#[test]
fn warm_cc_skips_base_scan_with_identical_rows_and_rounds() {
    let edges = weighted_graph(300, 11);
    let ctx = traced_ctx(edges.clone());

    let cold = ctx.query(&library::cc()).unwrap();
    let warm = ctx.query(&library::cc()).unwrap();
    let (cold_t, warm_t) = (cold.trace.unwrap(), warm.trace.unwrap());
    assert_eq!(cold_t.cliques[0].kernel, "csr_min_i64");
    assert_eq!(cold.stats.metrics.cache_hits, 0, "first run misses");
    assert_eq!(warm.stats.metrics.cache_hits, 1, "second run hits");

    assert!(
        setup_stages(&cold_t) > 0,
        "a miss evaluates the base branch"
    );
    assert_eq!(setup_stages(&warm_t), 0, "a hit scans no base table");
    assert_eq!(
        warm_t.metrics.stages + setup_stages(&cold_t) as u64,
        cold_t.metrics.stages
    );

    assert_eq!(sorted(&cold.relation), sorted(&warm.relation));
    assert_eq!(sorted(&warm.relation), cc_oracle(&edges));
    assert_eq!(rounds(&cold_t), rounds(&warm_t));
}

#[test]
fn warm_sssp_from_two_sources_matches_dijkstra() {
    let edges = weighted_graph(300, 5);
    let ctx = traced_ctx(edges.clone());
    let csr = gap::Csr::from_relation(&edges);
    let sources = [1i64, 2];

    let mut first_rounds = Vec::new();
    for pass in 0..2 {
        for (i, &s) in sources.iter().enumerate() {
            let r = ctx.query(&library::sssp(s)).unwrap();
            let hits = r.stats.metrics.cache_hits;
            assert_eq!(hits, pass, "sssp({s}) pass {pass}: cache hits");
            let got: Vec<(i64, f64)> = sorted(&r.relation)
                .iter()
                .map(|row| (row[0].as_int().unwrap(), row[1].as_f64().unwrap()))
                .collect();
            let mut want: Vec<(i64, f64)> =
                gap::sssp_dijkstra(&csr, s as usize).into_iter().collect();
            want.sort_by_key(|&(v, _)| v);
            assert_eq!(got, want, "sssp({s}) pass {pass} vs Dijkstra");
            let per_round = rounds(&r.trace.unwrap());
            if pass == 0 {
                first_rounds.push(per_round);
            } else {
                assert_eq!(per_round, first_rounds[i], "sssp({s}) rounds");
            }
        }
    }
}

#[test]
fn insert_misses_then_matches_oracle() {
    let edges = weighted_graph(300, 7);
    let ctx = traced_ctx(edges.clone());
    ctx.query(&library::cc()).unwrap();
    assert_eq!(
        ctx.query(&library::cc()).unwrap().stats.metrics.cache_hits,
        1
    );

    ctx.query("INSERT INTO edge VALUES (1000, 1001, 1.0), (1, 1000, 2.0)")
        .unwrap();
    let after = ctx.query(&library::cc()).unwrap();
    assert_eq!(
        after.stats.metrics.cache_hits, 0,
        "a new table version misses"
    );
    assert!(setup_stages(&after.trace.unwrap()) > 0);

    let mut grown = edges.rows().to_vec();
    grown.push(Row::new(vec![
        Value::Int(1000),
        Value::Int(1001),
        Value::Double(1.0),
    ]));
    grown.push(Row::new(vec![
        Value::Int(1),
        Value::Int(1000),
        Value::Double(2.0),
    ]));
    let grown = Relation::try_new(edges.schema().clone(), grown).unwrap();
    assert_eq!(sorted(&after.relation), cc_oracle(&grown));
}

#[test]
fn result_cache_keys_on_literal_values() {
    let edges = Relation::edges(&[(1, 2), (2, 3), (5, 6)]);
    let ctx = RaSqlContext::builder()
        .stage_latency_us(0)
        .result_cache(16)
        .build();
    ctx.register("edge", edges.clone()).unwrap();
    let one = ctx.query(&library::reach(1)).unwrap();
    assert!(!one.stats.cached);
    let five = ctx.query(&library::reach(5)).unwrap();
    assert!(!five.stats.cached, "reach(5) must not reuse reach(1)");
    assert!(ctx.query(&library::reach(5)).unwrap().stats.cached);

    let fresh = RaSqlContext::builder().stage_latency_us(0).build();
    fresh.register("edge", edges).unwrap();
    let want = fresh.query(&library::reach(5)).unwrap().relation;
    assert_eq!(sorted(&five.relation), sorted(&want));
    assert_eq!(
        sorted(&five.relation),
        vec![Row::new(vec![Value::Int(5)]), Row::new(vec![Value::Int(6)])]
    );
}

#[test]
fn clique_reading_a_lower_view_bypasses_csr_cache() {
    let sql = "WITH recursive hop (Src, Dst) AS (SELECT Src, Dst FROM edge) UNION \
                 (SELECT hop.Src, edge.Dst FROM hop, edge WHERE hop.Dst = edge.Src), \
               recursive reach (Dst) AS (SELECT 1) UNION \
                 (SELECT hop.Dst FROM reach, hop WHERE reach.Dst = hop.Src) \
               SELECT Dst FROM reach";
    let edges = Relation::edges(&[(1, 2), (2, 3)]);
    let ctx = traced_ctx(edges);
    let before = ctx.query(sql).unwrap();
    let trace = before.trace.unwrap();
    assert_eq!(trace.cliques[1].kernel, "csr_set", "reach runs on a kernel");
    let ints = |rel: &Relation| -> Vec<i64> {
        sorted(rel).iter().map(|r| r[0].as_int().unwrap()).collect()
    };
    assert_eq!(ints(&before.relation), vec![1, 2, 3]);

    ctx.query("INSERT INTO edge VALUES (3, 4)").unwrap();
    let after = ctx.query(sql).unwrap();
    assert_eq!(after.stats.metrics.cache_hits, 0);
    let fresh = traced_ctx(Relation::edges(&[(1, 2), (2, 3), (3, 4)]));
    let want = fresh.query(sql).unwrap().relation;
    assert_eq!(ints(&after.relation), ints(&want));
    assert_eq!(ints(&after.relation), vec![1, 2, 3, 4]);
}
