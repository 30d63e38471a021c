//! `recursive-generic`: only shapes the kernel selector rejects, so the
//! interpreter does the work — semi-naive DSN through shuffle, join,
//! pipeline and state (MLM bonus, Same Generation), decomposed plans through
//! broadcast and per-partition fixpoints (TC, APSP), and mutual recursion
//! (Company Control).
//!
//! These inputs are small, and at this size their shape swings widely from
//! one generator seed to the next (the 400-node tree yields 63k–96k SG
//! pairs; Company Control takes 11–23 rounds). So the shapes come from the
//! fixed [`SHAPE_SEED`] and the run seed permutes every id: runs with
//! different seeds do the same amount of work over differently placed keys.

use crate::common::{self, same_rows, Class, Rng};
use crate::inprocess::Workload;
use rasql_core::{library, EngineConfig, RaSqlContext};
use rasql_datagen::{grid, rmat, tree_hierarchy, RmatConfig, TreeConfig};
use rasql_storage::{CsrWeight, DataType, Relation, Row, Schema, Value};

/// Sizes chosen so the mean statement takes about 0.1 s on a 2-core host.
const MLM_NODES: usize = 40_000;
const SG_NODES: usize = 400;
const GRID_SIDE: usize = 16;
const APSP_VERTICES: usize = 128;
const COMPANIES: i64 = 4_000;

/// Seed of the input shapes; the run seed only relabels ids.
const SHAPE_SEED: u64 = 1;

/// A seeded permutation of the ids `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<i64> {
    let mut ids: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut ids);
    ids
}

/// `rel` with the ids in columns `cols` mapped through `perm`.
fn relabel(rel: &Relation, cols: &[usize], perm: &[i64]) -> Relation {
    let rows = rel
        .rows()
        .iter()
        .map(|r| {
            let values = r.values().iter().enumerate().map(|(i, v)| match v {
                Value::Int(id) if cols.contains(&i) => Value::Int(perm[*id as usize]),
                _ => v.clone(),
            });
            Row::new(values.collect())
        })
        .collect();
    Relation::try_new(rel.schema().clone(), rows).expect("relabeling keeps the schema")
}

/// Rows of an all-`Int` relation with the given column names.
fn int_relation(cols: &[&str], rows: Vec<Row>) -> Relation {
    let schema = Schema::new(cols.iter().map(|c| (*c, DataType::Int)).collect());
    Relation::try_new(schema, rows).expect("generated rows match their schema")
}

/// `shares(By, Of, Percent)`: each company is held by one to three earlier
/// companies, at most 100 % in total — an acyclic ownership graph.
fn shares(rng: &mut Rng) -> Relation {
    let mut rows = Vec::new();
    for of in 1..COMPANIES {
        let mut left = 100;
        for _ in 0..=rng.below(3) {
            let percent = (10 + rng.below(51) as i64).min(left);
            if percent == 0 {
                break;
            }
            left -= percent;
            let by = rng.below(of as u64) as i64;
            rows.push(Row::new(vec![
                Value::Int(by),
                Value::Int(of),
                Value::Int(percent),
            ]));
        }
    }
    int_relation(&["By", "Of", "Percent"], rows)
}

pub fn workload(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mlm = tree_hierarchy(
        TreeConfig {
            target_nodes: MLM_NODES,
            ..Default::default()
        },
        SHAPE_SEED,
    );
    let sg_tree = tree_hierarchy(
        TreeConfig {
            target_nodes: SG_NODES,
            ..Default::default()
        },
        SHAPE_SEED,
    );
    let grid_nodes = (GRID_SIDE + 1) * (GRID_SIDE + 1);
    let mlm_ids = permutation(mlm.nodes, &mut rng);
    let sg_ids = permutation(sg_tree.nodes, &mut rng);
    let grid_ids = permutation(grid_nodes, &mut rng);
    let apsp_ids = permutation(APSP_VERTICES, &mut rng);
    let company_ids = permutation(COMPANIES as usize, &mut rng);
    let rel = int_relation(&["Parent", "Child"], sg_tree.assbl.rows().to_vec());
    let wedge = rmat(
        APSP_VERTICES,
        RmatConfig {
            weighted: true,
            ..Default::default()
        },
        SHAPE_SEED,
    );
    let tables = vec![
        ("sales", relabel(&mlm.sales, &[0], &mlm_ids)),
        ("sponsor", relabel(&mlm.sponsor, &[0, 1], &mlm_ids)),
        ("rel", relabel(&rel, &[0, 1], &sg_ids)),
        (
            "gedge",
            relabel(&grid(GRID_SIDE, false, SHAPE_SEED), &[0, 1], &grid_ids),
        ),
        ("wedge", relabel(&wedge, &[0, 1], &apsp_ids)),
        (
            "shares",
            relabel(&shares(&mut Rng::new(SHAPE_SEED)), &[0, 1], &company_ids),
        ),
    ];
    let apsp = library::apsp().replace("edge", "wedge");
    let queries = [
        ("mlm", library::mlm_bonus()),
        ("sg", library::same_generation()),
        ("tc", library::transitive_closure().replace("edge", "gedge")),
        ("apsp", apsp.clone()),
        ("control", library::company_control()),
    ];
    let classes = queries
        .iter()
        .map(|(name, sql)| Class::pool(name, 1, vec![sql.clone()]))
        .collect();
    let inserts = (0..5)
        .map(|_| {
            format!(
                "INSERT INTO wedge VALUES ({}, {}, {}.0)",
                rng.below(APSP_VERTICES as u64),
                rng.below(APSP_VERTICES as u64),
                rng.below(100)
            )
        })
        .collect();
    let check_tables = tables.clone();
    Workload {
        name: "recursive-generic",
        tables,
        classes,
        check: Box::new(move |ctx| check(ctx, &check_tables, &queries)),
        csr: (
            "wedge",
            CsrWeight::Float {
                col: 2,
                promote_int: false,
            },
        ),
        matview: (apsp, inserts),
    }
}

/// Every statement must match the same statement run under
/// `EngineConfig::spark_sql_naive()`, and the TC and SG cardinalities must
/// match the serial oracles.
fn check(
    ctx: &RaSqlContext,
    tables: &[(&'static str, Relation)],
    queries: &[(&str, String)],
) -> Result<(), String> {
    let naive = RaSqlContext::with_config(
        EngineConfig::spark_sql_naive().with_stage_latency_us(common::STAGE_LATENCY_US),
    );
    for (name, rel) in tables {
        naive
            .register(name, rel.clone())
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for (name, sql) in queries {
        let got = ctx.query(sql).map_err(|e| format!("check {name}: {e}"))?;
        let want = naive.query(sql).map_err(|e| format!("naive {name}: {e}"))?;
        same_rows(name, got.relation.rows(), want.relation.rows())?;
        let oracle = match *name {
            "tc" => Some(rasql_gap::transitive_closure_count(table(tables, "gedge"))),
            "sg" => Some(rasql_gap::same_generation_count(table(tables, "rel"))),
            _ => None,
        };
        if let Some(count) = oracle {
            if got.relation.len() != count {
                return Err(format!(
                    "{name}: {} rows, serial oracle counts {count}",
                    got.relation.len()
                ));
            }
        }
    }
    Ok(())
}

fn table<'a>(tables: &'a [(&str, Relation)], name: &str) -> &'a Relation {
    &tables
        .iter()
        .find(|(n, _)| *n == name)
        .expect("declared table")
        .1
}
