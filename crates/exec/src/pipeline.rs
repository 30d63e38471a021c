//! Operator pipelines: the whole-stage code-generation analog (paper §7.3).
//!
//! Spark's codegen collapses the operators of a stage into one generated
//! function, eliminating per-tuple virtual calls and intermediate
//! materialization. A Rust reproduction cannot JIT, but the same axis exists:
//!
//! - [`run_unfused`] executes each step as its own pass, materializing an
//!   intermediate row vector between operators (the volcano/RDD-chain model);
//! - [`run_fused_into`] pushes every input row through all steps in one pass
//!   and hands each projected output tuple, as a borrowed slice of a reused
//!   buffer, straight to a caller's sink — the fixpoint operator aggregates
//!   it there, so nothing is materialized between the join and the merge.
//!   [`run_fused`] is that runner with a sink that collects rows.
//!
//! Both produce identical results in identical order; Fig 7 measures the
//! difference.

use crate::join::HashTable;
use rasql_storage::{Row, Value};
use std::sync::Arc;

/// A row-level predicate.
pub type PredFn = Arc<dyn Fn(&Row) -> bool + Send + Sync>;
/// A key extractor: appends the probe key for a hash join to the (empty)
/// buffer it is given.
pub type KeyFn = Arc<dyn Fn(&Row, &mut Vec<Value>) + Send + Sync>;
/// The final projection: appends the output tuple's values to the (empty)
/// buffer it is given.
pub type MapFn = Arc<dyn Fn(&Row, &mut Vec<Value>) + Send + Sync>;

/// One step of a pipeline.
#[derive(Clone)]
pub enum PipelineStep {
    /// Keep rows satisfying the predicate.
    Filter(PredFn),
    /// Hash-join: for each input row, probe `table` with `key(row)` and emit
    /// `row ++ match` for every match. An empty key = cross join (emit against
    /// every build row).
    HashJoin {
        /// The (cached) build-side table.
        table: Arc<HashTable>,
        /// Probe-key extractor.
        key: KeyFn,
    },
    /// Hash-join against a stack of build layers: each probe visits every
    /// layer in order and emits `row ++ match` for every match in every
    /// layer. An incremental-view refresh retains the converged build table
    /// and stacks small delta-only tables on top instead of rebuilding.
    HashJoinLayered {
        /// Build layers, oldest first.
        tables: Vec<Arc<HashTable>>,
        /// Probe-key extractor.
        key: KeyFn,
    },
}

/// A pipeline: steps then a final projection.
#[derive(Clone)]
pub struct Pipeline {
    /// Steps in order.
    pub steps: Vec<PipelineStep>,
    /// Final row transform.
    pub project: MapFn,
}

impl Pipeline {
    /// Identity-projection pipeline.
    pub fn new(steps: Vec<PipelineStep>) -> Self {
        Pipeline {
            steps,
            project: Arc::new(|r: &Row, out: &mut Vec<Value>| out.extend_from_slice(r.values())),
        }
    }

    /// Pipeline with a final projection.
    pub fn with_project(steps: Vec<PipelineStep>, project: MapFn) -> Self {
        Pipeline { steps, project }
    }
}

/// Unfused execution: one full pass (and one intermediate `Vec<Row>`) per
/// operator — the cost model of chained RDD transformations without codegen.
pub fn run_unfused(input: &[Row], pipeline: &Pipeline) -> Vec<Row> {
    let mut current: Vec<Row> = input.to_vec();
    let mut k: Vec<Value> = Vec::new();
    for step in &pipeline.steps {
        let mut next = Vec::with_capacity(current.len());
        match step {
            PipelineStep::Filter(p) => {
                for row in &current {
                    if p(row) {
                        next.push(row.clone());
                    }
                }
            }
            PipelineStep::HashJoin { table, key } => {
                for row in &current {
                    k.clear();
                    key(row, &mut k);
                    for m in table.probe(&k) {
                        next.push(row.concat(m));
                    }
                }
            }
            PipelineStep::HashJoinLayered { tables, key } => {
                for row in &current {
                    k.clear();
                    key(row, &mut k);
                    for table in tables {
                        for m in table.probe(&k) {
                            next.push(row.concat(m));
                        }
                    }
                }
            }
        }
        current = next;
    }
    current
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            (pipeline.project)(r, &mut out);
            Row::new(out)
        })
        .collect()
}

/// Fused execution, collected: [`run_fused_into`] with a sink that turns
/// every output tuple into a row.
pub fn run_fused(input: &[Row], pipeline: &Pipeline) -> Vec<Row> {
    let mut out = Vec::new();
    run_fused_into(input, pipeline, |vals| out.push(Row::new(vals.to_vec())));
    out
}

/// Fused execution: every row flows through all steps in one pass, no
/// intermediate collections (the "collapsed single function" of §7.3).
/// Probe keys are evaluated into one reused buffer per join step and each
/// output tuple is projected into one reused buffer, which `sink` borrows;
/// the only per-tuple allocation left is the joined row.
pub fn run_fused_into(input: &[Row], pipeline: &Pipeline, mut sink: impl FnMut(&[Value])) {
    let mut keys: Vec<Vec<Value>> = vec![Vec::new(); pipeline.steps.len()];
    let mut out: Vec<Value> = Vec::new();
    for row in input {
        push_row(
            row,
            &pipeline.steps,
            &pipeline.project,
            &mut keys,
            &mut out,
            &mut sink,
        );
    }
}

/// Push `row` through `steps`; `keys[i]` is step `i`'s probe-key buffer.
fn push_row<S: FnMut(&[Value])>(
    row: &Row,
    steps: &[PipelineStep],
    project: &MapFn,
    keys: &mut [Vec<Value>],
    out: &mut Vec<Value>,
    sink: &mut S,
) {
    let (Some((step, rest)), [k, deeper @ ..]) = (steps.split_first(), keys) else {
        out.clear();
        project(row, out);
        sink(out);
        return;
    };
    match step {
        PipelineStep::Filter(p) => {
            if p(row) {
                push_row(row, rest, project, deeper, out, sink);
            }
        }
        PipelineStep::HashJoin { table, key } => {
            k.clear();
            key(row, k);
            for m in table.probe(k) {
                push_row(&row.concat(m), rest, project, deeper, out, sink);
            }
        }
        PipelineStep::HashJoinLayered { tables, key } => {
            k.clear();
            key(row, k);
            for table in tables {
                for m in table.probe(k) {
                    push_row(&row.concat(m), rest, project, deeper, out, sink);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::row::int_row;

    fn pipeline_fixture() -> (Vec<Row>, Pipeline) {
        let input: Vec<Row> = (0..100).map(|i| int_row(&[i, i % 7])).collect();
        let build: Vec<Row> = (0..7).map(|i| int_row(&[i, i * 100])).collect();
        let table = Arc::new(HashTable::build(&build, &[0]));
        let steps = vec![
            PipelineStep::Filter(Arc::new(|r: &Row| r[0].as_int().unwrap() % 2 == 0)),
            PipelineStep::HashJoin {
                table,
                key: Arc::new(|r: &Row, k: &mut Vec<Value>| k.push(r[1].clone())),
            },
            PipelineStep::Filter(Arc::new(|r: &Row| r[3].as_int().unwrap() >= 100)),
        ];
        let project: MapFn =
            Arc::new(|r: &Row, out: &mut Vec<Value>| out.extend([r[0].clone(), r[3].clone()]));
        (input, Pipeline::with_project(steps, project))
    }

    #[test]
    fn fused_and_unfused_agree() {
        // Same rows in the same order: the fixpoint's float sums depend on it.
        let (input, p) = pipeline_fixture();
        let a = run_fused(&input, &p);
        let b = run_unfused(&input, &p);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_pipeline_is_projection() {
        let input = vec![int_row(&[1, 2])];
        let p = Pipeline::with_project(
            vec![],
            Arc::new(|r: &Row, out: &mut Vec<Value>| out.push(r[1].clone())),
        );
        assert_eq!(run_fused(&input, &p), vec![int_row(&[2])]);
        assert_eq!(run_unfused(&input, &p), vec![int_row(&[2])]);
    }

    #[test]
    fn layered_join_matches_single_build() {
        let input: Vec<Row> = (0..50).map(|i| int_row(&[i % 9])).collect();
        let build: Vec<Row> = (0..9).map(|i| int_row(&[i, i * 10])).collect();
        let key: KeyFn = Arc::new(|r: &Row, k: &mut Vec<Value>| k.push(r[0].clone()));
        let merged = Pipeline::new(vec![PipelineStep::HashJoin {
            table: Arc::new(HashTable::build(&build, &[0])),
            key: Arc::clone(&key),
        }]);
        let layered = Pipeline::new(vec![PipelineStep::HashJoinLayered {
            tables: vec![
                Arc::new(HashTable::build(&build[..6], &[0])),
                Arc::new(HashTable::build(&build[6..], &[0])),
            ],
            key,
        }]);
        for run in [run_fused, run_unfused] {
            let mut a = run(&input, &merged);
            let mut b = run(&input, &layered);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn filter_drops_everything() {
        let input = vec![int_row(&[1]), int_row(&[2])];
        let p = Pipeline::new(vec![PipelineStep::Filter(Arc::new(|_| false))]);
        assert!(run_fused(&input, &p).is_empty());
        assert!(run_unfused(&input, &p).is_empty());
    }
}
