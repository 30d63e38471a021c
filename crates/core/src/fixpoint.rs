//! The fixpoint operator: distributed semi-naive evaluation with
//! aggregates-in-recursion (paper §6, §7).
//!
//! One executor evaluates one recursive clique. The loop structure follows
//! Algorithm 4/5 (separate Map and Reduce stages per iteration) or the
//! optimized Algorithm 6 (one combined ShuffleMap stage per iteration) per
//! `EngineConfig::stage_combination`; decomposable views (§7.2) instead run
//! per-partition local fixpoints against broadcast base relations with *zero*
//! per-iteration global stages.
//!
//! Every mode runs under one [`RoundLoop`], which owns what the modes share:
//! cancellation, the iteration cap, round counting and timing, the clique
//! trace, recovery from lost stages, and the shuffle's worker-crossing
//! count. A mode supplies only its round body ([`RoundBody`]): semi-naive
//! combined or split, naive, or a specialized CSR kernel scan. Decomposed
//! evaluation runs its whole local fixpoint in one stage and borrows the
//! loop's trace and recovery.
//!
//! Round bookkeeping: contributions merged at the end of round *r* are
//! stamped *r* and form the delta consumed by the next round; base-case
//! results are stamped 0 and form the first delta. During a round with delta
//! stamp *c*, the *old* snapshot of a relation (needed by the non-linear
//! semi-naive term expansion) is "state before stamp *c* was merged".

use crate::cache::{plan_cache_key, CachedCsr};
use crate::config::{EngineConfig, EvalMode, JoinStrategy};
use crate::error::EngineError;
use crate::eval::EvalContext;
use crate::kernel::{select_kernel, KernelEdgeFn, KernelOp, KernelPlan, KernelScalar};
use rasql_exec::checkpoint::{
    decode_agg_state, decode_rows, decode_set_state, encode_agg_state, encode_rows,
    encode_set_state, Bytes, CheckpointStore,
};
use rasql_exec::join::SortedRun;
use rasql_exec::state::{AggMergeResult, AggState, MonotoneOp};
use rasql_exec::{
    merge_join, run_fused_into, run_unfused, scan_delta, scan_delta_set, Broadcast, Cluster,
    DenseAggState, DenseSetState, ExecError, HashTable, IterationTrace, KernelValue, MaxOp,
    MergeOp, Metrics, MinOp, Pipeline, PipelineStep, QueryGovernor, RecoveryEvent, RecoveryKind,
    SetState, StageKind, StageTask, SumOp,
};
use rasql_parser::ast::AggFunc;
use rasql_plan::{
    BranchProgram, BranchStep, CountMode, DeltaValueMode, FixpointSpec, JoinBuild, LogicalPlan,
    PExpr, RecAllMode, ViewSpec,
};
use rasql_storage::codec::CompressedRelation;
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{
    partition::row_partition, Catalog, CsrGraph, FxHashMap, FxHashSet, Relation, Row, Value,
};
use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Per-partition local-fixpoint history: one `(delta rows consumed, state
/// rows after merge)` pair per local round (`Err` marks a task that gave up).
type RoundHistory = Result<Vec<(u64, u64)>, LocalAbort>;

/// Why a decomposed local fixpoint gave up mid-stage. Local rounds run
/// entirely inside one cluster stage, so both conditions are detected on the
/// worker and reported back for the driver to turn into a typed error.
#[derive(Clone, Copy)]
enum LocalAbort {
    /// Local rounds exceeded the iteration cap.
    NonTermination,
    /// The query's cancellation token fired (kill or deadline).
    Cancelled,
}

/// How many times the fixpoint may restore from the *same* checkpoint before
/// giving up. The budget refills whenever a newer checkpoint is captured
/// (forward progress), so this only bounds repeated failures of one round —
/// a livelock guard, not a global retry cap.
const RESTORE_BUDGET: u32 = 8;

/// Result of evaluating a clique.
pub struct FixpointResult {
    /// Materialized view contents, in clique view order.
    pub views: Vec<Relation>,
    /// Iterations until the fixpoint (max over partitions for decomposed
    /// evaluation).
    pub iterations: u32,
}

/// A delta batch: schema-shaped rows (aggregate columns hold *totals*) plus
/// the rows' aggregate-column increments, flattened in row order. No
/// increments means they equal the totals: the view has no `Sum` column, or
/// the batch is naive evaluation's whole previous state.
#[derive(Default)]
struct DeltaBatch {
    rows: Vec<Row>,
    increments: Vec<Value>,
}

impl DeltaBatch {
    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows as seen by a consumer with the given value mode: borrowed,
    /// unless an increment reader needs the aggregate columns swapped.
    fn reader_rows(&self, mode: DeltaValueMode, agg_cols: &[usize]) -> Cow<'_, [Row]> {
        if mode == DeltaValueMode::Total || self.increments.is_empty() {
            return Cow::Borrowed(&self.rows);
        }
        let increments = self.increments.chunks_exact(agg_cols.len());
        Cow::Owned(
            self.rows
                .iter()
                .zip(increments)
                .map(|(r, inc)| {
                    let mut vals = r.values().to_vec();
                    for (&c, v) in agg_cols.iter().zip(inc) {
                        vals[c] = v.clone();
                    }
                    Row::new(vals)
                })
                .collect(),
        )
    }
}

/// Per-view partitioned fixpoint state.
enum ViewState {
    Set(SetState),
    Agg(AggState),
}

impl ViewState {
    /// An empty state: a set for a view without aggregates, else groups.
    fn empty(set: bool) -> ViewState {
        if set {
            ViewState::Set(SetState::new())
        } else {
            ViewState::Agg(AggState::new())
        }
    }

    /// Decode a blob written by [`ViewState::encode`].
    fn decode(set: bool, data: Bytes) -> Result<ViewState, EngineError> {
        Ok(if set {
            ViewState::Set(decode_set_state(data)?)
        } else {
            ViewState::Agg(decode_agg_state(data)?)
        })
    }

    /// Encode with the canonical checkpoint codec.
    fn encode(&self) -> Bytes {
        match self {
            ViewState::Set(s) => encode_set_state(s),
            ViewState::Agg(a) => encode_agg_state(a),
        }
    }

    /// Rows held.
    fn len(&self) -> usize {
        match self {
            ViewState::Set(s) => s.len(),
            ViewState::Agg(a) => a.len(),
        }
    }

    /// Estimated heap footprint.
    fn size_bytes(&self) -> u64 {
        match self {
            ViewState::Set(s) => s.size_bytes(),
            ViewState::Agg(a) => a.size_bytes(),
        }
    }
}

struct ViewRt {
    spec: ViewSpec,
    /// Aggregate column positions (schema order).
    agg_cols: Vec<usize>,
    /// Monotone ops per aggregate column.
    ops: Vec<MonotoneOp>,
    /// Aggregate functions per aggregate column.
    funcs: Vec<AggFunc>,
    /// Resolved accumulation mode per aggregate column (see
    /// [`resolve_count_modes`]).
    modes: Vec<CountMode>,
    /// Partitioning key for this view's state (key cols, or the preserved
    /// columns in decomposed mode).
    partition_key: Vec<usize>,
    /// Per-partition state.
    state: Vec<RankedMutex<ViewState>>,
    /// Whether this view runs decomposed.
    decomposed: bool,
    /// Whether every key column precedes every aggregate column, so a
    /// keys-then-aggregates contribution is already in schema order.
    keys_first: bool,
}

impl ViewRt {
    fn is_set(&self) -> bool {
        self.spec.aggs.is_empty()
    }

    /// Append each row to the partition of `parts` that owns it.
    fn scatter(&self, rows: impl IntoIterator<Item = Row>, parts: &mut [Vec<Row>]) {
        for row in rows {
            parts[row_partition(&row, &self.partition_key, parts.len())].push(row);
        }
    }

    /// A keys-then-aggregates contribution `kv` in schema order: `kv` itself
    /// when the schema lists its keys first, else reordered into `scratch`.
    fn schema_order<'a>(&self, kv: &'a [Value], scratch: &'a mut Vec<Value>) -> &'a [Value] {
        if self.keys_first {
            return kv;
        }
        let (key, aggs) = kv.split_at(self.spec.key_cols.len());
        scratch.clear();
        scratch.resize(kv.len(), Value::Null);
        for (&c, v) in self.spec.key_cols.iter().zip(key) {
            scratch[c] = v.clone();
        }
        for (&c, v) in self.agg_cols.iter().zip(aggs) {
            scratch[c] = v.clone();
        }
        scratch
    }

    /// Copy a schema-shaped row's key into `buf`, or borrow it in place
    /// when the keys come first.
    fn key_of<'a>(&self, row: &'a [Value], buf: &'a mut Vec<Value>) -> &'a [Value] {
        let k = self.spec.key_cols.len();
        if self.keys_first {
            return &row[..k];
        }
        buf.clear();
        buf.extend(self.spec.key_cols.iter().map(|&c| row[c].clone()));
        buf
    }
}

/// The resolved per-column accumulation mode: `DistinctTuple` if any recursive
/// branch targeting the view counts distinct tuples for that column; branches
/// must agree (the analyzer's count-mode inference never mixes them for the
/// paper's query class — a genuine mix is rejected here).
fn resolve_count_modes(v: &ViewSpec) -> Result<Vec<CountMode>, EngineError> {
    let n = v.aggs.len();
    let mut modes = vec![None::<CountMode>; n];
    for prog in &v.recursive {
        for (j, m) in prog.count_modes.iter().enumerate() {
            match modes[j] {
                None => modes[j] = Some(*m),
                Some(prev) if prev == *m => {}
                Some(_) => {
                    return Err(EngineError::Other(format!(
                        "view '{}' mixes increment-flow and distinct-tuple branches \
                         for aggregate column {j}; this is not supported",
                        v.name
                    )))
                }
            }
        }
    }
    Ok(modes
        .into_iter()
        .map(|m| m.unwrap_or(CountMode::SumValues))
        .collect())
}

/// The build side of a compiled join step.
enum BuildSide {
    /// Co-partitioned cached hash tables (one per partition).
    Partitioned(Vec<Arc<HashTable>>),
    /// Co-partitioned layered hash tables, `[layer][partition]`: a retained
    /// converged build plus one small delta-built layer per refresh.
    PartitionedLayered(Vec<Vec<Arc<HashTable>>>),
    /// Co-partitioned cached sorted runs (sort-merge strategy).
    PartitionedSorted(Vec<Arc<SortedRun>>),
    /// One replicated table per worker (broadcast, §7.2).
    Replicated(Arc<Broadcast<HashTable>>),
    /// Snapshot of a recursive relation, rebuilt per round.
    Recursive { view: usize, mode: RecAllMode },
}

/// Delta layers retained per build step before the next refresh compacts
/// them back into a single full rebuild.
const MAX_WARM_LAYERS: usize = 6;

/// Per-table version record of a retained build-side artifact.
struct WarmDep {
    table: String,
    version: u64,
    rewrite_version: u64,
    len: usize,
}

/// Retained co-partitioned hash layers for one base join step.
struct WarmStep {
    deps: Vec<WarmDep>,
    /// `[layer][partition]`, oldest first.
    layers: Vec<Vec<Arc<HashTable>>>,
}

/// Retained build-side artifacts of a converged materialized view: the
/// co-partitioned hash tables of every delta-layerable base join step, keyed
/// by `(view, branch, step)` position in the clique. A delta-seeded resume
/// whose base growth is insert-only stacks one small delta-built layer on
/// the retained tables instead of re-evaluating and re-hashing the full base
/// input; every entry records the catalog versions it covers, so a stale or
/// rewritten dependency falls back to a rebuild, never a wrong answer.
#[derive(Default)]
pub struct WarmBuilds {
    steps: FxHashMap<(usize, usize, usize), WarmStep>,
}

impl WarmBuilds {
    /// An empty artifact set; steps are added as they are first built.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Whether evaluating `plan` over a grown catalog yields exactly the old
/// output plus the union of its per-table delta overlays — i.e. every node
/// distributes over row insertion. Scans, filters, projections, joins and
/// unions qualify; aggregates, sorts, limits and view scans do not (an
/// inserted row can change or reorder previously emitted output). The
/// duplicate rows a layered build can emit are no-ops under the idempotent
/// merge the resume path already requires.
fn plan_is_delta_layerable(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::TableScan { .. } | LogicalPlan::Values { .. } => true,
        LogicalPlan::Projection { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Distinct { input } => plan_is_delta_layerable(input),
        LogicalPlan::Join { left, right, .. } => {
            plan_is_delta_layerable(left) && plan_is_delta_layerable(right)
        }
        LogicalPlan::Union { inputs, .. } => inputs.iter().all(plan_is_delta_layerable),
        LogicalPlan::Aggregate { .. }
        | LogicalPlan::Sort { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::ViewScan { .. } => false,
    }
}

struct CompiledStep {
    build: BuildSide,
    stream_keys: Vec<PExpr>,
    build_keys: Vec<usize>,
}

enum CompiledOp {
    Join(CompiledStep),
    Filter(PExpr),
}

struct CompiledBranch {
    driver: usize,
    driver_value_mode: DeltaValueMode,
    ops: Vec<CompiledOp>,
    target: usize,
    key_exprs: Vec<PExpr>,
    agg_exprs: Vec<PExpr>,
    uses_recursive_build: bool,
}

impl CompiledBranch {
    /// The branch running `ops` for `prog`.
    fn new(prog: &BranchProgram, ops: Vec<CompiledOp>) -> Self {
        let uses_recursive_build = ops.iter().any(|op| {
            matches!(
                op,
                CompiledOp::Join(CompiledStep {
                    build: BuildSide::Recursive { .. },
                    ..
                })
            )
        });
        CompiledBranch {
            driver: prog.driver,
            driver_value_mode: prog.driver_value_mode,
            ops,
            target: prog.target,
            key_exprs: prog.key_exprs.clone(),
            agg_exprs: prog.agg_exprs.clone(),
            uses_recursive_build,
        }
    }
}

/// Contributions produced by a map task: per target view, per target
/// partition, schema-shaped rows.
type Buckets = Vec<Vec<Vec<Row>>>;

/// Per-op recursive-relation snapshots of a seed branch (`None` for
/// filters and base build sides).
type SeedSnapshots = Vec<Option<Arc<HashTable>>>;

/// The fixpoint executor for one clique.
pub struct FixpointExecutor<'a> {
    eval: &'a EvalContext<'a>,
    config: &'a EngineConfig,
    cluster: &'a Cluster,
}

impl<'a> FixpointExecutor<'a> {
    /// Create an executor.
    pub fn new(eval: &'a EvalContext<'a>, config: &'a EngineConfig) -> Self {
        FixpointExecutor {
            eval,
            config,
            cluster: eval.cluster,
        }
    }

    /// Cooperative cancellation/deadline check, called at every fixpoint
    /// round boundary (and before launching long-running stages).
    fn check_cancel(&self) -> Result<(), EngineError> {
        if let Some(g) = self.eval.governor {
            g.check()?;
        }
        Ok(())
    }

    /// One task per partition, on the partition's home worker, each running
    /// `f(partition, worker)`.
    fn partition_tasks<R: Send + 'static>(
        &self,
        f: impl Fn(usize, usize) -> R + Send + Sync + 'static,
    ) -> Vec<StageTask<R>> {
        let f = Arc::new(f);
        (0..self.config.partitions)
            .map(|part| {
                let f = Arc::clone(&f);
                StageTask::new(part % self.cluster.workers(), move |w| f(part, w))
            })
            .collect()
    }

    /// Evaluate the clique to materialized view relations.
    pub fn run(&self, spec: &FixpointSpec) -> Result<FixpointResult, EngineError> {
        // Specialized-kernel fast path (§7.3): statically selected from the
        // plan shape and the verifier's Proven-PreM verdicts; a data-level
        // mismatch (`Ok(None)`) falls through to the generic interpreter.
        if let Some(kp) = select_kernel(spec, self.config) {
            if let Some(result) = self.run_specialized(spec, &kp)? {
                return Ok(result);
            }
        }
        let views = Arc::new(self.view_runtimes(spec, self.config.decomposed_plans)?);
        let branches = self.compile_branches(spec, &views, None)?;
        let base_buckets = self.base_buckets(spec, &views)?;
        let iterations = if views.iter().any(|v| v.decomposed) {
            self.run_decomposed(&views, &branches, base_buckets)?
        } else {
            match self.config.eval_mode {
                EvalMode::SemiNaive => self.run_semi_naive(&views, &branches, base_buckets, 0)?,
                EvalMode::Naive => self.run_naive(&views, &branches, base_buckets)?,
            }
        };
        Ok(materialize(&views, iterations))
    }

    /// Resume a converged fixpoint from retained warm state: `warm` holds
    /// the converged rows per clique view, `changed` the *inserted* delta
    /// rows per mutated base relation. Only sound for idempotent recursion
    /// (set semantics or min/max aggregates with Proven PreM) over
    /// insert-only deltas — the materialized-view layer certifies this
    /// before calling.
    ///
    /// The algorithm: preload warm state at round stamp 0; re-evaluate base
    /// branches against the new catalog (re-merging converged rows is a
    /// no-op under idempotence, so only genuinely new base facts survive as
    /// deltas); additionally seed, for every recursive branch and every join
    /// position reading a changed relation, the join of the *warm* driver
    /// rows against only the *delta* rows at that position. Completeness:
    /// any new derivation tree has a bottommost node whose base leaf is new
    /// and whose recursive inputs are warm-derivable — that node is exactly
    /// warm ⋈ Δbase (covered by the seed), and everything above it flows
    /// through the ordinary semi-naive rounds, which the resumed loop
    /// re-enters at round 1 (warm rows keep stamp 0, so old-snapshot cutoffs
    /// of non-linear branches stay exact).
    pub fn run_resume(
        &self,
        spec: &FixpointSpec,
        warm: &[Vec<Row>],
        changed: &[(String, Vec<Row>)],
        builds: Option<&mut WarmBuilds>,
    ) -> Result<FixpointResult, EngineError> {
        let p = self.config.partitions;
        // Decomposed evaluation is forced off: warm state is partitioned on
        // the key columns, and the resumed loop must keep that partitioning.
        let views = self.view_runtimes(spec, false)?;

        // Preload the warm rows, stamped round 0.
        for (vi, v) in views.iter().enumerate() {
            let mut per_part: Vec<Vec<Row>> = vec![Vec::new(); p];
            v.scatter(warm[vi].iter().cloned(), &mut per_part);
            for (part, rows) in per_part.into_iter().enumerate() {
                merge_into_state(v, &mut v.state[part].lock(), &rows, 0);
            }
        }
        let views = Arc::new(views);

        // Compile the loop branches against the *new* catalog, reusing (or
        // delta-layering) any retained build-side artifacts.
        let branches = self.compile_branches(spec, &views, builds)?;

        // Re-evaluate base branches over the new catalog. Converged rows
        // re-merge as no-ops; inserted base facts become round-1 deltas.
        let mut base_buckets = self.base_buckets(spec, &views)?;

        // Delta-build seeding: warm driver ⋈ Δbase at each changed position.
        // One seed run per (join position, changed table); every other table
        // in the position's build plan sees its full new contents, so a
        // derivation touching several changed tables is still covered (the
        // duplicates this superset produces are no-ops under idempotence).
        for v in &spec.views {
            for prog in &v.recursive {
                for (si, step) in prog.steps.iter().enumerate() {
                    let BranchStep::HashJoin {
                        build: JoinBuild::Base(plan),
                        ..
                    } = step
                    else {
                        continue;
                    };
                    let mut tabs: Vec<String> = Vec::new();
                    plan.referenced_tables(&mut tabs);
                    for (table, delta_rows) in changed {
                        if !tabs.iter().any(|t| t.eq_ignore_ascii_case(table)) {
                            continue;
                        }
                        let (seed, snaps) =
                            self.compile_seed_branch(prog, si, table, delta_rows, warm)?;
                        let target = &views[seed.target];
                        let mut partial = Partial::new(target);
                        let input = &warm[seed.driver];
                        run_branch(&seed, input, &snaps, 0, (0, 0), self.eval.fused, |kv| {
                            partial.add(target, kv);
                        });
                        partial.scatter(target, &mut base_buckets[seed.target]);
                    }
                }
            }
        }

        self.check_cancel()?;
        let iterations = self.run_semi_naive(&views, &branches, base_buckets, 1)?;
        Ok(materialize(&views, iterations))
    }

    /// Per-view runtime state with every partition empty. `decomposed`
    /// allows decomposed evaluation, which is selected purely on the
    /// analyzer's partition-preservation certificate (§7.2) — the proof
    /// already covers single-view-ness, linearity and key pass-through.
    fn view_runtimes(
        &self,
        spec: &FixpointSpec,
        decomposed: bool,
    ) -> Result<Vec<ViewRt>, EngineError> {
        let p = self.config.partitions;
        let mut views = Vec::with_capacity(spec.views.len());
        for v in &spec.views {
            let preserved = decomposed.then(|| v.certificate.preserved_key()).flatten();
            let funcs: Vec<AggFunc> = v.aggs.iter().map(|(_, f)| *f).collect();
            let ops = funcs
                .iter()
                .map(|f| match f {
                    AggFunc::Min => Ok(MonotoneOp::Min),
                    AggFunc::Max => Ok(MonotoneOp::Max),
                    AggFunc::Sum | AggFunc::Count => Ok(MonotoneOp::Sum),
                    AggFunc::Avg => Err(EngineError::Other(format!(
                        "avg() in the recursion of view '{}' (the analyzer rejects it)",
                        v.name
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let agg_cols: Vec<usize> = v.aggs.iter().map(|(c, _)| *c).collect();
            let keys_first = agg_cols.iter().all(|&c| c >= v.key_cols.len());
            views.push(ViewRt {
                spec: v.clone(),
                agg_cols,
                ops,
                funcs,
                modes: resolve_count_modes(v)?,
                partition_key: preserved.map_or_else(|| v.key_cols.clone(), <[usize]>::to_vec),
                state: (0..p)
                    .map(|_| {
                        RankedMutex::new(
                            LockRank::FixpointState,
                            ViewState::empty(v.aggs.is_empty()),
                        )
                    })
                    .collect(),
                decomposed: preserved.is_some(),
                keys_first,
            });
        }
        Ok(views)
    }

    /// Compile every view's recursive branch programs (evaluating and
    /// caching base build sides), reusing retained warm builds when given.
    fn compile_branches(
        &self,
        spec: &FixpointSpec,
        views: &[ViewRt],
        mut builds: Option<&mut WarmBuilds>,
    ) -> Result<Arc<Vec<CompiledBranch>>, EngineError> {
        let mut branches = Vec::new();
        for (vi, v) in spec.views.iter().enumerate() {
            for (bi, prog) in v.recursive.iter().enumerate() {
                let slot = builds.as_mut().map(|w| (&mut **w, vi, bi));
                branches.push(self.compile_branch(prog, &views[vi], slot)?);
            }
        }
        Ok(Arc::new(branches))
    }

    /// Evaluate every view's base branches into round-0 contributions,
    /// partitioned like the view's state.
    fn base_buckets(&self, spec: &FixpointSpec, views: &[ViewRt]) -> Result<Buckets, EngineError> {
        let mut buckets = empty_buckets(views.len(), self.config.partitions);
        for (vi, v) in spec.views.iter().enumerate() {
            views[vi].scatter(self.eval_base_union(&v.base)?, &mut buckets[vi]);
        }
        Ok(buckets)
    }

    /// Compile one *seed* instance of a recursive branch for delta-seeded
    /// resume: sequential (each base build a single whole hash table, run on
    /// partition 0), with the base build at step `delta_pos` evaluated under
    /// an overlay catalog where `delta_table` holds only the inserted rows,
    /// and recursive build sides snapshotted from the warm rows.
    fn compile_seed_branch(
        &self,
        prog: &BranchProgram,
        delta_pos: usize,
        delta_table: &str,
        delta_rows: &[Row],
        warm: &[Vec<Row>],
    ) -> Result<(CompiledBranch, SeedSnapshots), EngineError> {
        let seed = compile_ops(prog, |si, plan, _, build_keys, _| {
            let rel = if si == delta_pos {
                self.eval_with_table_delta(plan, delta_table, delta_rows)?
            } else {
                self.eval.evaluate(plan)?
            };
            let table = HashTable::build(rel.rows(), build_keys);
            Ok(BuildSide::Partitioned(vec![Arc::new(table)]))
        })?;
        let snaps = recursive_snapshots(std::slice::from_ref(&seed), |view, _| warm[view].clone());
        Ok((seed, snaps))
    }

    /// Evaluate `plan` with `table` replaced by only `delta_rows`; every
    /// other referenced table sees its full current contents.
    fn eval_with_table_delta(
        &self,
        plan: &LogicalPlan,
        table: &str,
        delta_rows: &[Row],
    ) -> Result<Relation, EngineError> {
        let overlay = Catalog::new();
        for t in &plan_tables(plan) {
            let full = self.eval.catalog.get(t)?;
            if t.eq_ignore_ascii_case(table) {
                overlay.register_shared(
                    t,
                    Arc::new(Relation::new_unchecked(
                        full.schema().clone(),
                        delta_rows.to_vec(),
                    )),
                )?;
            } else {
                overlay.register_shared(t, full)?;
            }
        }
        let eval = EvalContext {
            catalog: &overlay,
            trace: None,
            csr_cache: None,
            ..*self.eval
        };
        eval.evaluate(plan)
    }

    /// Build the retained build-side artifacts for a converged view:
    /// evaluate and hash every delta-layerable co-partitioned base join step
    /// once, so the first delta-seeded refresh already reuses them instead
    /// of paying the full base build.
    pub fn prepare_warm_builds(&self, spec: &FixpointSpec) -> Result<WarmBuilds, EngineError> {
        let mut wb = WarmBuilds::new();
        if self.config.join == JoinStrategy::SortMerge {
            return Ok(wb);
        }
        for (vi, v) in spec.views.iter().enumerate() {
            for (bi, prog) in v.recursive.iter().enumerate() {
                let mut first_join = true;
                for (si, step) in prog.steps.iter().enumerate() {
                    if let BranchStep::HashJoin {
                        build,
                        stream_keys,
                        build_keys,
                        ..
                    } = step
                    {
                        // Mirrors the resume compile: decomposed evaluation
                        // is forced off, so the driver partitions on the
                        // view's key columns.
                        if let JoinBuild::Base(plan) = build {
                            if first_join
                                && !build_keys.is_empty()
                                && stream_keys_match(stream_keys, &v.key_cols)
                                && plan_is_delta_layerable(plan)
                            {
                                self.warm_hash_layers(&mut wb, (vi, bi, si), plan, build_keys)?;
                            }
                        }
                        first_join = false;
                    }
                }
            }
        }
        Ok(wb)
    }

    /// Reuse, extend, or (re)build the retained hash layers for one base
    /// join step. Reuse requires the recorded dependency versions to still
    /// match the catalog; insert-only growth (same rewrite versions, longer
    /// tables) appends one delta-built layer evaluated under per-table
    /// overlay catalogs — the same superset argument as delta-build seeding,
    /// so its duplicates are no-ops under the resume path's idempotence
    /// certificate; anything else rebuilds from scratch.
    fn warm_hash_layers(
        &self,
        wb: &mut WarmBuilds,
        key: (usize, usize, usize),
        plan: &LogicalPlan,
        build_keys: &[usize],
    ) -> Result<Vec<Vec<Arc<HashTable>>>, EngineError> {
        let p = self.config.partitions;
        let tabs = plan_tables(plan);
        let mut cur: Vec<WarmDep> = Vec::with_capacity(tabs.len());
        for t in &tabs {
            let (Some(v), Ok(rel)) = (self.eval.catalog.version_of(t), self.eval.catalog.get(t))
            else {
                return Err(EngineError::Other(format!(
                    "build-side table '{t}' vanished during refresh"
                )));
            };
            cur.push(WarmDep {
                table: t.clone(),
                version: v.version,
                rewrite_version: v.rewrite_version,
                len: rel.len(),
            });
        }
        enum Fit {
            Unchanged,
            Grown,
            Rebuild,
        }
        let fit = match wb.steps.get(&key) {
            Some(s)
                if s.deps.len() == cur.len()
                    && s.deps.iter().zip(&cur).all(|(a, b)| a.table == b.table) =>
            {
                if s.deps.iter().zip(&cur).all(|(a, b)| a.version == b.version) {
                    Fit::Unchanged
                } else if s.layers.len() < MAX_WARM_LAYERS
                    && s.deps
                        .iter()
                        .zip(&cur)
                        .all(|(a, b)| a.rewrite_version == b.rewrite_version && b.len >= a.len)
                {
                    Fit::Grown
                } else {
                    Fit::Rebuild
                }
            }
            _ => Fit::Rebuild,
        };
        match fit {
            Fit::Unchanged => {}
            Fit::Grown => {
                let entry = wb.steps.get_mut(&key).ok_or_else(|| {
                    EngineError::Other(
                        "warm-build entry vanished between fit check and reuse".into(),
                    )
                })?;
                let mut delta: Vec<Row> = Vec::new();
                for (old, new) in entry.deps.iter().zip(&cur) {
                    if new.len > old.len {
                        let full = self.eval.catalog.get(&old.table)?;
                        let rel =
                            self.eval_with_table_delta(plan, &old.table, &full.rows()[old.len..])?;
                        delta.extend(rel.into_rows());
                    }
                }
                if !delta.is_empty() {
                    entry.layers.push(hash_parts(delta, build_keys, p));
                }
                entry.deps = cur;
            }
            Fit::Rebuild => {
                let rel = self.eval.evaluate(plan)?;
                let layer = hash_parts(rel.into_rows(), build_keys, p);
                wb.steps.insert(
                    key,
                    WarmStep {
                        deps: cur,
                        layers: vec![layer],
                    },
                );
            }
        }
        Ok(wb.steps[&key].layers.clone())
    }

    /// Evaluate a view's base branches. CTE branches combine by set UNION,
    /// so the rows come back deduplicated, in first-seen order.
    fn eval_base_union(&self, plans: &[LogicalPlan]) -> Result<Vec<Row>, EngineError> {
        let mut rows = Vec::new();
        for plan in plans {
            let more = self.eval.evaluate(plan)?.into_rows();
            if rows.is_empty() {
                rows = more;
            } else {
                rows.extend(more);
            }
        }
        dedup_rows(&mut rows);
        Ok(rows)
    }

    // ----------------------------------------------------------------
    // Branch compilation
    // ----------------------------------------------------------------

    /// Compile a loop branch. A base build side is co-partitioned with the
    /// delta iff this is the first join, the delta arrives partitioned on
    /// exactly the probe key, and the view is not decomposed; otherwise it
    /// is broadcast (§7.2).
    fn compile_branch(
        &self,
        prog: &BranchProgram,
        driver: &ViewRt,
        mut warm: Option<(&mut WarmBuilds, usize, usize)>,
    ) -> Result<CompiledBranch, EngineError> {
        let p = self.config.partitions;
        compile_ops(prog, |si, plan, stream_keys, build_keys, first_join| {
            let co_partitioned = first_join
                && !driver.decomposed
                && !build_keys.is_empty()
                && stream_keys_match(stream_keys, &driver.partition_key);
            let warm_slot = if co_partitioned
                && self.config.join != JoinStrategy::SortMerge
                && plan_is_delta_layerable(plan)
            {
                warm.as_mut()
            } else {
                None
            };
            if let Some((wb, vi, bi)) = warm_slot {
                let layers = self.warm_hash_layers(wb, (*vi, *bi, si), plan, build_keys)?;
                return Ok(match <[_; 1]>::try_from(layers) {
                    Ok([layer]) => BuildSide::Partitioned(layer),
                    Err(layers) => BuildSide::PartitionedLayered(layers),
                });
            }
            if co_partitioned {
                let rows = self.eval.evaluate(plan)?.into_rows();
                if self.config.join != JoinStrategy::SortMerge {
                    return Ok(BuildSide::Partitioned(hash_parts(rows, build_keys, p)));
                }
                let parts = rasql_storage::partition_rows(rows, build_keys, p);
                return Ok(BuildSide::PartitionedSorted(
                    parts
                        .into_iter()
                        .map(|rows| Arc::new(SortedRun::build(rows, build_keys)))
                        .collect(),
                ));
            }
            let rel = self.eval.evaluate(plan)?;
            // Broadcast build (§7.2): compressed payload + per-worker
            // rebuild, or ship the prebuilt (2-3x larger) hash table.
            let keys = build_keys.to_vec();
            let governor = self.eval.governor;
            let bc = if self.config.broadcast_compression {
                let compressed = Arc::new(CompressedRelation::compress(rel.schema(), rel.rows()));
                let payload = compressed.size_bytes();
                Broadcast::distribute_traced(
                    self.cluster,
                    None,
                    payload,
                    move |_w| {
                        let rows = compressed.decompress();
                        // lint: allow(RL0002, round-tripping a payload this pass just compressed)
                        let rows = rows.expect("own payload");
                        HashTable::build(&rows, &keys)
                    },
                    governor,
                )
            } else {
                let master = Arc::new(HashTable::build(rel.rows(), &keys));
                let payload = master.size_bytes();
                Broadcast::distribute_traced(
                    self.cluster,
                    None,
                    payload,
                    move |_w| master.as_ref().clone(),
                    governor,
                )
            };
            Ok(BuildSide::Replicated(Arc::new(bc?)))
        })
    }

    // ----------------------------------------------------------------
    // Evaluation modes
    // ----------------------------------------------------------------

    /// Semi-naive rounds (Algorithms 4/5 and 6). `start_round` is 0 for a
    /// from-scratch run; a delta-seeded resume passes 1 so the warm state
    /// (stamped 0) stays distinct from the seeded contributions (merged at
    /// stamp 1) — the old-snapshot cutoff of the first resumed round then
    /// correctly selects exactly the warm rows.
    fn run_semi_naive(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        base_buckets: Buckets,
        start_round: u32,
    ) -> Result<u32, EngineError> {
        // Stage combination fuses the reduce of round r with the map of round
        // r+1 — sound only when no branch reads old/new snapshots of another
        // recursive relation (those need the merge barrier).
        let combine =
            self.config.stage_combination && branches.iter().all(|b| !b.uses_recursive_build);
        let mode = if combine {
            "semi_naive_combined"
        } else {
            "semi_naive"
        };
        let mut body = SemiNaive {
            views: Arc::clone(views),
            branches: Arc::clone(branches),
            combine,
            contributions: base_buckets,
            store: (self.config.checkpoint_interval > 0).then(CheckpointStore::memory),
            last_ckpt: None,
            gov_charge: 0,
            paged_contribs: Vec::new(),
            paged_state: Vec::new(),
        };
        RoundLoop::begin(self, view_names(views), mode, "generic").run(&mut body, start_round)
    }

    /// Naive rounds (Algorithm 2 / the Spark-SQL-Naive baseline of Fig 10).
    fn run_naive(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        base_buckets: Buckets,
    ) -> Result<u32, EngineError> {
        let p = self.config.partitions;
        let mut body = Naive {
            views: Arc::clone(views),
            branches: Arc::clone(branches),
            prev: Arc::new(empty_buckets(views.len(), p)),
            base: base_buckets,
        };
        RoundLoop::begin(self, view_names(views), "naive", "generic").run(&mut body, 0)
    }

    /// Decomposed evaluation (§7.2): per-partition local fixpoints, all in
    /// one cluster stage.
    fn run_decomposed(
        &self,
        views: &Arc<Vec<ViewRt>>,
        branches: &Arc<Vec<CompiledBranch>>,
        base_buckets: Buckets,
    ) -> Result<u32, EngineError> {
        debug_assert_eq!(views.len(), 1);
        let max_iter = self.config.max_iterations;
        let p = self.config.partitions;
        let sink = self.eval.trace;
        let mut lp = RoundLoop::begin(self, view_names(views), "decomposed", "generic");
        let fused = self.eval.fused;
        // The whole local fixpoint runs inside one stage, so the cancellation
        // token travels into the task and is polled per local round.
        let token = self.eval.governor.map(|g| g.token().clone());
        // Each task returns its local per-round history: (delta rows consumed,
        // state rows after the round's merge).
        let (views_c, branches_c) = (Arc::clone(views), Arc::clone(branches));
        let local_fixpoint = Arc::new(move |part: usize, w: usize| -> RoundHistory {
            let v = &views_c[0];
            let mut state = v.state[part].lock();
            let mut delta = merge_into_state(v, &mut state, &base_buckets[0][part], 0);
            let mut iters: u32 = 0;
            let mut history: Vec<(u64, u64)> = Vec::new();
            while !delta.is_empty() {
                iters += 1;
                if iters > max_iter {
                    return Err(LocalAbort::NonTermination);
                }
                if token.as_ref().is_some_and(|t| t.check().is_err()) {
                    return Err(LocalAbort::Cancelled);
                }
                let consumed = delta.rows.len() as u64;
                // Every output tuple merges into the state straight from the
                // pipeline's sink; the preserved-column property guarantees
                // it belongs to this partition.
                let mut merge = Merge::begin(v, &mut state, iters);
                for b in branches_c.iter() {
                    let input = delta.reader_rows(b.driver_value_mode, &v.agg_cols);
                    run_branch(b, &input, &[], 0, (usize::MAX, w), fused, |kv| {
                        merge.contribution(kv);
                    });
                }
                delta = merge.finish();
                history.push((consumed, state.len() as u64));
            }
            Ok(history)
        });
        // A decomposed run has no round boundaries to checkpoint at — the
        // entire local fixpoint is one stage — so recovery is reset-and-rerun:
        // wipe every partition back to empty state and run the stage again
        // (sound because the stage derives everything from the immutable base
        // buckets).
        let results = loop {
            self.check_cancel()?;
            let local_fixpoint = Arc::clone(&local_fixpoint);
            let tasks = self.partition_tasks(move |part, w| local_fixpoint(part, w));
            match self.cluster.run_stage_traced(
                sink,
                "fixpoint decomposed",
                StageKind::Decomposed,
                tasks,
            ) {
                Ok(r) => break r,
                Err(e) => {
                    lp.recover(lost(e), |_| {
                        for part in &views[0].state {
                            *part.lock() = ViewState::empty(views[0].is_set());
                        }
                        Ok(Some((0, "state reset to empty; rerunning".to_string())))
                    })?;
                }
            }
        };
        let mut histories: Vec<Vec<(u64, u64)>> = Vec::with_capacity(p);
        for r in results {
            match r {
                Ok(history) => histories.push(history),
                Err(LocalAbort::NonTermination) => {
                    return Err(EngineError::NonTermination {
                        view: views[0].spec.name.clone(),
                        iterations: max_iter,
                    })
                }
                Err(LocalAbort::Cancelled) => {
                    // `check_cancel` re-derives the precise typed error
                    // (cancelled vs. deadline); the fallback covers a token
                    // that was somehow un-fired by the time we got here.
                    self.check_cancel()?;
                    return Err(EngineError::Exec(ExecError::Cancelled {
                        query_id: self.eval.governor.map_or(0, QueryGovernor::query_id),
                    }));
                }
            }
        }
        let max_rounds = histories.iter().map(Vec::len).max().unwrap_or(0) as u32;
        if let Some(s) = sink {
            // Partition totals only change while that partition still
            // iterates, so a partition past its own fixpoint contributes its
            // final state size to later global rounds.
            let final_lens: Vec<u64> = (0..p)
                .map(|part| views[0].state[part].lock().len() as u64)
                .collect();
            for r in 0..max_rounds as usize {
                let mut delta_rows = 0u64;
                let mut total_rows = 0u64;
                for (part, h) in histories.iter().enumerate() {
                    let (d, t) = h.get(r).copied().unwrap_or((0, final_lens[part]));
                    delta_rows += d;
                    total_rows += t;
                }
                s.record_iteration(IterationTrace {
                    round: r as u32 + 1,
                    delta_rows,
                    total_rows,
                    // Local rounds run inside the single decomposed stage:
                    // no per-round stages and no shuffle (the §7.2 claim).
                    stages: 0,
                    shuffle_rows: 0,
                    shuffle_bytes: 0,
                    elapsed_us: 0,
                });
            }
        }
        Metrics::add(&self.cluster.metrics.iterations, max_rounds as u64);
        Ok(lp.finish(max_rounds))
    }

    // ----------------------------------------------------------------
    // Specialized fixpoint kernels (§7.3): CSR broadcast + dense state
    // ----------------------------------------------------------------

    /// Try to evaluate the clique on the monomorphized kernel selected by
    /// [`select_kernel`]. Returns `Ok(None)` when the *data* disagrees with
    /// the statically selected shape (a non-`Int` vertex id, a mistyped
    /// aggregate value or edge weight) — the caller then falls back to the
    /// generic interpreter, which re-evaluates the base and build plans.
    fn run_specialized(
        &self,
        spec: &FixpointSpec,
        kp: &KernelPlan,
    ) -> Result<Option<FixpointResult>, EngineError> {
        let p = self.config.partitions;
        let v = &spec.views[0];

        // Version-keyed set-up cache: a repeated kernel query against
        // unchanged tables skips the base scan, the seed dedup, the edge scan
        // and the CSR construction. Plans reading a lower clique's view get
        // no key and always build fresh.
        let cache = self.eval.csr_cache.and_then(|cache| {
            let mut plans: Vec<&LogicalPlan> = v.base.iter().collect();
            plans.push(&kp.build);
            let params = format!(
                "p{p}|k{}s{}d{}w{:?}",
                kp.key_col, kp.src_col, kp.dst_col, kp.weight
            );
            plan_cache_key(self.eval.catalog, &[], &plans, &params).map(|key| (cache, key))
        });
        let setup = match cache.as_ref().and_then(|(c, key)| c.get(&key.key)) {
            Some(hit) => {
                Metrics::add(&self.cluster.metrics.cache_hits, 1);
                hit
            }
            None => {
                let seeds = self.eval_base_union(&v.base)?;
                // Every base vertex becomes a CSR seed so it owns a dense id
                // even when it has no outgoing edges.
                let mut extras: Vec<i64> = Vec::with_capacity(seeds.len());
                for row in &seeds {
                    match row.get(kp.key_col) {
                        Value::Int(k) => extras.push(*k),
                        _ => return Ok(None),
                    }
                }
                let edges = self.eval.evaluate(&kp.build)?;
                let Some(graph) =
                    CsrGraph::build(edges.rows(), kp.src_col, kp.dst_col, kp.weight, extras, p)
                else {
                    return Ok(None);
                };
                let setup = Arc::new(CachedCsr {
                    graph: Arc::new(graph),
                    seeds,
                });
                if let Some((c, key)) = cache {
                    c.put(key.key, key.deps, Arc::clone(&setup));
                }
                setup
            }
        };
        let (csr, seeds) = (&setup.graph, &setup.seeds);
        let arity = v.schema.arity();
        macro_rules! agg {
            ($t:ty, $op:ty) => {
                self.run_kernel(v, kp, AggKernel::<$t, $op>::new(kp, arity), csr, seeds)
            };
        }
        match (kp.op, kp.scalar) {
            (KernelOp::Set, _) => self.run_kernel(v, kp, Some(SetKernel), csr, seeds),
            (KernelOp::Min, KernelScalar::I64) => agg!(i64, MinOp),
            (KernelOp::Min, KernelScalar::F64) => agg!(f64, MinOp),
            (KernelOp::Max, KernelScalar::I64) => agg!(i64, MaxOp),
            (KernelOp::Max, KernelScalar::F64) => agg!(f64, MaxOp),
            (KernelOp::Sum, _) => agg!(i64, SumOp),
        }
    }

    /// The monomorphized kernel driver: one combined stage per round,
    /// merging pending contributions into dense per-partition state and
    /// scanning the fresh delta against the broadcast CSR graph. Its rounds
    /// match semi-naive's combined mode round for round. `kernel` is `None`
    /// when the plan's aggregate does not fit a kernel; like any data
    /// mismatch, that returns `Ok(None)`.
    fn run_kernel<K: DenseKernel>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        kernel: Option<K>,
        csr: &Arc<CsrGraph>,
        seeds: &[Row],
    ) -> Result<Option<FixpointResult>, EngineError> {
        let Some(kernel) = kernel else {
            return Ok(None);
        };
        let p = self.config.partitions;
        // Convert base rows to dense items, bucketed exactly where the
        // generic partitioner would send them.
        let mut base: Vec<Vec<K::Item>> = vec![Vec::new(); p];
        for row in seeds {
            let Value::Int(k) = row.get(kp.key_col) else {
                return Ok(None);
            };
            let Some(d) = csr.dense_id(*k) else {
                return Ok(None);
            };
            let Some(item) = kernel.seed(row, d) else {
                return Ok(None);
            };
            base[csr.part_of[d as usize] as usize].push(item);
        }

        let n = csr.vertex_count();
        let src = Arc::clone(csr);
        let bc = Broadcast::distribute_traced(
            self.cluster,
            None,
            csr.size_bytes(),
            move |_w| src.as_ref().clone(),
            self.eval.governor,
        )
        .map_err(EngineError::Exec)?;
        let mut body = KernelRounds {
            slabs: Arc::new(
                (0..p)
                    .map(|_| RankedMutex::new(LockRank::FixpointState, kernel.state(n)))
                    .collect(),
            ),
            kernel: Arc::new(kernel),
            graph: Arc::new(bc),
            pending: base.clone(),
            base,
            gov_charge: 0,
        };
        let iterations = RoundLoop::begin(self, vec![v.name.clone()], "specialized", kp.name)
            .run(&mut body, 0)?;
        if let Some(g) = self.eval.governor {
            g.tracker().release(body.gov_charge);
        }

        // Materialize: a vertex is occupied only in its owner partition.
        let mut rows: Vec<Row> = Vec::new();
        for part in body.slabs.iter() {
            body.kernel.emit(&part.lock(), csr, &mut rows);
        }
        Ok(Some(FixpointResult {
            views: vec![Relation::new_unchecked(v.schema.clone(), rows)],
            iterations,
        }))
    }
}

// --------------------------------------------------------------------
// The round loop
// --------------------------------------------------------------------

/// Why a round body stopped before finishing its round.
enum Halt {
    /// A cluster stage (or a checkpoint capture) was lost: the loop rewinds
    /// the body and replays, while the restore budget lasts.
    Lost(EngineError),
    /// Anything else fails the query as is.
    Fatal(EngineError),
}

/// A lost cluster stage.
fn lost(e: ExecError) -> Halt {
    Halt::Lost(EngineError::Exec(e))
}

/// How a finished round ended.
enum Step {
    /// The round found nothing new: the fixpoint is reached.
    Fixpoint,
    /// The round consumed a delta of `delta_rows` rows (naive rounds report
    /// their re-derivation volume) in `stages` cluster stages.
    Delta { delta_rows: u64, stages: u64 },
}

/// One evaluation mode's work, driven round by round by [`RoundLoop::run`].
trait RoundBody {
    /// Work at the boundary after `done` rounds, before the next starts.
    /// `Ok(true)` marks a fresh restore point, which refills the restore
    /// budget.
    fn boundary(&mut self, _x: &FixpointExecutor<'_>, _done: u32) -> Result<bool, Halt> {
        Ok(false)
    }

    /// Run round `round`, gathering its output through `shuffle`.
    fn round(
        &mut self,
        x: &FixpointExecutor<'_>,
        round: u32,
        shuffle: &mut Shuffle<'_>,
    ) -> Result<Step, Halt>;

    /// Rewind after a stage of round `round` was lost. Returns the round
    /// boundary to resume from and what was done (for the recovery event),
    /// or `None` when there is nothing to rewind to.
    fn rewind(
        &mut self,
        x: &FixpointExecutor<'_>,
        round: u32,
    ) -> Result<Option<(u32, String)>, EngineError>;

    /// Rows in the clique's state. Only called for the trace.
    fn total_rows(&self) -> u64;

    /// Work after a round that produced a delta, once it is traced.
    fn settle(&mut self, _x: &FixpointExecutor<'_>, _round: u32) -> Result<(), EngineError> {
        Ok(())
    }
}

/// The round driver behind every fixpoint mode. It owns the per-round
/// cancellation check, the iteration cap, the `iterations` metric, the
/// round timer, the clique's trace, the restore budget with its recovery
/// events, and the shuffle's worker-crossing count.
struct RoundLoop<'x> {
    x: &'x FixpointExecutor<'x>,
    /// The clique's view names: `NonTermination` names the first, and
    /// recovery events are labelled with all of them.
    views: Vec<String>,
    /// Restores left before a lost stage fails the query.
    restores_left: u32,
}

impl<'x> RoundLoop<'x> {
    /// Open the clique's trace and fill the restore budget.
    fn begin(x: &'x FixpointExecutor<'x>, views: Vec<String>, mode: &str, kernel: &str) -> Self {
        if let Some(s) = x.eval.trace {
            s.begin_clique_kernel(views.clone(), mode, kernel);
        }
        let mut lp = RoundLoop {
            x,
            views,
            restores_left: 0,
        };
        lp.refill();
        lp
    }

    /// Refill the restore budget. Recovery is only attempted when
    /// checkpointing is enabled; otherwise a lost stage fails the query.
    fn refill(&mut self) {
        if self.x.config.checkpoint_interval > 0 {
            self.restores_left = RESTORE_BUDGET;
        }
    }

    /// Close the clique's trace after `iterations` rounds.
    fn finish(self, iterations: u32) -> u32 {
        if let Some(s) = self.x.eval.trace {
            s.end_clique(iterations);
        }
        iterations
    }

    /// Recover from `halt`: rewind and return the boundary to resume from,
    /// or fail when the halt is fatal, the budget is spent, or there is
    /// nothing to rewind to.
    fn recover(
        &mut self,
        halt: Halt,
        rewind: impl FnOnce(&FixpointExecutor<'_>) -> Result<Option<(u32, String)>, EngineError>,
    ) -> Result<u32, EngineError> {
        let err = match halt {
            Halt::Lost(e) if self.restores_left > 0 => e,
            Halt::Lost(e) | Halt::Fatal(e) => return Err(e),
        };
        let Some((at, what)) = rewind(self.x)? else {
            return Err(err);
        };
        self.restores_left -= 1;
        Metrics::add(&self.x.cluster.metrics.restores, 1);
        if let Some(s) = self.x.eval.trace {
            s.record_recovery(RecoveryEvent {
                kind: RecoveryKind::Restore,
                stage: self.views.join(","),
                round: at,
                detail: format!("{what} after: {err}"),
            });
        }
        Ok(at)
    }

    /// Run rounds after `start_round` until one finds nothing new; returns
    /// the rounds that produced a delta. At most `max_iterations` rounds may
    /// (the empty closing round does not count against the cap).
    fn run<B: RoundBody>(mut self, body: &mut B, start_round: u32) -> Result<u32, EngineError> {
        let x = self.x;
        let mut round = start_round;
        loop {
            x.check_cancel()?;
            match body.boundary(x, round) {
                Ok(true) => self.refill(),
                Ok(false) => {}
                Err(halt) => {
                    round = self.recover(halt, |x| body.rewind(x, round))?;
                    continue;
                }
            }
            round += 1;
            Metrics::add(&x.cluster.metrics.iterations, 1);
            let t0 = Instant::now();
            let mut shuffle = Shuffle {
                cluster: x.cluster,
                rows: 0,
                bytes: 0,
            };
            let (delta_rows, stages, closing) = match body.round(x, round, &mut shuffle) {
                Ok(Step::Fixpoint) => (0, 1, true),
                Ok(Step::Delta { delta_rows, stages }) => (delta_rows, stages, false),
                Err(halt) => {
                    round = self.recover(halt, |x| body.rewind(x, round))?;
                    continue;
                }
            };
            if !closing && round > x.config.max_iterations {
                return Err(EngineError::NonTermination {
                    view: self.views[0].clone(),
                    iterations: x.config.max_iterations,
                });
            }
            Metrics::add(&x.cluster.metrics.shuffle_rows, shuffle.rows);
            Metrics::add(&x.cluster.metrics.shuffle_bytes, shuffle.bytes);
            if let Some(s) = x.eval.trace {
                s.record_iteration(IterationTrace {
                    round,
                    delta_rows,
                    total_rows: body.total_rows(),
                    stages,
                    shuffle_rows: shuffle.rows,
                    shuffle_bytes: shuffle.bytes,
                    elapsed_us: t0.elapsed().as_micros() as u64,
                });
            }
            if closing {
                return Ok(self.finish(round - 1));
            }
            body.settle(x, round)?;
        }
    }
}

/// A round's shuffle: gathers output into its destination partitions and
/// counts what crosses worker boundaries.
struct Shuffle<'c> {
    cluster: &'c Cluster,
    rows: u64,
    bytes: u64,
}

impl Shuffle<'_> {
    /// Append `items`, sent from partition `src_part` to `dst_part`, onto
    /// `into`; `size` gives their bytes when they cross workers.
    fn send<T>(
        &mut self,
        src_part: usize,
        dst_part: usize,
        items: Vec<T>,
        into: &mut Vec<T>,
        size: impl FnOnce(&[T]) -> u64,
    ) {
        if self.cluster.owner_of(src_part) != self.cluster.owner_of(dst_part) {
            self.rows += items.len() as u64;
            self.bytes += size(&items);
        }
        into.extend(items);
    }
}

// --------------------------------------------------------------------
// Semi-naive rounds (Algorithms 4/5 and 6)
// --------------------------------------------------------------------

/// Semi-naive round state: the pending contributions plus the round
/// boundary's checkpoint and memory-governance bookkeeping.
struct SemiNaive {
    views: Arc<Vec<ViewRt>>,
    branches: Arc<Vec<CompiledBranch>>,
    /// One combined stage per round (Algorithm 6) instead of Reduce + Map.
    combine: bool,
    /// Contributions waiting for the next merge, per view and partition.
    contributions: Buckets,
    /// Round-boundary checkpoints (see `rasql_exec::checkpoint`), when
    /// enabled: between rounds every partition's state plus the pending
    /// contributions form a consistent cut, so that is where snapshots are
    /// taken and where replay resumes after a lost stage.
    store: Option<CheckpointStore>,
    /// The last boundary captured.
    last_ckpt: Option<u32>,
    /// What the governor's tracker holds for the inter-round resident set
    /// (pending buckets plus all-relation state).
    gov_charge: u64,
    /// `(view, partition, spill file)` of the buckets and state paged out
    /// at the last boundary, read back before the next round consumes them.
    paged_contribs: Vec<(usize, usize, String)>,
    paged_state: Vec<(usize, usize, String)>,
}

impl RoundBody for SemiNaive {
    fn boundary(&mut self, x: &FixpointExecutor<'_>, done: u32) -> Result<bool, Halt> {
        if let Some(g) = x.eval.governor {
            // Page spilled buckets/state back in (the merge stage and the
            // checkpoint capture below both need them resident), then drop
            // the inter-round charge: the stages take ownership now.
            self.page_in(g).map_err(Halt::Fatal)?;
            g.tracker().release(std::mem::take(&mut self.gov_charge));
        }
        // Capture at the round boundary: round 0 (the base delta) and every
        // `checkpoint_interval` rounds after. A restore rewinds to a boundary
        // already captured; the `last_ckpt` guard keeps the replay from
        // re-capturing (and re-filling the restore budget for) it.
        let Some(store) = &self.store else {
            return Ok(false);
        };
        if !done.is_multiple_of(x.config.checkpoint_interval) || self.last_ckpt == Some(done) {
            return Ok(false);
        }
        self.capture(x, store, done).map_err(Halt::Lost)?;
        self.last_ckpt = Some(done);
        Ok(true)
    }

    fn round(
        &mut self,
        x: &FixpointExecutor<'_>,
        round: u32,
        shuffle: &mut Shuffle<'_>,
    ) -> Result<Step, Halt> {
        let p = x.config.partitions;
        let nv = self.views.len();
        let fused = x.eval.fused;
        let sink = x.eval.trace;
        let map_out: Vec<(u64, Buckets)> = if self.combine {
            // --- One combined ShuffleMap stage: merge + join + partial
            // aggregate per partition (Algorithm 6). ---
            let contribs = std::mem::take(&mut self.contributions);
            let (views, branches) = (Arc::clone(&self.views), Arc::clone(&self.branches));
            let tasks = x.partition_tasks(move |part, w| {
                let deltas = merge_partition(&views, &contribs, part, round - 1);
                map_task(&views, &branches, &deltas, &[], part, w, fused)
            });
            x.cluster
                .run_stage_traced(sink, "fixpoint combined", StageKind::Combined, tasks)
                .map_err(lost)?
        } else {
            // --- Reduce stage (Algorithm 4 lines 11-16). ---
            let contribs = std::mem::take(&mut self.contributions);
            let views = Arc::clone(&self.views);
            let tasks = x.partition_tasks(move |part, _w| {
                merge_partition(&views, &contribs, part, round - 1)
            });
            let merged = x
                .cluster
                .run_stage_traced(sink, "fixpoint reduce", StageKind::Reduce, tasks)
                .map_err(lost)?;
            if merged.iter().flatten().all(DeltaBatch::is_empty) {
                // Closing round: the reduce found nothing new.
                return Ok(Step::Fixpoint);
            }

            // --- Map stage (Algorithm 4 lines 6-9 / Algorithm 5). ---
            // Old/new snapshots use the delta stamp `round - 1` as cutoff.
            let snapshots = recursive_snapshots(&self.branches, |view, mode| {
                snapshot_rows(&self.views[view], mode, round - 1)
            });
            let (views, branches) = (Arc::clone(&self.views), Arc::clone(&self.branches));
            let tasks = x.partition_tasks(move |part, w| {
                map_task(&views, &branches, &merged[part], &snapshots, part, w, fused)
            });
            x.cluster
                .run_stage_traced(sink, "fixpoint map", StageKind::Map, tasks)
                .map_err(lost)?
        };

        let delta_rows: u64 = map_out.iter().map(|(n, _)| *n).sum();
        if self.combine && delta_rows == 0 {
            // Closing round: every partition merged an empty delta.
            return Ok(Step::Fixpoint);
        }
        // --- Shuffle: gather buckets per (view, partition). ---
        self.contributions = empty_buckets(nv, p);
        for (src, (_, buckets)) in map_out.into_iter().enumerate() {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst, rows) in per_view.into_iter().enumerate() {
                    shuffle.send(src, dst, rows, &mut self.contributions[vi][dst], |rows| {
                        rows.iter().map(Row::size_bytes).sum::<usize>() as u64
                    });
                }
            }
        }
        let stages = if self.combine { 1 } else { 2 };
        Ok(Step::Delta { delta_rows, stages })
    }

    /// Restore every partition's state and the pending contributions from
    /// the last captured boundary.
    fn rewind(
        &mut self,
        x: &FixpointExecutor<'_>,
        _round: u32,
    ) -> Result<Option<(u32, String)>, EngineError> {
        let (Some(store), Some(at)) = (&self.store, self.last_ckpt) else {
            return Ok(None);
        };
        // A lost stage took the contributions with it; the restore
        // replaces every bucket anyway.
        self.contributions = empty_buckets(self.views.len(), x.config.partitions);
        let mut bytes = 0u64;
        for (vi, v) in self.views.iter().enumerate() {
            for (part, contrib) in self.contributions[vi].iter_mut().enumerate() {
                let data = checkpoint_entry(store, &format!("r{at}/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *v.state[part].lock() = ViewState::decode(v.is_set(), data)?;
                let data = checkpoint_entry(store, &format!("r{at}/contrib/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *contrib = decode_rows(data)?;
            }
        }
        Ok(Some((at, format!("replaying from round {at} ({bytes} B)"))))
    }

    fn total_rows(&self) -> u64 {
        total_state_rows(&self.views)
    }

    /// End-of-round memory governance: charge the inter-round resident set
    /// (pending contribution buckets plus the all-relation aggregate/set
    /// state) to the query's tracker, and while the tracker is over budget
    /// page it out to the governor's spill directory — buckets first
    /// (order-preserving row codec, so the next merge replays contributions
    /// byte-for-byte), then per-partition state (canonical checkpoint
    /// codec). What stays resident stays charged.
    fn settle(&mut self, x: &FixpointExecutor<'_>, round: u32) -> Result<(), EngineError> {
        let Some(g) = x.eval.governor else {
            return Ok(());
        };
        let mut charge = buckets_bytes(&self.contributions) + state_size_bytes(&self.views);
        g.tracker().charge(charge);
        if !g.tracker().over_budget() {
            self.gov_charge = charge;
            return Ok(());
        }
        let dir = g.spill_dir()?;
        let mut written = 0u64;
        let mut files = 0u64;
        'page: {
            for (vi, per_view) in self.contributions.iter_mut().enumerate() {
                for (part, rows) in per_view.iter_mut().enumerate() {
                    if rows.is_empty() {
                        continue;
                    }
                    let freed: u64 = rows.iter().map(|r| r.size_bytes() as u64 + 16).sum();
                    let name = format!("contrib-r{round}-v{vi}-p{part}");
                    written += dir.append_rows(&name, rows).map_err(EngineError::Exec)?;
                    files += 1;
                    rows.clear();
                    self.paged_contribs.push((vi, part, name));
                    g.tracker().release(freed);
                    charge = charge.saturating_sub(freed);
                    if !g.tracker().over_budget() {
                        break 'page;
                    }
                }
            }
            for (vi, v) in self.views.iter().enumerate() {
                for (part, cell) in v.state.iter().enumerate() {
                    let mut st = cell.lock();
                    let freed = st.size_bytes();
                    if freed == 0 {
                        continue;
                    }
                    let name = format!("state-r{round}-v{vi}-p{part}");
                    written += dir
                        .write_blob(&name, st.encode().as_ref())
                        .map_err(EngineError::Exec)?;
                    files += 1;
                    *st = ViewState::empty(v.is_set());
                    drop(st);
                    self.paged_state.push((vi, part, name));
                    g.tracker().release(freed);
                    charge = charge.saturating_sub(freed);
                    if !g.tracker().over_budget() {
                        break 'page;
                    }
                }
            }
        }
        g.note_spill(written, files);
        Metrics::add(&x.cluster.metrics.spilled_bytes, written);
        Metrics::add(&x.cluster.metrics.spill_files, files);
        if let Some(s) = x.eval.trace {
            s.record_recovery(RecoveryEvent {
                kind: RecoveryKind::Spill,
                stage: view_names(&self.views).join(","),
                round,
                detail: format!("paged out {written} B in {files} files (footprint over budget)"),
            });
        }
        self.gov_charge = charge;
        Ok(())
    }
}

impl SemiNaive {
    /// Serialize every partition's state (as a traced cluster stage — the
    /// encode work runs where the state lives, and is itself subject to fault
    /// injection) plus the pending contribution buckets (driver-side, it
    /// already holds them) into the store under round `round`.
    fn capture(
        &self,
        x: &FixpointExecutor<'_>,
        store: &CheckpointStore,
        round: u32,
    ) -> Result<(), EngineError> {
        let p = x.config.partitions;
        let sink = x.eval.trace;
        let views = Arc::clone(&self.views);
        let tasks = x.partition_tasks(move |part, _w| {
            let encode = |(vi, v): (usize, &ViewRt)| {
                (
                    format!("r{round}/v{vi}/p{part}"),
                    v.state[part].lock().encode(),
                )
            };
            views.iter().enumerate().map(encode).collect::<Vec<_>>()
        });
        let encoded = x
            .cluster
            .run_stage_traced(sink, "fixpoint checkpoint", StageKind::Checkpoint, tasks)
            .map_err(EngineError::Exec)?;
        let mut bytes = 0u64;
        for per_part in encoded {
            for (key, data) in per_part {
                bytes += store.put(&key, data)? as u64;
            }
        }
        for (vi, per_view) in self.contributions.iter().enumerate() {
            for (part, rows) in per_view.iter().enumerate() {
                let data = encode_rows(rows);
                bytes += store.put(&format!("r{round}/contrib/v{vi}/p{part}"), data)? as u64;
            }
        }
        Metrics::add(&x.cluster.metrics.checkpoints, 1);
        Metrics::add(&x.cluster.metrics.checkpoint_bytes, bytes);
        if let Some(s) = sink {
            s.record_recovery(RecoveryEvent {
                kind: RecoveryKind::Checkpoint,
                stage: view_names(&self.views).join(","),
                round,
                detail: format!("{bytes} B across {p} partitions"),
            });
        }
        Ok(())
    }

    /// Read back everything [`RoundBody::settle`] paged out at the previous
    /// round boundary: spilled contribution rows are appended back in their
    /// original order (the spill row codec preserves it), and paged-out
    /// state partitions are decoded from their checkpoint-codec blobs.
    fn page_in(&mut self, g: &QueryGovernor) -> Result<(), EngineError> {
        if self.paged_contribs.is_empty() && self.paged_state.is_empty() {
            return Ok(());
        }
        let dir = g.spill_dir()?;
        for (vi, part, name) in self.paged_contribs.drain(..) {
            let mut rows = dir.take_rows(&name).map_err(EngineError::Exec)?;
            rows.append(&mut self.contributions[vi][part]);
            self.contributions[vi][part] = rows;
        }
        for (vi, part, name) in self.paged_state.drain(..) {
            let blob = dir.take_blob(&name).map_err(EngineError::Exec)?;
            let v = &self.views[vi];
            *v.state[part].lock() = ViewState::decode(v.is_set(), Bytes::from(blob))?;
        }
        Ok(())
    }
}

/// Hash tables of the recursive relations the branches join against, one
/// slot per compiled op (`None` for filters and base build sides);
/// `rows_of` supplies a view's rows under a read mode.
fn recursive_snapshots(
    branches: &[CompiledBranch],
    rows_of: impl Fn(usize, RecAllMode) -> Vec<Row>,
) -> Vec<Option<Arc<HashTable>>> {
    branches
        .iter()
        .flat_map(|b| &b.ops)
        .map(|op| match op {
            CompiledOp::Join(CompiledStep {
                build: BuildSide::Recursive { view, mode },
                build_keys,
                ..
            }) => Some(Arc::new(HashTable::build(
                &rows_of(*view, *mode),
                build_keys,
            ))),
            _ => None,
        })
        .collect()
}

/// A view's rows for a recursive build side (mutual/non-linear recursion):
/// the whole state, or the state before delta stamp `cutoff` was merged.
fn snapshot_rows(v: &ViewRt, mode: RecAllMode, cutoff: u32) -> Vec<Row> {
    let mut rows = Vec::new();
    for part in &v.state {
        match &*part.lock() {
            ViewState::Set(s) => match mode {
                RecAllMode::New => rows.extend(s.iter().cloned()),
                RecAllMode::Old => rows.extend(s.iter_before(cutoff).cloned()),
            },
            ViewState::Agg(a) => {
                for (key, entry) in a.iter() {
                    let vals = match mode {
                        RecAllMode::New => Some(&*entry.values),
                        RecAllMode::Old => a.get_before(key, cutoff),
                    };
                    if let Some(vals) = vals {
                        rows.push(assemble_row(key, vals, &v.spec.key_cols, &v.agg_cols));
                    }
                }
            }
        }
    }
    rows
}

// --------------------------------------------------------------------
// Naive rounds (Algorithm 2)
// --------------------------------------------------------------------

/// Naive round state: every round re-derives the whole relation from the
/// base rows and the previous round's state.
struct Naive {
    views: Arc<Vec<ViewRt>>,
    branches: Arc<Vec<CompiledBranch>>,
    /// Previous full state as plain (schema-shaped) rows per view/partition.
    prev: Arc<Buckets>,
    base: Buckets,
}

impl RoundBody for Naive {
    fn round(
        &mut self,
        x: &FixpointExecutor<'_>,
        _round: u32,
        _shuffle: &mut Shuffle<'_>,
    ) -> Result<Step, Halt> {
        let p = x.config.partitions;
        let nv = self.views.len();
        let fused = x.eval.fused;
        // Derive contributions = base ∪ T(prev); drivers read totals.
        let snapshots = recursive_snapshots(&self.branches, |view, _| {
            self.prev[view].iter().flatten().cloned().collect()
        });
        let prev = Arc::clone(&self.prev);
        let (views, branches) = (Arc::clone(&self.views), Arc::clone(&self.branches));
        let tasks = x.partition_tasks(move |part, w| {
            // The whole previous state is the "delta", increments = totals.
            let deltas: Vec<DeltaBatch> = prev
                .iter()
                .map(|per_view| DeltaBatch {
                    rows: per_view[part].clone(),
                    increments: Vec::new(),
                })
                .collect();
            map_task(&views, &branches, &deltas, &snapshots, part, w, fused).1
        });
        let map_out = x
            .cluster
            .run_stage_traced(x.eval.trace, "fixpoint naive map", StageKind::Map, tasks)
            .map_err(lost)?;
        let mut contributions = self.base.clone();
        let mut derived_rows = 0u64;
        for buckets in map_out {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst, rows) in per_view.into_iter().enumerate() {
                    derived_rows += rows.len() as u64;
                    contributions[vi][dst].extend(rows);
                }
            }
        }

        // Recompute state from scratch; compare with the previous round.
        let mut changed = false;
        let mut next = empty_buckets(nv, p);
        for (vi, v) in self.views.iter().enumerate() {
            for part in 0..p {
                let mut fresh = ViewState::empty(v.is_set());
                merge_into_state(v, &mut fresh, &contributions[vi][part], 0);
                let rows = state_rows(v, &fresh);
                let mut sorted = rows.clone();
                sorted.sort_unstable();
                let mut old_sorted = self.prev[vi][part].clone();
                old_sorted.sort_unstable();
                if sorted != old_sorted {
                    changed = true;
                }
                next[vi][part] = rows;
                *v.state[part].lock() = fresh;
            }
        }
        self.prev = Arc::new(next);
        // Naive evaluation has no deltas: a round reports its re-derivation
        // volume instead (the waste the SN ablation measures).
        Ok(if changed {
            Step::Delta {
                delta_rows: derived_rows,
                stages: 1,
            }
        } else {
            Step::Fixpoint
        })
    }

    /// The map stage only reads the immutable previous state, and the state
    /// is rebuilt only after the stage succeeds, so a lost stage reruns its
    /// round.
    fn rewind(
        &mut self,
        _x: &FixpointExecutor<'_>,
        round: u32,
    ) -> Result<Option<(u32, String)>, EngineError> {
        Ok(Some((
            round - 1,
            format!("rerunning round {round} from the previous round's state"),
        )))
    }

    fn total_rows(&self) -> u64 {
        total_state_rows(&self.views)
    }
}

// --------------------------------------------------------------------
// Kernel rounds (§7.3)
// --------------------------------------------------------------------

/// The dense vertex state a CSR kernel runs on, plus what the plan fixes
/// for the whole run (an aggregate's merge operator and edge transform).
/// [`FixpointExecutor::run_kernel`] is generic over it, so each kernel's
/// merge-and-scan task is its own monomorphized loop.
trait DenseKernel: Send + Sync + 'static {
    /// A pending contribution to one dense vertex.
    type Item: Copy + Send + Sync + 'static;
    /// One partition's state.
    type State: Send + 'static;
    /// An empty state over `n` dense vertices.
    fn state(&self, n: usize) -> Self::State;
    /// The base row's contribution to dense vertex `d`; `None` when its
    /// value does not fit the kernel's scalar type.
    fn seed(&self, row: &Row, d: u32) -> Option<Self::Item>;
    /// Merge `pending` at round stamp `stamp` and take the fresh delta.
    fn merge(&self, st: &mut Self::State, pending: &[Self::Item], stamp: u32) -> Vec<Self::Item>;
    /// Propagate `delta` along the graph's out-edges into per-partition
    /// contributions.
    fn scan(&self, g: &CsrGraph, delta: &[Self::Item], out: &mut [Vec<Self::Item>]);
    /// Occupied vertices.
    fn len(st: &Self::State) -> usize;
    /// Heap footprint.
    fn size_bytes(st: &Self::State) -> u64;
    /// Forget every vertex.
    fn clear(st: &mut Self::State);
    /// Append the state's rows, in original vertex ids, to `rows`.
    fn emit(&self, st: &Self::State, csr: &CsrGraph, rows: &mut Vec<Row>);
}

/// Membership propagation (reachability).
struct SetKernel;

impl DenseKernel for SetKernel {
    type Item = u32;
    type State = DenseSetState;

    fn state(&self, n: usize) -> DenseSetState {
        DenseSetState::new(n)
    }
    fn seed(&self, _row: &Row, d: u32) -> Option<u32> {
        Some(d)
    }
    fn merge(&self, st: &mut DenseSetState, pending: &[u32], _stamp: u32) -> Vec<u32> {
        for &d in pending {
            st.insert(d);
        }
        st.take_delta()
    }
    fn scan(&self, g: &CsrGraph, delta: &[u32], out: &mut [Vec<u32>]) {
        scan_delta_set(g, delta, out);
    }
    fn len(st: &DenseSetState) -> usize {
        st.len()
    }
    fn size_bytes(st: &DenseSetState) -> u64 {
        st.size_bytes()
    }
    fn clear(st: &mut DenseSetState) {
        st.clear();
    }
    fn emit(&self, st: &DenseSetState, csr: &CsrGraph, rows: &mut Vec<Row>) {
        rows.extend(
            st.iter()
                .map(|d| Row::new(vec![Value::Int(csr.orig_id(d))])),
        );
    }
}

/// A monotone aggregate (`Op`) over slab scalar `T`, with the per-edge
/// transform resolved to `T`.
struct AggKernel<T, Op> {
    edge: EdgeOp<T>,
    /// Deltas carry totals rather than increments.
    totals: bool,
    key_col: usize,
    agg_col: usize,
    arity: usize,
    op: PhantomData<Op>,
}

impl<T: KernelScalarExt, Op: MergeOp<T>> AggKernel<T, Op> {
    /// `None` when the plan names no aggregate column (a planner bug, not a
    /// data mismatch — but falling back to the interpreter is strictly
    /// safer than panicking mid-query) or its additive literal is not a `T`.
    fn new(kp: &KernelPlan, arity: usize) -> Option<Self> {
        let edge = match &kp.edge_fn {
            KernelEdgeFn::Identity => EdgeOp::Identity,
            KernelEdgeFn::AddWeight => EdgeOp::AddWeight,
            KernelEdgeFn::AddConst(lit) => EdgeOp::AddConst(T::from_const(lit)?),
            KernelEdgeFn::MinWeight => EdgeOp::MinWeight,
        };
        Some(AggKernel {
            edge,
            totals: kp.totals_delta,
            key_col: kp.key_col,
            agg_col: kp.agg_col?,
            arity,
            op: PhantomData,
        })
    }
}

impl<T: KernelScalarExt, Op: MergeOp<T>> DenseKernel for AggKernel<T, Op> {
    type Item = (u32, T);
    type State = DenseAggState<T>;

    fn state(&self, n: usize) -> DenseAggState<T> {
        DenseAggState::new(n)
    }
    fn seed(&self, row: &Row, d: u32) -> Option<(u32, T)> {
        T::from_value(row.get(self.agg_col)).map(|val| (d, val))
    }
    fn merge(&self, st: &mut DenseAggState<T>, pending: &[(u32, T)], stamp: u32) -> Vec<(u32, T)> {
        for &(d, c) in pending {
            st.merge::<Op>(d, c, stamp);
        }
        st.take_delta(self.totals)
    }
    fn scan(&self, g: &CsrGraph, delta: &[(u32, T)], out: &mut [Vec<(u32, T)>]) {
        match self.edge {
            EdgeOp::Identity => scan_delta(g, delta, |val, _| val, out),
            EdgeOp::AddWeight => {
                let ws = T::weights(g);
                scan_delta(g, delta, |val, e| T::add(val, ws[e]), out);
            }
            EdgeOp::AddConst(c) => scan_delta(g, delta, |val, _| T::add(val, c), out),
            EdgeOp::MinWeight => {
                let ws = T::weights(g);
                scan_delta(
                    g,
                    delta,
                    |val, e| if T::lt(ws[e], val) { ws[e] } else { val },
                    out,
                );
            }
        }
    }
    fn len(st: &DenseAggState<T>) -> usize {
        st.len()
    }
    fn size_bytes(st: &DenseAggState<T>) -> u64 {
        st.size_bytes()
    }
    fn clear(st: &mut DenseAggState<T>) {
        st.clear();
    }
    fn emit(&self, st: &DenseAggState<T>, csr: &CsrGraph, rows: &mut Vec<Row>) {
        for (d, val) in st.iter() {
            let mut vals = vec![Value::Null; self.arity];
            vals[self.key_col] = Value::Int(csr.orig_id(d));
            vals[self.agg_col] = val.to_value();
            rows.push(Row::new(vals));
        }
    }
}

/// Kernel round state.
struct KernelRounds<K: DenseKernel> {
    kernel: Arc<K>,
    /// Per-partition dense state.
    slabs: Arc<Vec<RankedMutex<K::State>>>,
    graph: Arc<Broadcast<CsrGraph>>,
    /// The base items (round 0's contributions, kept for a rerun).
    base: Vec<Vec<K::Item>>,
    /// Contributions waiting for the next merge, per partition.
    pending: Vec<Vec<K::Item>>,
    /// What the governor's tracker holds for the slabs.
    gov_charge: u64,
}

impl<K: DenseKernel> RoundBody for KernelRounds<K> {
    fn round(
        &mut self,
        x: &FixpointExecutor<'_>,
        round: u32,
        shuffle: &mut Shuffle<'_>,
    ) -> Result<Step, Halt> {
        let p = x.config.partitions;
        let pending = std::mem::take(&mut self.pending);
        let (kernel, slabs) = (Arc::clone(&self.kernel), Arc::clone(&self.slabs));
        let graph = Arc::clone(&self.graph);
        // Each task returns the delta rows it consumed plus per-partition
        // contributions for the next round.
        let tasks = x.partition_tasks(move |part, w| {
            let mut slab = slabs[part].lock();
            let delta = kernel.merge(&mut slab, &pending[part], round - 1);
            drop(slab);
            let mut out = vec![Vec::new(); p];
            kernel.scan(graph.on_worker(w), &delta, &mut out);
            (delta.len() as u64, out)
        });
        let results = x
            .cluster
            .run_stage_traced(x.eval.trace, "fixpoint kernel", StageKind::Combined, tasks)
            .map_err(lost)?;
        if let Some(g) = x.eval.governor {
            // Dense slabs are the kernel's resident state: keep the
            // tracker's charge equal to their current footprint.
            let now: u64 = self.slabs.iter().map(|s| K::size_bytes(&s.lock())).sum();
            if now >= self.gov_charge {
                g.tracker().charge(now - self.gov_charge);
            } else {
                g.tracker().release(self.gov_charge - now);
            }
            self.gov_charge = now;
        }
        let delta_rows: u64 = results.iter().map(|(n, _)| *n).sum();
        if delta_rows == 0 {
            // Closing round: every partition merged an empty delta.
            return Ok(Step::Fixpoint);
        }
        self.pending = vec![Vec::new(); p];
        let item_bytes = std::mem::size_of::<K::Item>() as u64;
        for (src, (_, out)) in results.into_iter().enumerate() {
            for (dst, items) in out.into_iter().enumerate() {
                shuffle.send(src, dst, items, &mut self.pending[dst], |items| {
                    items.len() as u64 * item_bytes
                });
            }
        }
        Ok(Step::Delta {
            delta_rows,
            stages: 1,
        })
    }

    /// Dense slabs take no round-boundary snapshots, but the base items are
    /// immutable, so a lost stage wipes the state and restarts from round 0.
    fn rewind(
        &mut self,
        _x: &FixpointExecutor<'_>,
        _round: u32,
    ) -> Result<Option<(u32, String)>, EngineError> {
        for s in self.slabs.iter() {
            K::clear(&mut s.lock());
        }
        self.pending = self.base.clone();
        Ok(Some((
            0,
            "kernel state reset to empty; rerunning".to_string(),
        )))
    }

    fn total_rows(&self) -> u64 {
        self.slabs.iter().map(|s| K::len(&s.lock()) as u64).sum()
    }
}

/// Per-edge contribution transform, resolved to the slab scalar type so the
/// kernel's inner loop is free of `Value` dispatch.
#[derive(Clone, Copy)]
enum EdgeOp<T> {
    Identity,
    AddWeight,
    AddConst(T),
    MinWeight,
}

/// Slab-scalar plumbing private to the kernel runner: *strict* conversions
/// between [`Value`] and the slab type (any mismatch aborts the kernel and
/// falls back to the interpreter) plus access to the CSR weight slab.
trait KernelScalarExt: KernelValue {
    /// Convert a state value; `None` unless the value is exactly this type.
    fn from_value(v: &Value) -> Option<Self>;
    /// Convert an additive literal; `f64` also accepts `Int` (the promotion
    /// [`Value::add`] performs).
    fn from_const(v: &Value) -> Option<Self> {
        Self::from_value(v)
    }
    /// Convert back for materialization.
    fn to_value(self) -> Value;
    /// The CSR weight slab of this scalar type.
    fn weights(csr: &CsrGraph) -> &[Self];
}

impl KernelScalarExt for i64 {
    fn from_value(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
    fn to_value(self) -> Value {
        Value::Int(self)
    }
    fn weights(csr: &CsrGraph) -> &[i64] {
        &csr.weights_i
    }
}

impl KernelScalarExt for f64 {
    fn from_value(v: &Value) -> Option<f64> {
        match v {
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }
    fn from_const(v: &Value) -> Option<f64> {
        match v {
            Value::Double(d) => Some(*d),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
    fn to_value(self) -> Value {
        Value::Double(self)
    }
    fn weights(csr: &CsrGraph) -> &[f64] {
        &csr.weights_f
    }
}

/// Compile `prog`'s steps; `base(step, plan, stream_keys, build_keys,
/// first_join)` builds each base join's build side.
fn compile_ops(
    prog: &BranchProgram,
    mut base: impl FnMut(
        usize,
        &LogicalPlan,
        &[PExpr],
        &[usize],
        bool,
    ) -> Result<BuildSide, EngineError>,
) -> Result<CompiledBranch, EngineError> {
    let mut ops = Vec::with_capacity(prog.steps.len());
    let mut first_join = true;
    for (si, step) in prog.steps.iter().enumerate() {
        match step {
            BranchStep::Filter(e) => ops.push(CompiledOp::Filter(e.clone())),
            BranchStep::HashJoin {
                build,
                stream_keys,
                build_keys,
                ..
            } => {
                let build = match build {
                    JoinBuild::RecursiveAll { view, mode, .. } => BuildSide::Recursive {
                        view: *view,
                        mode: *mode,
                    },
                    JoinBuild::Base(plan) => base(si, plan, stream_keys, build_keys, first_join)?,
                };
                ops.push(CompiledOp::Join(CompiledStep {
                    build,
                    stream_keys: stream_keys.clone(),
                    build_keys: build_keys.clone(),
                }));
                first_join = false;
            }
        }
    }
    Ok(CompiledBranch::new(prog, ops))
}

// --------------------------------------------------------------------
// Map-side evaluation
// --------------------------------------------------------------------

/// Run all branch pipelines over one partition's deltas (`deltas[vi]` is
/// view `vi`'s); returns the delta rows consumed and the contributions
/// bucketed per (target view, target partition).
fn map_task(
    views: &[ViewRt],
    branches: &[CompiledBranch],
    deltas: &[DeltaBatch],
    snapshots: &[Option<Arc<HashTable>>],
    part: usize,
    worker: usize,
    fused: bool,
) -> (u64, Buckets) {
    let p = views[0].state.len();
    let mut buckets = empty_buckets(views.len(), p);
    let mut op_index = 0usize;
    for b in branches {
        let op_base = op_index;
        op_index += b.ops.len();
        let delta = &deltas[b.driver];
        if delta.is_empty() {
            continue;
        }
        let input = delta.reader_rows(b.driver_value_mode, &views[b.driver].agg_cols);
        let target = &views[b.target];
        let mut partial = Partial::new(target);
        run_branch(b, &input, snapshots, op_base, (part, worker), fused, |kv| {
            partial.add(target, kv);
        });
        partial.scatter(target, &mut buckets[b.target]);
    }
    let delta_rows = deltas.iter().map(|d| d.rows.len() as u64).sum();
    (delta_rows, buckets)
}

/// Execute one compiled branch over input rows on partition `part` of
/// worker `worker`, handing every keys-then-aggs contribution tuple for the
/// target view to `sink`. `part == usize::MAX` means "no co-partitioned
/// builds exist" (decomposed mode).
fn run_branch(
    b: &CompiledBranch,
    input: &[Row],
    snapshots: &[Option<Arc<HashTable>>],
    op_base: usize,
    (part, worker): (usize, usize),
    fused: bool,
    mut sink: impl FnMut(&[Value]),
) {
    // A leading sort-merge join (if any) is executed eagerly; the remaining
    // operators run as a (fused or unfused) pipeline.
    let mut current: Option<Vec<Row>> = None;
    let mut start = 0usize;
    for (i, op) in b.ops.iter().enumerate() {
        match op {
            CompiledOp::Filter(e) => {
                // Only pre-execute filters that precede a sort-merge join.
                if b.ops[i..].iter().any(|o| {
                    matches!(
                        o,
                        CompiledOp::Join(CompiledStep {
                            build: BuildSide::PartitionedSorted(_),
                            ..
                        })
                    )
                }) {
                    let rows = current.get_or_insert_with(|| input.to_vec());
                    rows.retain(|r| e.eval(r).is_truthy());
                    start = i + 1;
                } else {
                    break;
                }
            }
            CompiledOp::Join(CompiledStep {
                build: BuildSide::PartitionedSorted(runs),
                stream_keys,
                ..
            }) => {
                let probe_cols: Vec<usize> = stream_keys
                    .iter()
                    .map(|e| match e {
                        PExpr::Col(c) => *c,
                        _ => unreachable!("co-partitioned keys are plain columns"),
                    })
                    .collect();
                let mut probe = current.take().unwrap_or_else(|| input.to_vec());
                let mut out = Vec::new();
                merge_join(&mut probe, &probe_cols, &runs[part], |r| out.push(r));
                current = Some(out);
                start = i + 1;
            }
            CompiledOp::Join(_) => break,
        }
    }

    let mut steps: Vec<PipelineStep> = Vec::new();
    for (i, op) in b.ops.iter().enumerate().skip(start) {
        match op {
            CompiledOp::Filter(e) => {
                let e = e.clone();
                steps.push(PipelineStep::Filter(Arc::new(move |r: &Row| {
                    e.eval(r).is_truthy()
                })));
            }
            CompiledOp::Join(cs) => {
                let keys = cs.stream_keys.clone();
                let key: rasql_exec::pipeline::KeyFn =
                    Arc::new(move |r: &Row, k: &mut Vec<Value>| {
                        k.extend(keys.iter().map(|e| e.eval(r)));
                    });
                steps.push(match &cs.build {
                    BuildSide::Partitioned(tables) => PipelineStep::HashJoin {
                        table: Arc::clone(&tables[part]),
                        key,
                    },
                    BuildSide::PartitionedLayered(layers) => PipelineStep::HashJoinLayered {
                        tables: layers.iter().map(|l| Arc::clone(&l[part])).collect(),
                        key,
                    },
                    BuildSide::PartitionedSorted(_) => {
                        unreachable!("sorted joins executed eagerly above")
                    }
                    BuildSide::Replicated(bc) => PipelineStep::HashJoin {
                        table: Arc::clone(bc.on_worker(worker)),
                        key,
                    },
                    BuildSide::Recursive { .. } => PipelineStep::HashJoin {
                        table: Arc::clone(
                            snapshots[op_base + i]
                                .as_ref()
                                // lint: allow(RL0002, snapshot pass above fills every Recursive slot)
                                .expect("snapshot built for recursive build side"),
                        ),
                        key,
                    },
                });
            }
        }
    }
    let key_exprs = b.key_exprs.clone();
    let agg_exprs = b.agg_exprs.clone();
    let project: rasql_exec::pipeline::MapFn = Arc::new(move |r: &Row, out: &mut Vec<Value>| {
        out.extend(key_exprs.iter().chain(&agg_exprs).map(|e| e.eval(r)));
    });
    let pipeline = Pipeline::with_project(steps, project);
    let input_rows: &[Row] = current.as_deref().unwrap_or(input);
    if fused {
        run_fused_into(input_rows, &pipeline, sink);
    } else {
        for row in run_unfused(input_rows, &pipeline) {
            sink(row.values());
        }
    }
}

/// Drop every row equal to an earlier one, in place: set-UNION semantics in
/// first-seen order. One hash probe per row, and no row is cloned.
fn dedup_rows(rows: &mut Vec<Row>) {
    let keep: Vec<bool> = {
        let mut seen: FxHashSet<&Row> = FxHashSet::default();
        rows.iter().map(|r| seen.insert(r)).collect()
    };
    let mut i = 0;
    rows.retain(|_| {
        i += 1;
        keep[i - 1]
    });
}

fn assemble_row(key: &[Value], aggs: &[Value], key_cols: &[usize], agg_cols: &[usize]) -> Row {
    let arity = key_cols.len() + agg_cols.len();
    let mut vals = vec![Value::Null; arity];
    for (i, &c) in key_cols.iter().enumerate() {
        vals[c] = key[i].clone();
    }
    for (j, &c) in agg_cols.iter().enumerate() {
        vals[c] = aggs[j].clone();
    }
    Row::new(vals)
}

/// Map-side partial aggregation (Algorithm 5 line 5) / duplicate
/// elimination before the shuffle, fed keys-then-aggs tuples straight from
/// a branch's pipeline sink. Only a new group allocates; a distinct tuple
/// is built and inserted with one hash (probing first, to spare a
/// duplicate its allocation, was no faster on Same Generation). A
/// schema-shaped row is built once per group, when it leaves for the
/// shuffle.
enum Partial {
    /// Set views and distinct-tuple columns drop identical tuples only:
    /// distinct-tuple counts are deduplicated globally at the reducer, so
    /// locally tuples may be dropped (idempotent) but never merged.
    Distinct {
        rows: FxHashSet<Row>,
        scratch: Vec<Value>,
    },
    /// Aggregate views merge per group key.
    Groups(FxHashMap<Box<[Value]>, Box<[Value]>>),
}

impl Partial {
    fn new(target: &ViewRt) -> Self {
        if target.is_set() || target.modes.contains(&CountMode::DistinctTuple) {
            Partial::Distinct {
                rows: FxHashSet::default(),
                scratch: Vec::new(),
            }
        } else {
            Partial::Groups(FxHashMap::default())
        }
    }

    /// Fold in one keys-then-aggs contribution for `target`.
    fn add(&mut self, target: &ViewRt, kv: &[Value]) {
        match self {
            Partial::Distinct { rows, scratch } => {
                rows.insert(Row::new(target.schema_order(kv, scratch).to_vec()));
            }
            Partial::Groups(groups) => {
                let (key, vals) = kv.split_at(target.spec.key_cols.len());
                match groups.get_mut(key) {
                    Some(cur) => {
                        for ((cur, new), op) in cur.iter_mut().zip(vals).zip(&target.ops) {
                            op.merge(cur, new);
                        }
                    }
                    None => {
                        groups.insert(key.into(), vals.into());
                    }
                }
            }
        }
    }

    /// Send every schema-shaped contribution to its partition of `parts`.
    fn scatter(self, target: &ViewRt, parts: &mut [Vec<Row>]) {
        match self {
            Partial::Distinct { rows, .. } => target.scatter(rows, parts),
            Partial::Groups(groups) => target.scatter(
                groups.into_iter().map(|(key, vals)| {
                    assemble_row(&key, &vals, &target.spec.key_cols, &target.agg_cols)
                }),
                parts,
            ),
        }
    }
}

// --------------------------------------------------------------------
// Reduce-side merge
// --------------------------------------------------------------------

/// Merge every view's schema-shaped contributions into partition `part`;
/// returns the per-view delta batches (stamped `round`).
fn merge_partition(
    views: &[ViewRt],
    contributions: &Buckets,
    part: usize,
    round: u32,
) -> Vec<DeltaBatch> {
    views
        .iter()
        .zip(contributions)
        .map(|(v, c)| merge_into_state(v, &mut v.state[part].lock(), &c[part], round))
        .collect()
}

/// Merge schema-shaped contributions into one partition's state at stamp
/// `round`; returns the delta.
fn merge_into_state(v: &ViewRt, state: &mut ViewState, rows: &[Row], round: u32) -> DeltaBatch {
    let mut merge = Merge::begin(v, state, round);
    for row in rows {
        merge.row(row.values());
    }
    merge.finish()
}

/// One merge batch into one partition's state: every contribution merges
/// at stamp `round`, and [`Merge::finish`] returns the delta with each
/// changed row once, carrying its final totals. A contribution that
/// changes nothing allocates nothing.
struct Merge<'a> {
    v: &'a ViewRt,
    state: &'a mut ViewState,
    round: u32,
    delta: DeltaBatch,
    /// Keys of the aggregate groups changed in this batch, flattened in
    /// first-change order, and how many there are.
    changed: Vec<Value>,
    changed_groups: usize,
    /// Reused buffers: a contribution's key, its merge values, and a
    /// keys-then-aggs tuple reordered into schema order.
    key: Vec<Value>,
    vals: Vec<Value>,
    scratch: Vec<Value>,
}

impl<'a> Merge<'a> {
    fn begin(v: &'a ViewRt, state: &'a mut ViewState, round: u32) -> Self {
        if let ViewState::Agg(a) = state {
            a.begin_batch();
        }
        Merge {
            v,
            state,
            round,
            delta: DeltaBatch::default(),
            changed: Vec::new(),
            changed_groups: 0,
            key: Vec::new(),
            vals: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Merge one keys-then-aggs tuple straight from a pipeline sink.
    fn contribution(&mut self, kv: &[Value]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.row(self.v.schema_order(kv, &mut scratch));
        self.scratch = scratch;
    }

    /// Merge one schema-shaped row.
    fn row(&mut self, row: &[Value]) {
        let v = self.v;
        let a = match self.state {
            ViewState::Set(s) => {
                if s.insert_values(row, self.round) {
                    self.delta.rows.push(Row::new(row.to_vec()));
                }
                return;
            }
            ViewState::Agg(a) => a,
        };
        let key = v.key_of(row, &mut self.key);
        // Distinct-tuple columns count each contributing tuple once:
        // `count` contributes 1 and `sum` its value, deduplicated on the
        // whole tuple.
        let mut dedup = false;
        self.vals.clear();
        for (j, &c) in v.agg_cols.iter().enumerate() {
            let distinct = v.modes[j] == CountMode::DistinctTuple;
            match v.funcs[j] {
                AggFunc::Count if distinct => {
                    dedup = true;
                    self.vals.push(Value::Int(1));
                }
                AggFunc::Sum if distinct => {
                    dedup = true;
                    self.vals.push(row[c].clone());
                }
                _ => self.vals.push(row[c].clone()),
            }
        }
        let res = a.merge(key, &self.vals, &v.ops, self.round, dedup.then_some(row));
        if let AggMergeResult::Changed {
            first_in_batch: true,
        } = res
        {
            self.changed.extend_from_slice(key);
            self.changed_groups += 1;
        }
    }

    /// The batch's delta: for aggregates, one row per changed group with
    /// its final totals, plus the increments when a column sums.
    fn finish(self) -> DeltaBatch {
        let (v, mut delta) = (self.v, self.delta);
        let ViewState::Agg(a) = self.state else {
            return delta;
        };
        let k = v.spec.key_cols.len();
        let sums = v.ops.contains(&MonotoneOp::Sum);
        delta.rows.reserve(self.changed_groups);
        for g in 0..self.changed_groups {
            let key = &self.changed[g * k..(g + 1) * k];
            let Some(totals) = a.get(key) else {
                continue;
            };
            if sums {
                let prev = a.get_before(key, self.round);
                delta
                    .increments
                    .extend(v.ops.iter().enumerate().map(|(j, op)| match (op, prev) {
                        (MonotoneOp::Sum, Some(p)) => totals[j].sub(&p[j]),
                        _ => totals[j].clone(),
                    }));
            }
            delta
                .rows
                .push(assemble_row(key, totals, &v.spec.key_cols, &v.agg_cols));
        }
        delta
    }
}

/// Freshly-allocated empty contribution buckets (`nv` views × `p` partitions).
fn empty_buckets(nv: usize, p: usize) -> Buckets {
    (0..nv)
        .map(|_| (0..p).map(|_| Vec::new()).collect())
        .collect()
}

/// Estimated heap footprint of pending contribution buckets (per-row payload
/// plus container overhead — the same estimate the shuffle exchange uses).
fn buckets_bytes(buckets: &Buckets) -> u64 {
    buckets
        .iter()
        .flatten()
        .flatten()
        .map(|r| r.size_bytes() as u64 + 16)
        .sum()
}

/// Estimated heap footprint of every partition's fixpoint state.
fn state_size_bytes(views: &[ViewRt]) -> u64 {
    views
        .iter()
        .flat_map(|v| v.state.iter())
        .map(|cell| cell.lock().size_bytes())
        .sum()
}

/// The clique's view names, in clique order.
fn view_names(views: &[ViewRt]) -> Vec<String> {
    views.iter().map(|v| v.spec.name.clone()).collect()
}

/// Every partition's state as the clique's result relations.
fn materialize(views: &[ViewRt], iterations: u32) -> FixpointResult {
    let views = views
        .iter()
        .map(|v| {
            let mut rows = Vec::new();
            for part in &v.state {
                rows.extend(state_rows(v, &part.lock()));
            }
            Relation::new_unchecked(v.spec.schema.clone(), rows)
        })
        .collect();
    FixpointResult { views, iterations }
}

/// Fetch a checkpoint entry that must exist (it was captured this run).
fn checkpoint_entry(store: &CheckpointStore, key: &str) -> Result<Bytes, EngineError> {
    store.get(key)?.ok_or_else(|| {
        EngineError::Other(format!("checkpoint entry '{key}' missing from the store"))
    })
}

/// Total rows across every partition of every view in the clique.
fn total_state_rows(views: &[ViewRt]) -> u64 {
    views
        .iter()
        .map(|v| v.state.iter().map(|m| m.lock().len() as u64).sum::<u64>())
        .sum()
}

fn state_rows(v: &ViewRt, state: &ViewState) -> Vec<Row> {
    match state {
        ViewState::Set(s) => s.iter().cloned().collect(),
        ViewState::Agg(a) => a
            .iter()
            .map(|(k, e)| assemble_row(k, &e.values, &v.spec.key_cols, &v.agg_cols))
            .collect(),
    }
}

/// The tables `plan` reads, lower-cased, sorted and deduplicated.
fn plan_tables(plan: &LogicalPlan) -> Vec<String> {
    let mut tabs: Vec<String> = Vec::new();
    plan.referenced_tables(&mut tabs);
    for t in &mut tabs {
        t.make_ascii_lowercase();
    }
    tabs.sort();
    tabs.dedup();
    tabs
}

/// Partition `rows` on `keys` and hash each partition.
fn hash_parts(rows: Vec<Row>, keys: &[usize], p: usize) -> Vec<Arc<HashTable>> {
    rasql_storage::partition_rows(rows, keys, p)
        .into_iter()
        .map(|rows| Arc::new(HashTable::build(&rows, keys)))
        .collect()
}

fn stream_keys_match(stream_keys: &[PExpr], partition_key: &[usize]) -> bool {
    stream_keys.len() == partition_key.len()
        && stream_keys
            .iter()
            .zip(partition_key)
            .all(|(e, &c)| *e == PExpr::Col(c))
}
