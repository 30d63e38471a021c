//! Version-keyed caches: ad-hoc query results and built CSR kernel graphs.
//!
//! Both caches key on [`plan_cache_key`]: a *structural* identity (the
//! literal-exact rendering of every plan the cached value was computed
//! from) plus a *data* identity (the `(version, rewrite_version)` pairs of
//! every base table those plans read). Because the data identity is part of
//! the key, a stale entry can never be served — invalidation sweeps exist to
//! bound memory and to feed the `cache_invalidations` counter, not for
//! correctness.

use rasql_plan::{BranchProgram, BranchStep, FixpointSpec, JoinBuild, LogicalPlan, ViewSpec};
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{Catalog, CsrGraph, Relation, Row, Value};
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Arc;

/// Render a table-version fingerprint: the sorted `(table, version,
/// rewrite_version)` triples of `tables` as seen by `catalog` right now.
/// Tables missing from the catalog fingerprint as `?` (the entry then simply
/// never matches a later lookup).
fn version_fingerprint(catalog: &Catalog, tables: &[String]) -> String {
    let mut names: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
    names.sort();
    names.dedup();
    let mut out = String::new();
    for name in &names {
        match catalog.version_of(name) {
            Some(v) => {
                out.push_str(&format!("{name}:{}:{};", v.version, v.rewrite_version));
            }
            None => out.push_str(&format!("{name}:?;")),
        }
    }
    out
}

/// A cache key plus the lower-cased base tables it depends on (the
/// invalidation-sweep index).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// The key text.
    pub key: String,
    /// Sorted, deduplicated lower-case names of every base table read.
    pub deps: Vec<String>,
}

/// The one key builder both caches use. The key is the literal-exact
/// rendering of the `cliques` and `plans` (every literal with its type, and
/// `Values` nodes by their rows, not by `display_indent`'s `Values (1
/// rows)`), then `params`, then the version fingerprint of every base table
/// any of them reads.
///
/// A `ViewScan` of a view that none of `cliques` defines reads state the
/// key cannot describe (a lower clique evaluated earlier in the same
/// query), so such plans get no key: the caller must bypass the cache.
pub(crate) fn plan_cache_key(
    catalog: &Catalog,
    cliques: &[FixpointSpec],
    plans: &[&LogicalPlan],
    params: &str,
) -> Option<PlanKey> {
    let mut w = KeyWriter {
        bound: cliques
            .iter()
            .flat_map(|c| c.views.iter().map(|v| v.name.as_str()))
            .collect(),
        key: String::new(),
        tables: Vec::new(),
    };
    for clique in cliques {
        for view in &clique.views {
            w.view(view)?;
        }
    }
    for plan in plans {
        w.plan(plan)?;
    }
    let KeyWriter {
        mut key, tables, ..
    } = w;
    let mut deps: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
    deps.sort();
    deps.dedup();
    let _ = write!(key, "|{params}|");
    key.push_str(&version_fingerprint(catalog, &deps));
    Some(PlanKey { key, deps })
}

/// Accumulates a key's text and the base tables it reads. Each render
/// method returns `None` on a `ViewScan` of a view outside `bound`.
struct KeyWriter<'a> {
    bound: Vec<&'a str>,
    key: String,
    tables: Vec<String>,
}

impl KeyWriter<'_> {
    fn view(&mut self, view: &ViewSpec) -> Option<()> {
        let ViewSpec {
            name,
            schema,
            key_cols,
            aggs,
            base,
            recursive,
            // Source positions, and verdicts derived from the fields above.
            name_span: _,
            prem: _,
            certificate: _,
        } = view;
        let _ = write!(self.key, "view {name} {schema:?} {key_cols:?} {aggs:?}(");
        for plan in base {
            self.plan(plan)?;
        }
        for prog in recursive {
            self.branch(prog)?;
        }
        self.key.push(')');
        Some(())
    }

    fn branch(&mut self, prog: &BranchProgram) -> Option<()> {
        let BranchProgram {
            driver,
            driver_value_mode,
            steps,
            target,
            key_exprs,
            agg_exprs,
            count_modes,
            combined_arity,
            span: _,
        } = prog;
        let _ = write!(
            self.key,
            "branch {driver} {driver_value_mode:?} {target} {key_exprs:?} \
             {agg_exprs:?} {count_modes:?} {combined_arity}("
        );
        for step in steps {
            match step {
                BranchStep::HashJoin {
                    build: JoinBuild::Base(plan),
                    stream_keys,
                    build_keys,
                    build_arity,
                } => {
                    let _ = write!(
                        self.key,
                        "join {stream_keys:?} {build_keys:?} {build_arity} "
                    );
                    self.plan(plan)?;
                }
                other => {
                    let _ = write!(self.key, "{other:?};");
                }
            }
        }
        self.key.push(')');
        Some(())
    }

    /// Render one plan node (its literals via `Value`'s exact `Debug`),
    /// then its children.
    fn plan(&mut self, plan: &LogicalPlan) -> Option<()> {
        let k = &mut self.key;
        let _ = match plan {
            LogicalPlan::TableScan { table, schema } => {
                self.tables.push(table.clone());
                write!(k, "scan {table} {schema:?}")
            }
            LogicalPlan::ViewScan { view, schema } => {
                if !self.bound.iter().any(|b| b.eq_ignore_ascii_case(view)) {
                    return None;
                }
                write!(k, "view {view} {schema:?}")
            }
            LogicalPlan::Values { schema, rows } => {
                let rows: Vec<&[Value]> = rows.iter().map(Row::values).collect();
                write!(k, "values {schema:?} {rows:?}")
            }
            LogicalPlan::Projection { exprs, schema, .. } => {
                write!(k, "project {exprs:?} {schema:?}")
            }
            LogicalPlan::Filter { predicate, .. } => write!(k, "filter {predicate:?}"),
            LogicalPlan::Join {
                left_keys,
                right_keys,
                residual,
                schema,
                ..
            } => write!(
                k,
                "join {left_keys:?} {right_keys:?} {residual:?} {schema:?}"
            ),
            LogicalPlan::Aggregate {
                group_cols,
                aggs,
                schema,
                ..
            } => write!(k, "aggregate {group_cols} {aggs:?} {schema:?}"),
            LogicalPlan::Union { schema, .. } => write!(k, "union {schema:?}"),
            LogicalPlan::Distinct { .. } => write!(k, "distinct"),
            LogicalPlan::Sort { keys, .. } => write!(k, "sort {keys:?}"),
            LogicalPlan::Limit { n, .. } => write!(k, "limit {n}"),
        };
        self.key.push('(');
        for child in plan.children() {
            self.plan(child)?;
        }
        self.key.push(')');
        Some(())
    }
}

/// One cached ad-hoc query result: the materialized relation plus the
/// per-clique iteration counts its statistics reported.
#[derive(Clone)]
pub struct CachedQuery {
    /// The result relation.
    pub relation: Relation,
    /// Fixpoint iterations per clique, as originally executed.
    pub iterations: Vec<u32>,
}

struct Entry<T> {
    key: String,
    /// Lower-cased base tables the entry depends on (for invalidation sweeps).
    deps: Vec<String>,
    value: T,
}

/// A bounded FIFO cache keyed by plan text + version fingerprint.
struct VersionedCache<T> {
    entries: RankedMutex<VecDeque<Entry<T>>>,
    capacity: usize,
}

impl<T: Clone> VersionedCache<T> {
    fn new(rank: LockRank, capacity: usize) -> Self {
        VersionedCache {
            entries: RankedMutex::new(rank, VecDeque::new()),
            capacity,
        }
    }

    fn get(&self, key: &str) -> Option<T> {
        self.entries
            .lock()
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.value.clone())
    }

    fn put(&self, key: String, deps: Vec<String>, value: T) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock();
        if entries.iter().any(|e| e.key == key) {
            return;
        }
        while entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(Entry { key, deps, value });
    }

    /// Drop every entry depending on `table`; returns how many were dropped.
    fn invalidate(&self, table: &str) -> u64 {
        let needle = table.to_ascii_lowercase();
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|e| !e.deps.contains(&needle));
        (before - entries.len()) as u64
    }

    fn clear(&self) -> u64 {
        let mut entries = self.entries.lock();
        let n = entries.len() as u64;
        entries.clear();
        n
    }
}

/// The version-keyed result cache for ad-hoc queries (see
/// [`crate::EngineConfig::result_cache_entries`]).
pub struct ResultCache {
    inner: VersionedCache<CachedQuery>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables it).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: VersionedCache::new(LockRank::ResultCache, capacity),
        }
    }

    /// True when the cache can never hold anything.
    pub fn disabled(&self) -> bool {
        self.inner.capacity == 0
    }

    /// Look up a cached result.
    pub fn get(&self, key: &str) -> Option<CachedQuery> {
        self.inner.get(key)
    }

    /// Insert a result (no-op when the key is already present or capacity
    /// is 0).
    pub fn put(&self, key: String, deps: Vec<String>, value: CachedQuery) {
        self.inner.put(key, deps, value);
    }

    /// Drop entries reading `table`; returns how many were dropped.
    pub fn invalidate(&self, table: &str) -> u64 {
        self.inner.invalidate(table)
    }

    /// Drop everything; returns how many entries were dropped.
    pub fn clear(&self) -> u64 {
        self.inner.clear()
    }
}

/// One cached kernel clique set-up: the built CSR graph and the clique's
/// deduplicated base rows (its seeds). The graph's dense vertex ids depend
/// on the seeds, so the two are only valid together.
pub struct CachedCsr {
    /// The built graph.
    pub graph: Arc<CsrGraph>,
    /// The base branches' rows, set-UNIONed in first-seen order.
    pub seeds: Vec<Row>,
}

/// A cache of kernel clique set-ups, keyed by [`plan_cache_key`] over the
/// base plans and the edge build plan plus the kernel's column, weight and
/// partition parameters — so a repeated kernel query (or an
/// incremental-view refresh racing ad-hoc reads) skips the base scan, the
/// seed dedup, the edge scan and the CSR construction.
pub struct CsrCache {
    inner: VersionedCache<Arc<CachedCsr>>,
}

/// CSR graphs are large; a handful of distinct graph queries in flight is
/// the realistic working set.
const CSR_CACHE_CAPACITY: usize = 8;

impl CsrCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        CsrCache {
            inner: VersionedCache::new(LockRank::CsrCache, CSR_CACHE_CAPACITY),
        }
    }

    /// Look up a cached set-up.
    pub fn get(&self, key: &str) -> Option<Arc<CachedCsr>> {
        self.inner.get(key)
    }

    /// Insert a set-up.
    pub fn put(&self, key: String, deps: Vec<String>, entry: Arc<CachedCsr>) {
        self.inner.put(key, deps, entry);
    }

    /// Drop entries built from `table`; returns how many were dropped.
    pub fn invalidate(&self, table: &str) -> u64 {
        self.inner.invalidate(table)
    }
}

impl Default for CsrCache {
    fn default() -> Self {
        CsrCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_plan::expr::BinaryOp;
    use rasql_plan::PExpr;
    use rasql_storage::row::int_row;
    use rasql_storage::{DataType, Schema};

    fn rel() -> Relation {
        Relation::edges(&[(1, 2)])
    }

    #[test]
    fn fifo_eviction_and_dedup() {
        let c = ResultCache::new(2);
        let q = CachedQuery {
            relation: rel(),
            iterations: vec![1],
        };
        c.put("a".into(), vec!["t".into()], q.clone());
        c.put("a".into(), vec!["t".into()], q.clone());
        c.put("b".into(), vec!["t".into()], q.clone());
        assert!(c.get("a").is_some());
        c.put("c".into(), vec!["u".into()], q);
        assert!(c.get("a").is_none(), "oldest entry evicted");
        assert!(c.get("b").is_some() && c.get("c").is_some());
    }

    #[test]
    fn invalidation_is_per_table() {
        let c = ResultCache::new(4);
        let q = CachedQuery {
            relation: rel(),
            iterations: vec![],
        };
        c.put("a".into(), vec!["edge".into()], q.clone());
        c.put("b".into(), vec!["other".into()], q);
        assert_eq!(c.invalidate("EDGE"), 1);
        assert!(c.get("a").is_none());
        assert!(c.get("b").is_some());
        assert_eq!(c.clear(), 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let c = ResultCache::new(0);
        assert!(c.disabled());
        c.put(
            "a".into(),
            vec![],
            CachedQuery {
                relation: rel(),
                iterations: vec![],
            },
        );
        assert!(c.get("a").is_none());
    }

    fn values(v: Value) -> LogicalPlan {
        LogicalPlan::Values {
            schema: Schema::new(vec![("x", DataType::Int)]),
            rows: vec![Row::new(vec![v])],
        }
    }

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: table.into(),
            schema: rel().schema().clone(),
        }
    }

    fn key(cat: &Catalog, plans: &[&LogicalPlan]) -> Option<PlanKey> {
        plan_cache_key(cat, &[], plans, "")
    }

    #[test]
    fn plans_differing_only_in_a_literal_get_different_keys() {
        let cat = Catalog::new();
        cat.register("t", rel()).unwrap();
        let (one, five) = (values(Value::Int(1)), values(Value::Int(5)));
        assert_eq!(one.display_indent(), five.display_indent());
        let k1 = key(&cat, &[&one]).unwrap();
        assert_ne!(k1, key(&cat, &[&five]).unwrap());
        assert_ne!(k1, key(&cat, &[&values(Value::Double(1.0))]).unwrap());
        assert_eq!(k1, key(&cat, &[&values(Value::Int(1))]).unwrap());

        let filter = |lit: i64| LogicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: PExpr::Binary {
                left: Box::new(PExpr::Col(0)),
                op: BinaryOp::Eq,
                right: Box::new(PExpr::Lit(Value::Int(lit))),
            },
        };
        let k = key(&cat, &[&filter(1)]).unwrap();
        assert_ne!(k, key(&cat, &[&filter(2)]).unwrap());
        assert_eq!(k.deps, vec!["t".to_string()]);
        cat.insert_rows("t", vec![int_row(&[3, 4])]).unwrap();
        assert_ne!(k, key(&cat, &[&filter(1)]).unwrap(), "versions are keyed");
    }

    #[test]
    fn plans_reading_an_undefined_view_get_no_key() {
        let cat = Catalog::new();
        cat.register("t", rel()).unwrap();
        let view = LogicalPlan::ViewScan {
            view: "hop".into(),
            schema: rel().schema().clone(),
        };
        let join = LogicalPlan::Join {
            left: Box::new(scan("t")),
            right: Box::new(view.clone()),
            left_keys: vec![1],
            right_keys: vec![0],
            residual: None,
            schema: Schema::new(vec![
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Int),
                ("d", DataType::Int),
            ]),
        };
        assert!(key(&cat, &[&view]).is_none());
        assert!(key(&cat, &[&scan("t"), &join]).is_none());
        assert!(key(&cat, &[&scan("t")]).is_some());
    }

    #[test]
    fn fingerprint_tracks_versions() {
        let cat = Catalog::new();
        cat.register("t", rel()).unwrap();
        let tables = vec!["T".to_string(), "t".to_string()];
        let f0 = version_fingerprint(&cat, &tables);
        cat.insert_rows("t", vec![int_row(&[3, 4])]).unwrap();
        let f1 = version_fingerprint(&cat, &tables);
        assert_ne!(f0, f1);
        assert!(version_fingerprint(&cat, &["missing".into()]).contains('?'));
    }
}
