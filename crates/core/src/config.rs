//! Engine configuration: every optimization axis of the paper, toggleable for
//! the ablation benchmarks.

use rasql_exec::FaultSpec;

/// Naive vs. semi-naive fixpoint evaluation (§6, Algorithms 2 vs 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Delta-driven semi-naive evaluation (the default).
    SemiNaive,
    /// Naive evaluation: every iteration re-derives from the full relations
    /// (the Spark-SQL-Naive baseline of Fig 10).
    Naive,
}

/// Distributed join strategy for the recursive join (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Build a cached hash table on the base side, probe with the delta.
    ShuffleHash,
    /// Keep the base side as a cached sorted run; sort the delta and merge.
    SortMerge,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated worker (thread) count.
    pub workers: usize,
    /// Partition count (defaults to `workers`).
    pub partitions: usize,
    /// Fixpoint evaluation mode.
    pub eval_mode: EvalMode,
    /// Fuse Reduce(i) with Map(i+1) into one ShuffleMap stage (§7.1).
    pub stage_combination: bool,
    /// Partition-aware task scheduling (§6.1).
    pub partition_aware: bool,
    /// Fused operator pipelines — the whole-stage-codegen analog (§7.3).
    pub fused_codegen: bool,
    /// Join strategy for the recursive join (Appendix D).
    pub join: JoinStrategy,
    /// Evaluate decomposable plans with broadcast bases and per-partition
    /// local fixpoints (§7.2).
    pub decomposed_plans: bool,
    /// Broadcast the compressed relation and rebuild hash tables on workers,
    /// instead of shipping the (2-3x larger) prebuilt hash table (§7.2).
    pub broadcast_compression: bool,
    /// Select monomorphized fixpoint kernels (CSR broadcast graph + dense
    /// vertex state) when the plan shape and the verifier's Proven-PreM
    /// verdict allow it — the whole-stage-codegen fast path for the inner
    /// loop (§7.3). Any unprovable shape falls back to the interpreter.
    pub specialized_kernels: bool,
    /// Iteration cap: the most fixpoint rounds that may produce a delta (the
    /// empty closing round that detects the fixpoint does not count). A
    /// clique still producing deltas after that many rounds fails with
    /// [`crate::EngineError::NonTermination`].
    pub max_iterations: u32,
    /// Simulated per-stage scheduler latency in microseconds (see
    /// `rasql_exec::cluster::ClusterConfig::stage_latency`). A property of
    /// the simulated cluster, identical across engine presets.
    pub stage_latency_us: u64,
    /// Collect a [`rasql_exec::QueryTrace`] for every query: per-iteration
    /// fixpoint counters, stage spans, and operator rows/bytes. Off by
    /// default; `EXPLAIN ANALYZE` forces it on for that statement.
    pub tracing: bool,
    /// Deterministic fault injection for the simulated cluster; `None` (the
    /// default) disables all failure paths.
    pub fault_spec: Option<FaultSpec>,
    /// Retry budget for injected task failures (attempts = 1 + retries).
    pub max_task_retries: u32,
    /// Checkpoint the fixpoint's per-partition state every K rounds (plus an
    /// initial round-0 capture). Any K > 0 also turns on recovery from a
    /// lost fixpoint stage in every mode: semi-naive restores its last
    /// checkpoint, naive reruns the round, and decomposed evaluation and the
    /// specialized kernels reset their state and rerun. 0 disables both, so
    /// an unrecoverable stage failure fails the query.
    pub checkpoint_interval: u32,
    /// Per-query memory budget in bytes; 0 (the default) is unlimited. Over
    /// budget, shuffle gather buffers and fixpoint state spill to disk; an
    /// allocation that cannot fit even after spilling fails the query with
    /// `MemoryExceeded`.
    pub memory_budget: u64,
    /// Per-query deadline in milliseconds; 0 (the default) is no deadline.
    /// Checked cooperatively at stage and fixpoint-round boundaries; a
    /// missed deadline fails the query with `DeadlineExceeded`.
    pub query_timeout_ms: u64,
    /// Maximum queries executing concurrently on one context; 0 (the
    /// default) is unlimited. Excess queries wait in a bounded queue.
    pub max_concurrent_queries: usize,
    /// Wait-queue capacity of the admission controller (only meaningful with
    /// `max_concurrent_queries > 0`); queries beyond it are rejected
    /// immediately with `AdmissionRejected`.
    pub admission_queue: usize,
    /// Capacity (entries) of the version-keyed result cache for ad-hoc
    /// queries; 0 (the default) disables caching. A repeated identical query
    /// against unchanged base relations is served from cache (FIFO eviction);
    /// any base-table mutation invalidates the affected entries.
    pub result_cache_entries: usize,
    /// Durability directory: when set, the context recovers catalog and
    /// materialized-view state from `snapshot.bin` + `wal.log` on startup
    /// and journals every mutation. `None` (the default) keeps everything
    /// in memory, exactly as before.
    pub data_dir: Option<std::path::PathBuf>,
    /// Publish a compacting snapshot (and truncate the log) every N journal
    /// records; 0 disables automatic compaction (snapshots still happen at
    /// startup and via explicit flush).
    pub snapshot_every: u64,
    /// Deterministic crashpoint injection for the durability layer
    /// (`storage::crashpoint`); `None` disables it. Test-only knob driven by
    /// the `reproduce crash-soak` gate.
    pub crash_spec: Option<rasql_storage::CrashSpec>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::rasql()
    }
}

impl EngineConfig {
    /// The fully-optimized RaSQL configuration used in the paper's
    /// experiments (§8: shuffle-hash join, optimized DSN with stage
    /// combination and code generation).
    pub fn rasql() -> Self {
        EngineConfig {
            workers: default_workers(),
            partitions: default_workers(),
            eval_mode: EvalMode::SemiNaive,
            stage_combination: true,
            partition_aware: true,
            fused_codegen: true,
            join: JoinStrategy::ShuffleHash,
            decomposed_plans: true,
            broadcast_compression: true,
            specialized_kernels: true,
            max_iterations: 100_000,
            stage_latency_us: 2_000,
            tracing: false,
            fault_spec: None,
            max_task_retries: 3,
            checkpoint_interval: 0,
            memory_budget: 0,
            query_timeout_ms: 0,
            max_concurrent_queries: 0,
            admission_queue: 16,
            result_cache_entries: 0,
            data_dir: None,
            snapshot_every: 256,
            crash_spec: None,
        }
    }

    /// The BigDatalog stand-in: SetRDD-style cached state (always on here)
    /// but none of RaSQL's new optimizations — no stage combination, no fused
    /// code generation, no broadcast compression. See DESIGN.md.
    pub fn bigdatalog_like() -> Self {
        EngineConfig {
            stage_combination: false,
            fused_codegen: false,
            broadcast_compression: false,
            specialized_kernels: false,
            ..EngineConfig::rasql()
        }
    }

    /// The Spark-SQL-SN baseline of Fig 10: semi-naive behavior *simulated*
    /// as a loop of SQL statements — no partition-aware scheduling, no stage
    /// combination, no mutable state reuse benefits modeled by locality.
    pub fn spark_sql_sn() -> Self {
        EngineConfig {
            stage_combination: false,
            partition_aware: false,
            fused_codegen: false,
            decomposed_plans: false,
            broadcast_compression: false,
            specialized_kernels: false,
            ..EngineConfig::rasql()
        }
    }

    /// The Spark-SQL-Naive baseline of Fig 10.
    pub fn spark_sql_naive() -> Self {
        EngineConfig {
            eval_mode: EvalMode::Naive,
            ..EngineConfig::spark_sql_sn()
        }
    }

    /// Set worker (and partition) count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.partitions = self.workers;
        self
    }

    /// Toggle stage combination.
    pub fn with_stage_combination(mut self, on: bool) -> Self {
        self.stage_combination = on;
        self
    }

    /// Toggle fused code generation.
    pub fn with_fused_codegen(mut self, on: bool) -> Self {
        self.fused_codegen = on;
        self
    }

    /// Select the join strategy.
    pub fn with_join(mut self, join: JoinStrategy) -> Self {
        self.join = join;
        self
    }

    /// Toggle decomposed-plan evaluation.
    pub fn with_decomposed(mut self, on: bool) -> Self {
        self.decomposed_plans = on;
        self
    }

    /// Toggle broadcast compression.
    pub fn with_broadcast_compression(mut self, on: bool) -> Self {
        self.broadcast_compression = on;
        self
    }

    /// Toggle specialized fixpoint kernels.
    pub fn with_specialized_kernels(mut self, on: bool) -> Self {
        self.specialized_kernels = on;
        self
    }

    /// Set the iteration cap.
    pub fn with_max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = n;
        self
    }

    /// Set the simulated per-stage scheduler latency (µs); 0 disables it.
    pub fn with_stage_latency_us(mut self, us: u64) -> Self {
        self.stage_latency_us = us;
        self
    }

    /// Toggle query tracing (see [`EngineConfig::tracing`]).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable deterministic fault injection (`None` disables it).
    pub fn with_faults(mut self, spec: Option<FaultSpec>) -> Self {
        self.fault_spec = spec;
        self
    }

    /// Set the retry budget for injected task failures.
    pub fn with_max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Checkpoint fixpoint state every `k` rounds (0 disables).
    pub fn with_checkpoint_interval(mut self, k: u32) -> Self {
        self.checkpoint_interval = k;
        self
    }

    /// Set the per-query memory budget in bytes (0 = unlimited).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Set the per-query deadline in milliseconds (0 = none).
    pub fn with_query_timeout_ms(mut self, ms: u64) -> Self {
        self.query_timeout_ms = ms;
        self
    }

    /// Cap concurrent queries on the context (0 = unlimited).
    pub fn with_max_concurrent_queries(mut self, n: usize) -> Self {
        self.max_concurrent_queries = n;
        self
    }

    /// Set the admission wait-queue capacity.
    pub fn with_admission_queue(mut self, n: usize) -> Self {
        self.admission_queue = n;
        self
    }

    /// Set the result-cache capacity in entries (0 disables caching).
    pub fn with_result_cache(mut self, entries: usize) -> Self {
        self.result_cache_entries = entries;
        self
    }

    /// Persist catalog and view state under `dir` (WAL + snapshots) and
    /// recover from it on startup.
    pub fn with_data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Snapshot/compact the journal every `n` records (0 disables).
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Arm deterministic crashpoint injection in the durability layer.
    pub fn with_crash_spec(mut self, spec: Option<rasql_storage::CrashSpec>) -> Self {
        self.crash_spec = spec;
        self
    }
}

fn default_workers() -> usize {
    // At least 2 simulated workers even on a single-core host: the engine's
    // stage/shuffle/locality behavior (what the paper's ablations measure)
    // needs multiple partitions to be meaningful.
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_on_the_right_axes() {
        let rasql = EngineConfig::rasql();
        let bd = EngineConfig::bigdatalog_like();
        assert!(rasql.stage_combination && !bd.stage_combination);
        assert!(rasql.fused_codegen && !bd.fused_codegen);
        assert!(rasql.specialized_kernels && !bd.specialized_kernels);
        assert_eq!(rasql.eval_mode, bd.eval_mode);
        let naive = EngineConfig::spark_sql_naive();
        assert_eq!(naive.eval_mode, EvalMode::Naive);
        assert!(!naive.partition_aware);
    }

    #[test]
    fn builder_methods() {
        let c = EngineConfig::rasql()
            .with_workers(3)
            .with_stage_combination(false)
            .with_join(JoinStrategy::SortMerge)
            .with_max_iterations(7);
        assert_eq!(c.workers, 3);
        assert_eq!(c.partitions, 3);
        assert!(!c.stage_combination);
        assert_eq!(c.join, JoinStrategy::SortMerge);
        assert_eq!(c.max_iterations, 7);
    }
}
