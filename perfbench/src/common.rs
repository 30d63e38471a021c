//! Pieces every workload shares: the pinned engine policy, the seeded
//! statement deck, the closed loop, result comparison, and the
//! run-local scratch directory.

use rasql_core::{EngineConfig, RaSqlContext};
use rasql_storage::{Row, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Simulated per-stage scheduler sleep. Pinned to zero on every context the
/// benchmark builds so that only real work is measured.
pub const STAGE_LATENCY_US: u64 = 0;

/// Publish a compacting snapshot every this many WAL records (the engine's
/// default, pinned here so a default change cannot move the benchmark).
pub const SNAPSHOT_EVERY: u64 = 256;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// A timed phase runs for the requested seconds and at least this many
/// statements: one full window, so that `latency_p95_ms` always has 10
/// samples beyond it.
pub const MIN_SAMPLES: usize = crate::stats::WINDOW_MIN;

/// The engine configuration of every measured context: defaults, apart from
/// the simulated stage sleep.
pub fn engine_config() -> EngineConfig {
    EngineConfig::rasql().with_stage_latency_us(STAGE_LATENCY_US)
}

/// An in-memory context under [`engine_config`].
pub fn context() -> RaSqlContext {
    RaSqlContext::with_config(engine_config())
}

/// SplitMix64: a tiny seeded generator for statement decks and inputs the
/// data generators do not cover.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE7C_4B1D_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One statement of a workload: its class and SQL, plus the row it inserts
/// when it is a single-row INSERT.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: usize,
    pub sql: String,
    pub insert: Option<Row>,
}

/// Makes one statement of a class from the deck's generator.
pub type MakeStmt = Box<dyn Fn(&mut Rng) -> (String, Option<Row>) + Send + Sync>;

/// A statement class and its share of the mix.
pub struct Class {
    pub name: &'static str,
    /// Statements of this class in every block of the deck.
    pub per_block: usize,
    pub make: MakeStmt,
}

impl Class {
    /// A class whose statements are drawn uniformly from a fixed pool.
    pub fn pool(name: &'static str, per_block: usize, pool: Vec<String>) -> Class {
        Class {
            name,
            per_block,
            make: Box::new(move |rng| (pool[rng.below(pool.len() as u64) as usize].clone(), None)),
        }
    }
}

/// A seeded endless statement sequence. Each block holds every class
/// exactly `per_block` times in shuffled order, so class shares are exact
/// over every block and runs differ only in order and parameters.
pub struct Deck<'a> {
    classes: &'a [Class],
    rng: Rng,
    block: Vec<usize>,
}

impl<'a> Deck<'a> {
    pub fn new(classes: &'a [Class], seed: u64) -> Self {
        Deck {
            classes,
            rng: Rng::new(seed),
            block: Vec::new(),
        }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        if self.block.is_empty() {
            for (i, c) in self.classes.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(i, c.per_block));
            }
            self.rng.shuffle(&mut self.block);
        }
        let class = self.block.pop().expect("a deck has at least one class");
        let (sql, insert) = (self.classes[class].make)(&mut self.rng);
        Stmt { class, sql, insert }
    }
}

/// One first statement of every class, in class order (the set-up warm-up).
pub fn one_of_each(classes: &[Class], seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed);
    classes
        .iter()
        .enumerate()
        .map(|(class, c)| {
            let (sql, insert) = (c.make)(&mut rng);
            Stmt { class, sql, insert }
        })
        .collect()
}

/// What a closed-loop phase observed.
#[derive(Debug)]
pub struct Phase {
    origin: Instant,
    /// Latency (ms) of every attempted statement; a failed one is infinite.
    pub latencies_ms: Vec<f64>,
    /// Class of each entry in `latencies_ms`.
    pub classes: Vec<usize>,
    /// Completion time (s since `origin`) of each entry.
    ends: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

impl Phase {
    /// An empty phase timed from `origin`.
    pub fn new(origin: Instant) -> Self {
        Phase {
            origin,
            latencies_ms: Vec::new(),
            classes: Vec::new(),
            ends: Vec::new(),
            attempted: 0,
            failed: 0,
            elapsed: Duration::ZERO,
        }
    }

    pub fn record(&mut self, class: usize, started: Instant, ok: bool) {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.ends.push(secs(self.origin));
        self.latencies_ms.push(if ok { ms } else { f64::INFINITY });
        self.classes.push(class);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold in a phase timed from the same origin.
    pub fn merge(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.classes.extend(other.classes);
        self.ends.extend(other.ends);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Statements completed without error per second.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }

    /// The phase's windowed figures (see [`crate::stats::windowed`]),
    /// printed with their sample counts.
    pub fn report(&self, name: &str) -> Result<crate::stats::Windowed, String> {
        let mut order: Vec<usize> = (0..self.ends.len()).collect();
        order.sort_by(|&a, &b| self.ends[a].total_cmp(&self.ends[b]));
        let ends: Vec<f64> = order.iter().map(|&i| self.ends[i]).collect();
        let lat: Vec<f64> = order.iter().map(|&i| self.latencies_ms[i]).collect();
        let w = crate::stats::windowed(&ends, &lat)
            .ok_or_else(|| format!("{} statements are too few for a p95", ends.len()))?;
        eprintln!(
            "{name}: {} statements in {:.2} s, failed_frac {}; figures are medians over {} windows:",
            self.attempted,
            self.elapsed.as_secs_f64(),
            crate::stats::failed_frac(self.attempted, self.failed),
            w.windows.len(),
        );
        for x in &w.windows {
            eprintln!(
                "  window: {:.2}/s, p50 {:.3} ms ({} samples, {} beyond), p95 {:.3} ms ({} samples, {} beyond)",
                x.throughput, x.p50.value, x.p50.samples, x.p50.beyond, x.p95.value, x.p95.samples, x.p95.beyond
            );
        }
        Ok(w)
    }

    /// Print each class's statement count, median and largest latency.
    pub fn print_classes(&self, classes: &[Class]) {
        for (i, c) in classes.iter().enumerate() {
            let lat = self.class_latencies(i);
            eprintln!(
                "  class {:<10} {:>6} statements, median {:.3} ms, max {:.3} ms",
                c.name,
                lat.len(),
                crate::stats::median(&lat).unwrap_or(0.0),
                lat.iter().copied().fold(0.0, f64::max),
            );
        }
    }

    /// Latencies of one class.
    pub fn class_latencies(&self, class: usize) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.classes)
            .filter(|(_, c)| **c == class)
            .map(|(l, _)| *l)
            .collect()
    }
}

/// Run `exec` in a closed loop over `deck` until `seconds` have passed and
/// at least `min_samples` statements were attempted. `exec` returns whether
/// the statement succeeded.
pub fn closed_loop(
    deck: &mut Deck<'_>,
    seconds: f64,
    min_samples: usize,
    mut exec: impl FnMut(&Stmt) -> bool,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::new(start);
    while start.elapsed().as_secs_f64() < seconds || phase.latencies_ms.len() < min_samples {
        let stmt = deck.next_stmt();
        let t = Instant::now();
        let ok = exec(&stmt);
        phase.record(stmt.class, t, ok);
    }
    phase.elapsed = start.elapsed();
    phase
}

/// Compare two row sets as multisets: `Double` values within a relative
/// 1e-9, everything else exactly.
pub fn same_rows(what: &str, got: &[Row], want: &[Row]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} rows, expected {}",
            got.len(),
            want.len()
        ));
    }
    let mut got = got.to_vec();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    for (g, w) in got.iter().zip(&want) {
        let close = g.arity() == w.arity()
            && g.values()
                .iter()
                .zip(w.values())
                .all(|(a, b)| match (a, b) {
                    (Value::Double(x), Value::Double(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => a == b,
                });
        if !close {
            return Err(format!("{what}: row {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// The integer in column `i` of `row`.
pub fn int(row: &Row, i: usize) -> i64 {
    match row.get(i) {
        Value::Int(v) => *v,
        other => panic!("expected an Int, found {other:?}"),
    }
}

/// Vertices with at least one outgoing edge, sorted — sources whose SSSP and
/// REACH statements do real work.
pub fn vertices_with_out_edges(edges: &rasql_storage::Relation) -> Vec<i64> {
    let mut v: Vec<i64> = edges.rows().iter().map(|r| int(r, 0)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// `count` distinct seeded picks from `from`.
pub fn pick(from: &[i64], count: usize, rng: &mut Rng) -> Vec<i64> {
    let mut v = from.to_vec();
    rng.shuffle(&mut v);
    v.truncate(count);
    v
}

/// Peak resident set of this process in MB (`VmHWM`), over set-ups, checks
/// and the timed phase. A resident set sampled during the timed phase alone
/// varies more between runs, because the allocator's per-thread arenas keep
/// freed memory.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A run-local directory under `.perfbench/` in the working directory,
/// removed with everything in it when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let root = Path::new(".perfbench").join(format!("tmp-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.root.join(name);
        if d.exists() {
            std::fs::remove_dir_all(&d).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&d).map_err(|e| e.to_string())?;
        Ok(d)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
