//! Per-partition fixpoint state: the SetRDD analog (§6.1) and the monotone
//! aggregate maps (§6.2).
//!
//! Both structures are *mutable and cached on their worker across iterations*
//! — the paper's key departure from immutable RDDs: the union of the delta
//! into the all-relation only pays for the new items, never a re-copy. Rows
//! carry the round in which they were merged, giving the old/new snapshots the
//! non-linear semi-naive expansion needs.

use rasql_storage::{FxHashMap, FxHashSet, Row, Value};

/// Monotone merge operators for aggregates-in-recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonotoneOp {
    /// Keep the minimum.
    Min,
    /// Keep the maximum.
    Max,
    /// Accumulate (sum of positive contributions / continuous count).
    Sum,
}

impl MonotoneOp {
    /// Whether merging `new` into `cur` would change it.
    #[inline]
    pub fn changes(&self, cur: &Value, new: &Value) -> bool {
        match self {
            MonotoneOp::Min => new < cur,
            MonotoneOp::Max => new > cur,
            // A zero increment is no change — propagating it would keep the
            // fixpoint spinning forever.
            MonotoneOp::Sum => !matches!(new.as_f64(), Some(x) if x == 0.0),
        }
    }

    /// Merge `new` into `cur`; reports whether the value changed.
    #[inline]
    pub fn merge(&self, cur: &mut Value, new: &Value) -> MergeOutcome {
        if !self.changes(cur, new) {
            return MergeOutcome::Unchanged;
        }
        *cur = match self {
            MonotoneOp::Min | MonotoneOp::Max => new.clone(),
            MonotoneOp::Sum => cur.add(new),
        };
        MergeOutcome::Improved
    }

    /// The value an old snapshot reads for a group that did not exist yet.
    fn identity(&self) -> Value {
        match self {
            MonotoneOp::Sum => Value::Int(0),
            MonotoneOp::Min | MonotoneOp::Max => Value::Null,
        }
    }
}

/// Result of a monotone merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The stored value changed (delta must propagate).
    Improved,
    /// No change (tuple discarded, per §6.2).
    Unchanged,
}

/// The SetRDD analog: an append-only per-partition set of rows with round
/// stamps.
#[derive(Debug, Default)]
pub struct SetState {
    rows: FxHashMap<Row, u32>,
}

impl SetState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a row at `round`; true if it is new.
    #[inline]
    pub fn insert(&mut self, row: Row, round: u32) -> bool {
        use std::collections::hash_map::Entry;
        match self.rows.entry(row) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(round);
                true
            }
        }
    }

    /// Insert a copy of `values` at `round` unless the row is already held;
    /// true if it is new. Probes before it clones, so a duplicate costs no
    /// allocation.
    #[inline]
    pub fn insert_values(&mut self, values: &[Value], round: u32) -> bool {
        if self.rows.contains_key(values) {
            return false;
        }
        self.rows.insert(Row::new(values.to_vec()), round);
        true
    }

    /// Membership including the current round.
    #[inline]
    pub fn contains(&self, row: &Row) -> bool {
        self.rows.contains_key(row)
    }

    /// Membership in the snapshot *before* `round` was merged.
    #[inline]
    pub fn contained_before(&self, row: &Row, round: u32) -> bool {
        self.rows.get(row).is_some_and(|&r| r < round)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate all rows.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.keys()
    }

    /// Iterate rows merged strictly before `round`.
    pub fn iter_before(&self, round: u32) -> impl Iterator<Item = &Row> + '_ {
        self.rows
            .iter()
            .filter(move |(_, &r)| r < round)
            .map(|(row, _)| row)
    }

    /// Iterate `(row, merge round)` pairs — the full state the checkpoint
    /// codec must capture (round watermarks drive old/new snapshots).
    pub fn iter_with_rounds(&self) -> impl Iterator<Item = (&Row, u32)> {
        self.rows.iter().map(|(row, &r)| (row, r))
    }

    /// Estimated heap footprint, for memory-budget accounting: deep row
    /// sizes plus per-entry map overhead.
    pub fn size_bytes(&self) -> u64 {
        self.rows
            .keys()
            .map(|r| r.size_bytes() as u64 + 16)
            .sum::<u64>()
    }
}

/// One aggregate group's stored state.
#[derive(Debug, Clone)]
pub struct AggEntry {
    /// Current aggregate values (one per aggregate column).
    pub values: Box<[Value]>,
    /// Values before the round of the last change (for old snapshots).
    pub prev: Box<[Value]>,
    /// Round of the last change.
    pub round: u32,
    /// Round in which the group first appeared.
    pub created: u32,
    /// Merge batch of the last change (see [`AggState::begin_batch`]); 0
    /// for a group restored from a checkpoint and not changed since.
    pub(crate) batch: u32,
}

/// The monotone aggregate map: group key → aggregate values, with previous
/// values kept for old-snapshot reads, plus an optional contributor set for
/// distinct-tuple counting (Party Attendance-style `count()`).
///
/// The merge contract: [`AggState::merge`] looks groups up by the borrowed
/// key and allocates only for a new group (its key, totals and identity
/// previous totals). The previous totals are snapshotted only when a value
/// actually changes in a round later than the group's last change. A merge
/// reports whether it changed the group and whether that was the group's
/// first change in the current merge batch, so a caller lists every changed
/// group exactly once without a set of keys; increments are derived on
/// demand from [`AggState::get`] and [`AggState::get_before`].
#[derive(Debug)]
pub struct AggState {
    groups: FxHashMap<Box<[Value]>, AggEntry>,
    /// Distinct contributing tuples (key ++ contribution) already counted.
    contributors: FxHashSet<Box<[Value]>>,
    /// The current merge batch. Starts at 1, so restored groups (batch 0)
    /// report their first change even before any batch is begun.
    batch: u32,
}

impl Default for AggState {
    fn default() -> Self {
        AggState {
            groups: FxHashMap::default(),
            contributors: FxHashSet::default(),
            batch: 1,
        }
    }
}

/// The result of merging one contribution into an [`AggState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMergeResult {
    /// Nothing changed; the tuple is discarded.
    Unchanged,
    /// The group changed (or was created).
    Changed {
        /// This is the group's first change in the current merge batch.
        first_in_batch: bool,
    },
}

impl AggState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Start a new merge batch: the next change of every group reports
    /// `first_in_batch`. Batches are independent of round stamps — two
    /// batches merged at the same stamp (a warm preload and a base merge,
    /// both at stamp 0) each report their own changes.
    pub fn begin_batch(&mut self) {
        self.batch += 1;
    }

    /// Merge a contribution `(key, vals)` at `round` with per-column ops.
    ///
    /// `dedup_tuple` — when `Some(tuple)`, the contribution is only applied if
    /// the tuple has not contributed before (distinct-tuple counting mode).
    pub fn merge(
        &mut self,
        key: &[Value],
        vals: &[Value],
        ops: &[MonotoneOp],
        round: u32,
        dedup_tuple: Option<&[Value]>,
    ) -> AggMergeResult {
        debug_assert_eq!(vals.len(), ops.len());
        if let Some(t) = dedup_tuple {
            if self.contributors.contains(t) {
                return AggMergeResult::Unchanged;
            }
            self.contributors.insert(t.into());
        }
        let batch = self.batch;
        let Some(entry) = self.groups.get_mut(key) else {
            // First contribution: totals = the contribution itself; the
            // "previous" totals are identity values so old snapshots see
            // nothing for this group.
            self.groups.insert(
                key.into(),
                AggEntry {
                    values: vals.into(),
                    prev: ops.iter().map(MonotoneOp::identity).collect(),
                    round,
                    created: round,
                    batch,
                },
            );
            return AggMergeResult::Changed {
                first_in_batch: true,
            };
        };
        let mut merges = entry.values.iter().zip(vals).zip(ops);
        if !merges.any(|((cur, new), op)| op.changes(cur, new)) {
            return AggMergeResult::Unchanged;
        }
        if entry.round < round {
            // First change this round: snapshot the previous totals.
            entry.prev.clone_from_slice(&entry.values);
        }
        entry.round = round;
        for ((cur, new), op) in entry.values.iter_mut().zip(vals).zip(ops) {
            op.merge(cur, new);
        }
        let first_in_batch = entry.batch != batch;
        entry.batch = batch;
        AggMergeResult::Changed { first_in_batch }
    }

    /// Current totals of a group.
    pub fn get(&self, key: &[Value]) -> Option<&[Value]> {
        self.groups.get(key).map(|e| e.values.as_ref())
    }

    /// Totals of a group as of the snapshot before `round`; `None` if the
    /// group did not exist then.
    pub fn get_before(&self, key: &[Value], round: u32) -> Option<&[Value]> {
        let e = self.groups.get(key)?;
        if e.created >= round {
            return None;
        }
        Some(if e.round < round { &e.values } else { &e.prev })
    }

    /// Iterate `(key, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &AggEntry)> {
        self.groups.iter().map(|(k, e)| (k.as_ref(), e))
    }

    /// Iterate the distinct-contributor tuples (checkpoint capture).
    pub fn contributors(&self) -> impl Iterator<Item = &[Value]> {
        self.contributors.iter().map(|t| t.as_ref())
    }

    /// Reinstall a group entry verbatim (checkpoint restore).
    pub fn insert_group(&mut self, key: Box<[Value]>, entry: AggEntry) {
        self.groups.insert(key, entry);
    }

    /// Reinstall a contributor tuple verbatim (checkpoint restore).
    pub fn insert_contributor(&mut self, tuple: Box<[Value]>) {
        self.contributors.insert(tuple);
    }

    /// Estimated heap footprint, for memory-budget accounting: deep sizes of
    /// keys, totals, previous totals, and contributor tuples plus per-entry
    /// overhead.
    pub fn size_bytes(&self) -> u64 {
        let value_bytes =
            |vs: &[Value]| vs.iter().map(Value::size_bytes).sum::<usize>() as u64 + 16;
        let groups: u64 = self
            .groups
            .iter()
            .map(|(k, e)| value_bytes(k) + value_bytes(&e.values) + value_bytes(&e.prev) + 8)
            .sum();
        let contributors: u64 = self.contributors.iter().map(|t| value_bytes(t)).sum();
        groups + contributors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn set_state_rounds() {
        let mut s = SetState::new();
        assert!(s.insert(rasql_storage::row::int_row(&[1]), 1));
        assert!(!s.insert(rasql_storage::row::int_row(&[1]), 2));
        assert!(s.insert(rasql_storage::row::int_row(&[2]), 2));
        assert_eq!(s.len(), 2);
        let r1 = rasql_storage::row::int_row(&[1]);
        let r2 = rasql_storage::row::int_row(&[2]);
        assert!(s.contained_before(&r1, 2));
        assert!(!s.contained_before(&r2, 2));
        assert_eq!(s.iter_before(2).count(), 1);
    }

    #[test]
    fn min_merge_keeps_best_and_reports_improvement() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min];
        assert!(matches!(
            st.merge(&vals(&[7]), &vals(&[10]), &ops, 1, None),
            AggMergeResult::Changed { .. }
        ));
        assert_eq!(st.get(&vals(&[7])).unwrap(), &vals(&[10])[..]);
        // Worse value discarded.
        assert_eq!(
            st.merge(&vals(&[7]), &vals(&[12]), &ops, 2, None),
            AggMergeResult::Unchanged
        );
        // Better value improves.
        assert!(matches!(
            st.merge(&vals(&[7]), &vals(&[3]), &ops, 2, None),
            AggMergeResult::Changed { .. }
        ));
        assert_eq!(st.get(&vals(&[7])).unwrap(), &vals(&[3])[..]);
    }

    #[test]
    fn sum_merge_accumulates_with_increments() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        st.merge(&vals(&[1]), &vals(&[5]), &ops, 1, None);
        assert!(matches!(
            st.merge(&vals(&[1]), &vals(&[3]), &ops, 2, None),
            AggMergeResult::Changed { .. }
        ));
        // The increment is the total less the total before the round.
        let total = st.get(&vals(&[1])).unwrap()[0].clone();
        let before = st.get_before(&vals(&[1]), 2).unwrap()[0].clone();
        assert_eq!(total, Value::Int(8));
        assert_eq!(total.sub(&before), Value::Int(3));
    }

    #[test]
    fn distinct_tuple_dedup() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        let tuple = vals(&[1, 42]);
        assert!(matches!(
            st.merge(&vals(&[1]), &vals(&[1]), &ops, 1, Some(&tuple)),
            AggMergeResult::Changed { .. }
        ));
        // Same contributing tuple again: ignored.
        assert_eq!(
            st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, Some(&tuple)),
            AggMergeResult::Unchanged
        );
        // New tuple counts.
        let tuple2 = vals(&[1, 43]);
        assert!(matches!(
            st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, Some(&tuple2)),
            AggMergeResult::Changed { .. }
        ));
        assert_eq!(st.get(&vals(&[1])).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn old_snapshot_semantics() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        st.merge(&vals(&[1]), &vals(&[10]), &ops, 1, None);
        st.merge(&vals(&[1]), &vals(&[5]), &ops, 3, None);
        // Before round 3: total was 10.
        assert_eq!(st.get_before(&vals(&[1]), 3).unwrap()[0], Value::Int(10));
        // Group created in round 1 didn't exist before round 1.
        assert_eq!(st.get_before(&vals(&[1]), 1), None);
        // Current total.
        assert_eq!(st.get(&vals(&[1])).unwrap()[0], Value::Int(15));
    }

    #[test]
    fn multi_column_aggregates() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min, MonotoneOp::Max];
        st.merge(&vals(&[1]), &vals(&[5, 5]), &ops, 1, None);
        assert!(matches!(
            st.merge(&vals(&[1]), &vals(&[3, 9]), &ops, 2, None),
            AggMergeResult::Changed { .. }
        ));
        assert_eq!(st.get(&vals(&[1])).unwrap(), &vals(&[3, 9])[..]);
    }

    /// `(first_in_batch)` of a merge that changed the group, `None` if it
    /// did not.
    fn first(r: AggMergeResult) -> Option<bool> {
        match r {
            AggMergeResult::Changed { first_in_batch } => Some(first_in_batch),
            AggMergeResult::Unchanged => None,
        }
    }

    #[test]
    fn group_changed_several_times_in_a_batch_is_reported_once() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Sum];
        st.begin_batch();
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[5]), &ops, 1, None)),
            Some(true)
        );
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[2]), &ops, 1, None)),
            Some(false)
        );
        assert_eq!(
            first(st.merge(&vals(&[2]), &vals(&[1]), &ops, 1, None)),
            Some(true)
        );
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[0]), &ops, 1, None)),
            None
        );
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[4]), &ops, 1, None)),
            Some(false)
        );
        // The next batch (a later round) reports the group afresh.
        st.begin_batch();
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, None)),
            Some(true)
        );
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[1]), &ops, 2, None)),
            Some(false)
        );
        assert_eq!(st.get(&vals(&[1])).unwrap(), &vals(&[13])[..]);
    }

    #[test]
    fn batches_at_the_same_stamp_each_report_their_changes() {
        // A resumed fixpoint preloads warm state at stamp 0, then merges the
        // re-evaluated base at stamp 0 too: the second batch's changes must
        // be reported even though the round stamp did not move.
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min];
        st.begin_batch();
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[10]), &ops, 0, None)),
            Some(true)
        );
        assert_eq!(
            first(st.merge(&vals(&[2]), &vals(&[10]), &ops, 0, None)),
            Some(true)
        );
        st.begin_batch();
        // Re-merging a converged value is a no-op...
        assert_eq!(
            first(st.merge(&vals(&[2]), &vals(&[10]), &ops, 0, None)),
            None
        );
        // ...but an improvement at the same stamp is this batch's change.
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[4]), &ops, 0, None)),
            Some(true)
        );
        assert_eq!(
            first(st.merge(&vals(&[1]), &vals(&[3]), &ops, 0, None)),
            Some(false)
        );
        assert_eq!(st.get(&vals(&[1])).unwrap(), &vals(&[3])[..]);
    }

    #[test]
    fn unchanged_touch_keeps_the_old_snapshot() {
        let mut st = AggState::new();
        let ops = [MonotoneOp::Min];
        st.merge(&vals(&[1]), &vals(&[10]), &ops, 1, None);
        st.merge(&vals(&[1]), &vals(&[7]), &ops, 3, None);
        assert_eq!(st.get_before(&vals(&[1]), 3).unwrap(), &vals(&[10])[..]);
        // Round 5 touches the group without changing it: every snapshot
        // reads as before.
        assert_eq!(
            st.merge(&vals(&[1]), &vals(&[9]), &ops, 5, None),
            AggMergeResult::Unchanged
        );
        assert_eq!(st.get_before(&vals(&[1]), 3).unwrap(), &vals(&[10])[..]);
        assert_eq!(st.get_before(&vals(&[1]), 5).unwrap(), &vals(&[7])[..]);
        assert_eq!(st.get(&vals(&[1])).unwrap(), &vals(&[7])[..]);
        // A real change at round 5 snapshots the value it replaces.
        st.merge(&vals(&[1]), &vals(&[2]), &ops, 5, None);
        assert_eq!(st.get_before(&vals(&[1]), 5).unwrap(), &vals(&[7])[..]);
        assert_eq!(st.get(&vals(&[1])).unwrap(), &vals(&[2])[..]);
    }

    #[test]
    fn set_insert_values_probes_before_it_clones() {
        let mut s = SetState::new();
        assert!(s.insert_values(&vals(&[1, 2]), 1));
        assert!(!s.insert_values(&vals(&[1, 2]), 2));
        assert!(!s.insert(rasql_storage::row::int_row(&[1, 2]), 3));
        assert!(s.contained_before(&rasql_storage::row::int_row(&[1, 2]), 2));
        assert_eq!(s.len(), 1);
    }
}
