//! Property-based tests for the execution substrate: shuffles preserve the
//! multiset of rows, fused and unfused pipelines agree, and the monotone
//! aggregate state is order-insensitive where the algebra says it must be.

use proptest::prelude::*;
use rasql_exec::checkpoint::{
    decode_agg_state, decode_rows, decode_set_state, encode_agg_state, encode_rows,
    encode_set_state,
};
use rasql_exec::state::{AggState, MonotoneOp};
use rasql_exec::{
    run_fused, run_unfused, Cluster, ClusterConfig, Dataset, HashTable, Pipeline, PipelineStep,
    SetState,
};
use rasql_storage::row::int_row;
use rasql_storage::{Row, Value};
use std::sync::Arc;
use std::time::Duration;

fn quiet_cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        workers,
        partition_aware: true,
        stage_latency: Duration::ZERO,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shuffle_preserves_multiset(
        rows in prop::collection::vec((0i64..50, 0i64..50), 0..200),
        parts in 1usize..9,
    ) {
        let c = quiet_cluster(3);
        let data: Vec<Row> = rows.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let d = Dataset::round_robin(data.clone(), 4);
        let s = d.shuffle(&c, &[1], parts).unwrap();
        prop_assert_eq!(s.num_partitions(), parts);
        let mut got = s.collect();
        let mut want = data;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fused_equals_unfused_on_random_pipelines(
        input in prop::collection::vec((0i64..30, 0i64..30), 0..120),
        build in prop::collection::vec((0i64..30, 0i64..100), 0..60),
        threshold in 0i64..30,
    ) {
        let input_rows: Vec<Row> = input.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let build_rows: Vec<Row> = build.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let table = Arc::new(HashTable::build(&build_rows, &[0]));
        let steps = vec![
            PipelineStep::Filter(Arc::new(move |r: &Row| {
                r[0].as_int().unwrap() >= threshold
            })),
            PipelineStep::HashJoin {
                table,
                key: Arc::new(|r: &Row, k: &mut Vec<Value>| k.push(r[1].clone())),
            },
            PipelineStep::Filter(Arc::new(|r: &Row| r[3].as_int().unwrap() % 2 == 0)),
        ];
        let pipeline = Pipeline::with_project(
            steps,
            Arc::new(|r: &Row, out: &mut Vec<Value>| out.extend([r[0].clone(), r[3].clone()])),
        );
        let mut a = run_fused(&input_rows, &pipeline);
        let mut b = run_unfused(&input_rows, &pipeline);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn min_state_is_order_insensitive(
        contribs in prop::collection::vec((0i64..10, -100i64..100), 1..80),
    ) {
        // Merging the same contributions in any order yields the same totals.
        let ops = [MonotoneOp::Min];
        let mut forward = AggState::new();
        for (round, &(k, v)) in contribs.iter().enumerate() {
            forward.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        let mut reversed = AggState::new();
        for (round, &(k, v)) in contribs.iter().rev().enumerate() {
            reversed.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        for &(k, _) in &contribs {
            prop_assert_eq!(
                forward.get(&[Value::Int(k)]).unwrap(),
                reversed.get(&[Value::Int(k)]).unwrap()
            );
        }
    }

    #[test]
    fn sum_state_is_order_insensitive(
        contribs in prop::collection::vec((0i64..10, 1i64..100), 1..80),
    ) {
        let ops = [MonotoneOp::Sum];
        let mut forward = AggState::new();
        let mut reversed = AggState::new();
        for (round, &(k, v)) in contribs.iter().enumerate() {
            forward.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        for (round, &(k, v)) in contribs.iter().rev().enumerate() {
            reversed.merge(&[Value::Int(k)], &[Value::Int(v)], &ops, round as u32, None);
        }
        for &(k, _) in &contribs {
            prop_assert_eq!(
                forward.get(&[Value::Int(k)]).unwrap(),
                reversed.get(&[Value::Int(k)]).unwrap()
            );
        }
    }

    #[test]
    fn set_state_is_a_set(rows in prop::collection::vec((0i64..15, 0i64..15), 0..100)) {
        let mut s = SetState::new();
        let mut inserted = 0;
        for (round, &(a, b)) in rows.iter().enumerate() {
            if s.insert(int_row(&[a, b]), round as u32) {
                inserted += 1;
            }
        }
        let distinct: std::collections::HashSet<_> = rows.iter().collect();
        prop_assert_eq!(inserted, distinct.len());
        prop_assert_eq!(s.len(), distinct.len());
    }

    #[test]
    fn set_state_survives_checkpoint_byte_identically(
        rows in prop::collection::vec((0i64..40, 0i64..40, 0u32..12), 0..150),
    ) {
        // encode → decode → encode must be byte-identical (the encoding is
        // canonical), and the restored state must agree row-for-row and
        // round-for-round with the original.
        let mut original = SetState::new();
        for &(a, b, round) in &rows {
            original.insert(int_row(&[a, b]), round);
        }
        let encoded = encode_set_state(&original);
        let restored = decode_set_state(encoded.clone()).unwrap();
        prop_assert_eq!(encode_set_state(&restored), encoded);
        let mut got: Vec<_> = restored.iter_with_rounds().map(|(r, n)| (r.clone(), n)).collect();
        let mut want: Vec<_> = original.iter_with_rounds().map(|(r, n)| (r.clone(), n)).collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn agg_state_survives_checkpoint_byte_identically(
        contribs in prop::collection::vec((0i64..8, -50i64..50, 1i64..20), 0..120),
        dedup in prop::collection::vec((0i64..8, 0i64..8), 0..40),
    ) {
        // Build a two-column (min, sum) aggregate state with a populated
        // distinct-contributor set, then round-trip it through the checkpoint
        // codec. Canonical encoding ⇒ byte-identical re-encode; every group's
        // totals must survive.
        let ops = [MonotoneOp::Min, MonotoneOp::Sum];
        let mut original = AggState::new();
        for (round, &(k, lo, add)) in contribs.iter().enumerate() {
            original.merge(
                &[Value::Int(k)],
                &[Value::Int(lo), Value::Int(add)],
                &ops,
                round as u32,
                None,
            );
        }
        for &(k, t) in &dedup {
            original.merge(
                &[Value::Int(k)],
                &[Value::Int(t), Value::Int(1)],
                &ops,
                0,
                Some(&[Value::Int(k), Value::Int(t)]),
            );
        }
        let encoded = encode_agg_state(&original);
        let restored = decode_agg_state(encoded.clone()).unwrap();
        prop_assert_eq!(encode_agg_state(&restored), encoded);
        for &(k, _, _) in &contribs {
            prop_assert_eq!(
                restored.get(&[Value::Int(k)]).unwrap(),
                original.get(&[Value::Int(k)]).unwrap()
            );
        }
        prop_assert_eq!(restored.len(), original.len());
    }

    #[test]
    fn rows_survive_checkpoint_byte_identically(
        rows in prop::collection::vec((-1000i64..1000, -1000i64..1000), 0..200),
    ) {
        // The row encoding is canonical (sorted), so compare as multisets.
        let data: Vec<Row> = rows.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let encoded = encode_rows(&data);
        let restored = decode_rows(encoded.clone()).unwrap();
        let mut want = data;
        want.sort();
        prop_assert_eq!(&restored, &want);
        prop_assert_eq!(encode_rows(&restored), encoded);
    }

    #[test]
    fn map_partitions_preserves_counts(
        rows in prop::collection::vec((0i64..100, 0i64..100), 0..150),
        workers in 1usize..5,
    ) {
        let c = quiet_cluster(workers);
        let data: Vec<Row> = rows.iter().map(|&(a, b)| int_row(&[a, b])).collect();
        let d = Dataset::hash_partitioned(data, &[0], workers * 2);
        let out = d.map_partitions(&c, |_p, part| part.to_vec()).unwrap();
        prop_assert_eq!(out.len(), rows.len());
    }
}

#[test]
fn agg_state_increments_sum_to_total() {
    // The increments a round's merges report (total after the round less
    // the total before it, read from `get` / `get_before`) must sum to the
    // final total.
    let ops = [MonotoneOp::Sum];
    let key = [Value::Int(1)];
    let mut st = AggState::new();
    let mut sum_of_increments = 0i64;
    for round in 0..20u32 {
        let v = (round as i64 % 5) + 1;
        st.begin_batch();
        if let rasql_exec::state::AggMergeResult::Changed { .. } =
            st.merge(&key, &[Value::Int(v)], &ops, round, None)
        {
            let total = &st.get(&key).unwrap()[0];
            let increment = match st.get_before(&key, round) {
                Some(before) => total.sub(&before[0]),
                None => total.clone(),
            };
            sum_of_increments += increment.as_int().unwrap();
        }
    }
    assert_eq!(
        st.get(&[Value::Int(1)]).unwrap()[0],
        Value::Int(sum_of_increments)
    );
}
