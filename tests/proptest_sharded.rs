//! Property-based differential tests for the sharded large-N path:
//! arbitrary keys (duplicates encouraged), named adversarial shapes
//! from [`wait_free_sort::testshapes`], shard counts, thread counts,
//! robustness configs, and abandonment points must never make the
//! sharded permutation diverge from the single-tree one.
//!
//! Each property is a seeded case loop ([`check_property`]): both ends
//! of its ranges, then the configured number of seeded cases.

use rng::Rng;

use wait_free_sort::testshapes::{self, check_property, Case};
use wait_free_sort::wfsort_native::{
    piece_by_search, NativeAllocation, QuitAfter, ShardConfig, ShardedSortJob, SortJob,
    SortOptions, SplitterLadder,
};

/// One named shape from the shared adversarial battery, at a drawn size
/// and seed.
fn adversarial_keys(case: &mut Case) -> (&'static str, Vec<u64>) {
    let shape = case.gen_range(0usize..9);
    let n = case.gen_range(2usize..300);
    let seed = case.gen::<u64>();
    testshapes::adversarial_suite(n, seed).swap_remove(shape)
}

/// The single-tree permutation of `keys`: the oracle every sharded run
/// must reproduce exactly.
fn single_tree_permutation(keys: &[u64]) -> Vec<usize> {
    let single = SortJob::new(keys.to_vec());
    single.run();
    single.permutation()
}

/// Every shape in the shared adversarial battery, under arbitrary shard
/// counts and arbitrary (possibly degenerate) robustness knobs, still
/// computes exactly the single-tree permutation — the knobs tune
/// balance, never the output.
#[test]
fn adversarial_shapes_match_single_tree_under_any_config() {
    check_property(48, |case| {
        let (shape, keys) = adversarial_keys(case);
        let shards = case.gen_range(1usize..40);
        let factor = case.gen_range(0usize..12);
        let tau_tenths = case.gen_range(10u32..40);
        let expect = single_tree_permutation(&keys);
        let config = ShardConfig {
            overpartition_factor: factor,
            max_shard_imbalance: f64::from(tau_tenths) / 10.0,
            ..ShardConfig::default()
        };
        let job =
            ShardedSortJob::with_config(keys, NativeAllocation::Deterministic, 2, shards, config);
        job.run();
        assert_eq!(job.permutation(), expect, "{shape}");
    });
}

/// For arbitrary keys, shard counts (including S > n, so empty and
/// singleton shards appear), and thread counts, the sharded path
/// produces exactly the single-tree permutation — the stability contract
/// at property scale.
#[test]
fn sharded_permutation_matches_single_tree() {
    check_property(48, |case| {
        let keys = case.vec(2..300, |c| c.gen_range(0u64..48));
        let shards = case.gen_range(1usize..80);
        let threads = case.gen_range(1usize..4);
        let expect = single_tree_permutation(&keys);
        let job =
            ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, threads, shards);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| job.run());
            }
        });
        assert_eq!(job.permutation(), expect);
    });
}

/// Same property under the randomized LC-WAT flavor: random probing
/// reorders claims, never values.
#[test]
fn randomized_sharded_permutation_matches_single_tree() {
    check_property(48, |case| {
        let keys = case.vec(2..300, |c| c.gen_range(0u64..48));
        let shards = case.gen_range(1usize..40);
        let expect = single_tree_permutation(&keys);
        let job = ShardedSortJob::with_workers(keys, NativeAllocation::Randomized, 2, shards);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| job.run());
            }
        });
        assert_eq!(job.permutation(), expect);
    });
}

/// A quitter abandoning after an arbitrary number of checks leaves a
/// state from which a late joiner recovers the exact single-tree
/// permutation — the publish gates make half-done shards invisible, and
/// every redone block or unit rewrites identical values.
#[test]
fn abandoned_sharded_jobs_recover_exactly() {
    check_property(48, |case| {
        let keys = case.vec(2..200, |c| c.gen_range(0u64..32));
        let shards = case.gen_range(1usize..24);
        let budget = case.gen_range(1usize..500);
        let expect = single_tree_permutation(&keys);
        let job = ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, 2, shards);
        job.participate(&mut QuitAfter(budget));
        job.run();
        assert!(job.is_complete());
        assert_eq!(job.permutation(), expect);
    });
}

/// The public front-end agrees with std sort for arbitrary inputs and
/// shard counts (the trivial n < 2 passthrough included).
#[test]
fn sharded_run_matches_std() {
    check_property(48, |case| {
        let keys = case.vec(0..250, |c| c.gen_range(0u64..1_000));
        let shards = case.gen_range(1usize..32);
        let threads = case.gen_range(1usize..4);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let sorted = SortOptions::new()
            .threads(threads)
            .shards(shards)
            .run(&keys)
            .sorted;
        assert_eq!(sorted, expect);
    });
}

/// The kernel-equivalence pin at property scale: for an arbitrary
/// strictly-increasing splitter set (built by sort+dedup, including the
/// empty set) and arbitrary probe keys, the branchless padded ladder
/// classifies every key to exactly the piece the reference binary
/// search does — equality buckets, both end splitters, and keys outside
/// the splitter range included. The probe pool is drawn from the same
/// narrow domain as the splitters so equality hits are common, then
/// widened with the splitters themselves and their off-by-one neighbors.
#[test]
fn ladder_classification_matches_binary_search() {
    check_property(48, |case| {
        let mut splitters = case.vec(0..150, |c| c.gen_range(0u64..500));
        let probes = case.vec(1..100, |c| c.gen_range(0u64..500));
        splitters.sort_unstable();
        splitters.dedup();
        let ladder = SplitterLadder::new(&splitters);
        for &key in probes.iter().chain(splitters.iter()) {
            for key in [key.saturating_sub(1), key, key.saturating_add(1)] {
                assert_eq!(
                    ladder.piece_for(&key),
                    piece_by_search(&splitters, &key),
                    "key {} against {} splitters",
                    key,
                    splitters.len()
                );
            }
        }
    });
}
