//! Differential tests: the sharded large-N path against the single-tree
//! path, swept over the shared adversarial shape battery.
//!
//! The sharded pipeline (duplicate-robust splitter partition → bucket
//! fill → greedy bucket→shard assignment with per-unit leaf sorts) is
//! specified to compute *exactly* the permutation the single-tree
//! [`SortJob`] computes — the fill phase preserves original-index order
//! within each bucket, and the stable leaf sort keeps that order among
//! equal keys, so ties break like the global `(key, index)` order. That lets
//! these tests compare permutations element-for-element instead of
//! settling for "both sorted", across shard counts, thread counts,
//! allocation flavors, robustness configs, and the PR-1 chaos storms.
//!
//! Input shapes come from [`wait_free_sort::testshapes`], the shared
//! adversarial battery (duplicate floods, Zipf skew, pre-sorted runs,
//! periodic sawtooths) — the shapes that historically break
//! splitter-based partitioning.

use std::cmp::Ordering;
use std::sync::atomic::{self, AtomicU64};

use wait_free_sort::testshapes;
use wait_free_sort::wfsort_native::{
    recommended_shards, ChaosParticipation, ChaosPlan, CheckpointCounter, ClassifyKernel,
    MetricSlot, NativeAllocation, QuitAfter, RunToCompletion, ShardConfig, ShardedSortJob, SortJob,
    SortOptions,
};

/// Both explicit classify kernels — every differential sweep that takes
/// a config runs over this pair, so a ladder bug cannot hide behind the
/// auto heuristic picking the binary search (or vice versa).
const KERNELS: [ClassifyKernel; 2] = [ClassifyKernel::BinarySearch, ClassifyKernel::Ladder];

const SHARD_SWEEP: [usize; 4] = [1, 2, 8, 64];

/// The stable permutation computed the boring way: 1-based indices
/// ordered by `(key, index)` — the oracle both sorting paths must match.
fn stable_permutation(keys: &[u64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (1..=keys.len()).collect();
    perm.sort_by_key(|&i| (keys[i - 1], i));
    perm
}

/// Single-threaded, deterministic allocation: the sharded permutation
/// must be bit-identical to the single-tree one for every adversarial
/// shape and shard count — including duplicate-heavy shapes where a
/// stability bug would sort correctly but permute differently.
#[test]
fn sharded_permutation_is_bit_identical_to_single_tree() {
    for (shape, keys) in testshapes::adversarial_suite(900, 26) {
        let single = SortJob::new(keys.clone());
        single.run();
        let expect = single.permutation();
        assert_eq!(expect, stable_permutation(&keys), "{shape}: oracle");
        for shards in SHARD_SWEEP {
            let sharded = ShardedSortJob::new(keys.clone(), shards);
            sharded.run();
            assert_eq!(
                sharded.permutation(),
                expect,
                "{shape}: S={shards} diverged from the single tree"
            );
        }
    }
}

/// Both explicit classify kernels over the full adversarial battery:
/// the kernel is a pure throughput knob, so the ladder's permutation
/// must be bit-identical to the binary search's (and to the single
/// tree's) on every shape and shard count — including the duplicate
/// floods whose equality-bucket routing the ladder folds into its
/// final rung compare.
#[test]
fn both_kernels_are_bit_identical_across_the_adversarial_battery() {
    for (shape, keys) in testshapes::adversarial_suite(900, 26) {
        let expect = stable_permutation(&keys);
        for kernel in KERNELS {
            for shards in SHARD_SWEEP {
                let job = ShardedSortJob::with_config(
                    keys.clone(),
                    NativeAllocation::Deterministic,
                    1,
                    shards,
                    ShardConfig {
                        classify_kernel: kernel,
                        ..ShardConfig::default()
                    },
                );
                job.run();
                assert_eq!(
                    job.permutation(),
                    expect,
                    "{shape}: {kernel:?} S={shards} diverged from the single tree"
                );
            }
        }
    }
}

/// Four racing threads, both WAT flavors: races may reorder *who* does
/// the work but never *what* gets written — the permutation is a pure
/// function of the keys, so it must still match the single-tree one.
/// The sweep includes the equality-bucket boundary shapes (all-equal,
/// two-valued, runs-of-duplicates), so racing workers publish trivial
/// fills and leaf-sorted units side by side.
#[test]
fn four_thread_sharded_runs_agree_with_single_tree() {
    for (shape, keys) in testshapes::adversarial_suite(2_000, 27) {
        let expect = stable_permutation(&keys);
        for allocation in [
            NativeAllocation::Deterministic,
            NativeAllocation::Randomized,
        ] {
            for shards in SHARD_SWEEP {
                let job = ShardedSortJob::with_workers(keys.clone(), allocation, 4, shards);
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let job = &job;
                        s.spawn(move || job.run());
                    }
                });
                assert_eq!(
                    job.permutation(),
                    expect,
                    "{shape}: {allocation:?} S={shards} diverged under 4 threads"
                );
            }
        }
    }
}

/// Four racing threads through the non-default robustness configs: the
/// minimal overpartition factor, a tight τ that forces heavy equality
/// chunking, and both at once (few, large range units beside many
/// equality chunks) — each over a duplicate-flood shape so
/// equality-bucket boundaries land inside racing workers' assignments.
#[test]
fn four_thread_runs_agree_across_robustness_configs() {
    let configs = [
        ShardConfig {
            overpartition_factor: 1,
            classify_kernel: ClassifyKernel::Ladder,
            ..ShardConfig::default()
        },
        ShardConfig {
            max_shard_imbalance: 1.2,
            classify_kernel: ClassifyKernel::BinarySearch,
            ..ShardConfig::default()
        },
        ShardConfig {
            overpartition_factor: 1,
            max_shard_imbalance: 1.2,
            classify_kernel: ClassifyKernel::Ladder,
        },
    ];
    for (shape, keys) in [
        ("two-valued", testshapes::two_valued(2_000, 40)),
        (
            "runs-of-duplicates",
            testshapes::runs_of_duplicates(2_000, 17, 41),
        ),
        ("uniform-random", testshapes::uniform(2_000, 42)),
    ] {
        let expect = stable_permutation(&keys);
        for config in configs {
            for shards in [8usize, 64] {
                let job = ShardedSortJob::with_config(
                    keys.clone(),
                    NativeAllocation::Deterministic,
                    4,
                    shards,
                    config,
                );
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let job = &job;
                        s.spawn(move || job.run());
                    }
                });
                assert_eq!(
                    job.permutation(),
                    expect,
                    "{shape}: {config:?} S={shards} diverged under 4 threads"
                );
            }
        }
    }
}

/// PR-1 chaos storms at shard granularity: seeded plans reap 75% of a
/// 4-worker cohort at random checkpoints; the survivors (no caller
/// fallback) must finish every phase and still produce the single-tree
/// permutation. 25 seeds × 4 shard counts = 100 storms.
#[test]
fn chaos_storms_preserve_parity_across_shard_counts() {
    let keys = testshapes::few_distinct(800, 64, 28); // hardest ties
    let expect = stable_permutation(&keys);
    for shards in SHARD_SWEEP {
        for seed in 0..25u64 {
            let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
            assert!(plan.survivors() >= 1, "seed {seed}: no survivor");
            let job = ShardedSortJob::with_workers(
                keys.clone(),
                NativeAllocation::Deterministic,
                plan.workers(),
                shards,
            );
            std::thread::scope(|s| {
                for w in 0..plan.workers() {
                    let (job, plan) = (&job, &plan);
                    s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
                }
            });
            assert!(
                job.is_complete(),
                "S={shards} seed {seed}: survivors failed to complete"
            );
            assert_eq!(
                job.permutation(),
                expect,
                "S={shards} seed {seed}: storm changed the permutation"
            );
        }
    }
}

/// Chaos storms through the overpartitioned configs: the crash points
/// now land between equality-chunk trivial fills, and redoing a whole
/// shard must rewrite identical values. Two duplicate floods × two
/// configs × 10 seeds.
#[test]
fn chaos_storms_preserve_parity_on_robust_configs() {
    let configs = [
        ShardConfig {
            overpartition_factor: 1,
            max_shard_imbalance: 1.2,
            classify_kernel: ClassifyKernel::Ladder,
        },
        ShardConfig {
            overpartition_factor: 2,
            max_shard_imbalance: 1.2,
            classify_kernel: ClassifyKernel::BinarySearch,
        },
    ];
    for keys in [testshapes::all_equal(800), testshapes::two_valued(800, 29)] {
        let expect = stable_permutation(&keys);
        for config in configs {
            for seed in 0..10u64 {
                let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
                let job = ShardedSortJob::with_config(
                    keys.clone(),
                    NativeAllocation::Deterministic,
                    plan.workers(),
                    8,
                    config,
                );
                std::thread::scope(|s| {
                    for w in 0..plan.workers() {
                        let (job, plan) = (&job, &plan);
                        s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
                    }
                });
                assert!(job.is_complete(), "{config:?} seed {seed}");
                assert_eq!(job.permutation(), expect, "{config:?} seed {seed}");
            }
        }
    }
}

/// The all-crash edge through the public front-end: every scripted
/// worker dies at checkpoint 3, so the caller finishes all three phases
/// alone (wait-freedom at shard granularity).
#[test]
fn sharded_plan_run_survives_total_crash() {
    let keys = testshapes::sawtooth(600, 199);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let mut plan = ChaosPlan::new(4);
    for w in 0..4 {
        plan = plan.crash_at(w, 3);
    }
    for shards in SHARD_SWEEP {
        let opts = SortOptions::new().shards(shards).plan(plan.clone());
        assert_eq!(opts.run(&keys).sorted, expect, "S={shards}");
    }
}

/// How many checkpoints one solo, crash-free run of a fresh job
/// consults: the length of an exhaustive crash-window sweep over it.
fn solo_checkpoints(job: &ShardedSortJob<u64>) -> usize {
    let mut counter = CheckpointCounter::new(RunToCompletion);
    job.participate(&mut counter);
    assert!(job.is_complete());
    usize::try_from(counter.count()).expect("checkpoint count fits usize")
}

/// Exhaustive abandonment sweep: a quitter abandons after every possible
/// number of participation checks — counted from one solo run, so every
/// phase boundary, mid-block point and unit boundary is a crash point —
/// and a late joiner must always be able to finish from exactly that
/// state. The publish gates guarantee a half-sorted shard was never
/// marked done. Both WAT flavors, at the default shape (S = 8: many
/// small units) and a coarse one (S = 2, factor 1: range units of ~130
/// keys, so one consult covers a long leaf sort).
#[test]
fn every_abandonment_point_is_recoverable_by_a_late_joiner() {
    let keys = testshapes::uniform(400, 30);
    let expect = stable_permutation(&keys);
    for allocation in [
        NativeAllocation::Deterministic,
        NativeAllocation::Randomized,
    ] {
        for (shards, factor) in [(8usize, 0usize), (2, 1)] {
            let make = || {
                ShardedSortJob::with_config(
                    keys.clone(),
                    allocation,
                    2,
                    shards,
                    ShardConfig {
                        overpartition_factor: factor,
                        ..ShardConfig::default()
                    },
                )
            };
            let case = format!("{allocation:?} S={shards} k={factor}");
            for budget in 1..=solo_checkpoints(&make()) {
                let job = make();
                job.participate(&mut QuitAfter(budget));
                job.run();
                assert!(job.is_complete(), "{case} budget {budget}");
                assert_eq!(
                    job.permutation(),
                    expect,
                    "{case} budget {budget}: quitter corrupted the sort"
                );
            }
        }
    }
}

/// Abandonment sweep over both classify kernels: a quitter can die
/// between the block-start item (which classified the whole block and
/// published its histogram) and the block's trailing no-op items, and a
/// late joiner redoing the block must rewrite byte-identical `piece_of`
/// entries *and* byte-identical histogram counts — under either kernel.
#[test]
fn abandonment_is_recoverable_under_both_kernels() {
    let keys = testshapes::runs_of_duplicates(400, 11, 34);
    let expect = stable_permutation(&keys);
    for kernel in KERNELS {
        for budget in (1..400).step_by(13) {
            let job = ShardedSortJob::with_config(
                keys.clone(),
                NativeAllocation::Deterministic,
                2,
                8,
                ShardConfig {
                    classify_kernel: kernel,
                    ..ShardConfig::default()
                },
            );
            job.participate(&mut QuitAfter(budget));
            job.run();
            assert!(job.is_complete(), "{kernel:?} budget {budget}");
            assert_eq!(job.permutation(), expect, "{kernel:?} budget {budget}");
        }
    }
}

/// Red-first pin for the ISSUE-9 fused histogram: entering the Fill
/// phase must cost O(B·P) — the per-block histogram reduction — not the
/// O(n) `piece_of` re-scan every participant used to pay. A second
/// participant joining after the sort is already complete does no claim
/// work at all, so its fill-phase `setup_steps` is *exactly* the
/// offset-table reduction; against the pre-fusion `column_offsets()`
/// this assertion reads `n` (50 000), not `B·P` (a few hundred).
#[test]
fn fill_entry_setup_is_blocks_times_pieces_not_n() {
    let n = 50_000usize;
    let keys = testshapes::uniform(n, 35);
    let job = ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, 2, 8);
    let table = (job.partition_blocks() * job.buckets()) as u64;
    assert!(
        table < n as u64 / 4,
        "shape precondition: B·P = {table} must be far below n = {n} for this pin to bite"
    );

    let first = MetricSlot::new();
    job.participate_instrumented(&mut RunToCompletion, &first);
    assert!(job.is_complete());

    // The late joiner: the partition and fill WATs are fully done, so
    // beyond the idempotent redo of its own initial-assignment block
    // (the WAT runs that one without consulting the done bit) its only
    // fill-phase cost is rebuilding the offset table from the published
    // histograms.
    let late = MetricSlot::new();
    job.participate_instrumented(&mut RunToCompletion, &late);

    for (who, slot) in [("first", &first), ("late", &late)] {
        let m = slot.snapshot();
        assert_eq!(
            m.phases.fill.setup_steps, table,
            "{who} participant's fill entry must reduce exactly the B·P histogram table"
        );
    }
    assert!(
        late.snapshot().phases.partition.claims <= job.partition_grain() as u64,
        "late joiner re-claims at most its initial block — everything else was done"
    );
}

/// Single-threaded, crash-free, deterministic allocation: every sharded
/// counter is exactly pinned. One worker claims each element once in
/// partition, each block once in fill, each shard once in shard-sort;
/// the per-shard claim counts are all 1; assigned sizes sum to `n`;
/// every range bucket holds exactly the input keys inside its value
/// span; and the pivot-tree phases stay at zero — every work unit is a
/// trivial fill or a sequential leaf sort, so no unit builds a tree.
#[test]
fn single_threaded_sharded_counters_are_exactly_pinned() {
    let n = 2_000usize;
    for (shape, keys) in [
        ("uniform-random", testshapes::uniform(n, 31)),
        ("few-distinct", testshapes::few_distinct(n, 64, 31)),
        ("sawtooth", testshapes::sawtooth(n, 199)),
    ] {
        for shards in SHARD_SWEEP {
            let outcome = SortOptions::new()
                .threads(1)
                .shards(shards)
                .report(true)
                .run(&keys);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(outcome.sorted, expect, "{shape} S={shards}");
            let report = outcome.report.expect("report requested");

            let shard = report.shard.as_ref().expect("sharded report payload");
            let blocks = shard.partition_blocks as u64;
            assert_eq!(shard.shards, shards, "{shape} S={shards}");
            assert_eq!(
                report.per_phase.partition.claims, n as u64,
                "{shape} S={shards}: partition claims ≠ n"
            );
            assert_eq!(
                report.per_phase.partition.block_claims, blocks,
                "{shape} S={shards}: partition block claims ≠ B"
            );
            assert_eq!(
                report.per_phase.fill.claims, blocks,
                "{shape} S={shards}: fill claims ≠ B"
            );
            assert_eq!(
                report.per_phase.partition.kernel_blocks, blocks,
                "{shape} S={shards}: a lone worker classifies each block exactly once"
            );
            assert_eq!(
                report.per_phase.fill.setup_steps,
                blocks * shard.buckets.len() as u64,
                "{shape} S={shards}: fill entry reduces exactly the B·P histogram table"
            );
            assert_eq!(
                report.per_phase.shard_sort.claims, shards as u64,
                "{shape} S={shards}: shard-sort claims ≠ S"
            );
            assert_eq!(report.per_phase.partition.probes, 0, "deterministic WAT");
            assert_eq!(shard.per_shard.len(), shards);
            assert_eq!(
                shard.per_shard.iter().map(|s| s.size).sum::<usize>(),
                n,
                "{shape} S={shards}: sizes do not cover the input"
            );
            assert!(
                shard.per_shard.iter().all(|s| s.claims == 1),
                "{shape} S={shards}: a crash-free lone worker claims each shard once"
            );
            assert!(shard.imbalance() >= 1.0, "{shape} S={shards}");
            assert_eq!(
                shard.buckets.iter().map(|b| b.size).sum::<usize>(),
                n,
                "{shape} S={shards}: bucket sizes do not cover the input"
            );

            // A range bucket's members are exactly the input keys inside
            // its closed value span: neighboring buckets hold values
            // outside it, so no value is split across a bucket boundary.
            let mut start = 0usize;
            for b in &shard.buckets {
                let end = start + b.size;
                if !b.equality && b.size >= 2 {
                    let (lo, hi) = (outcome.sorted[start], outcome.sorted[end - 1]);
                    let members = keys.iter().filter(|&&k| k >= lo && k <= hi).count();
                    assert_eq!(members, b.size, "{shape} S={shards}: span");
                }
                start = end;
            }
            let tree = &report.per_phase;
            assert_eq!(
                [
                    tree.build.claims,
                    tree.sum.visits,
                    tree.place.visits,
                    tree.scatter.claims
                ],
                [0; 4],
                "{shape} S={shards}: build/sum/place/scatter must stay idle"
            );
        }
    }
}

/// Regression pin for the PR-5 splitter bug: stride sampling without
/// deduplication turns an all-equal input into S copies of one splitter,
/// `partition_point(|s| s <= key)` routes every key past all of them,
/// and a single shard swallows the whole input (imbalance ≈ S). The
/// robust overpartitioned path must bound the measured imbalance by the
/// requested τ = 2.0 instead — and still produce the stable permutation.
///
/// Written red-first: against the stride sampler this fails with
/// imbalance == S for every S ≥ 2.
#[test]
fn overpartitioning_bounds_all_equal_imbalance() {
    let n = 40_000usize;
    let keys = wait_free_sort::testshapes::all_equal(n);
    for shards in [8usize, 64] {
        let outcome = SortOptions::new()
            .threads(2)
            .shards(shards)
            .report(true)
            .run(&keys);
        assert_eq!(outcome.sorted, keys, "S={shards}");
        let shard = outcome
            .report
            .unwrap()
            .shard
            .expect("sharded report payload");
        let imbalance = shard.imbalance();
        assert!(
            imbalance <= 2.0,
            "S={shards}: all-equal imbalance {imbalance} exceeds the requested 2.0 \
             (duplicate splitters collapsed the input into one shard)"
        );
        assert_eq!(
            shard.equality_buckets, 1,
            "S={shards}: one value, one bucket"
        );
    }
}

/// The ISSUE-7 acceptance gate at full scale: all-equal, Zipf(1.0), and
/// pre-sorted inputs at N = 1M with S ∈ {8, 64} must come out with
/// measured imbalance ≤ 2.0 *and* a permutation bit-identical to the
/// single-tree path's. The single-tree oracle is computed by a stable
/// std sort over `(key, index)` — the same permutation by construction
/// (pinned against the real single-tree job at smaller N above), since
/// actually running a million monotone inserts through one pivot tree is
/// the quadratic cliff the sharded path exists to avoid.
///
/// Runs in seconds even under debug: the mass-weighted splitter sample
/// routes every heavy value into an equality bucket (a trivial fill), so
/// no duplicate chain ever reaches a pivot tree.
#[test]
fn acceptance_shapes_at_one_million_meet_the_balance_bound() {
    let n = 1_000_000usize;
    for (shape, keys) in [
        ("all-equal", testshapes::all_equal(n)),
        ("zipf-1.0", testshapes::zipf(n, 1024, 7)),
        ("pre-sorted", testshapes::presorted(n)),
    ] {
        let expect = stable_permutation(&keys);
        for shards in [8usize, 64] {
            let outcome = SortOptions::new()
                .threads(4)
                .shards(shards)
                .report(true)
                .run(&keys);
            assert_eq!(
                outcome.permutation, expect,
                "{shape} S={shards}: permutation diverged at N=1M"
            );
            let report = outcome.report.expect("report requested");
            let shard = report.shard.expect("sharded payload");
            let imbalance = shard.imbalance();
            assert!(
                imbalance <= 2.0,
                "{shape} S={shards}: imbalance {imbalance} > 2.0 at N=1M"
            );
            assert!(shard.within_requested(), "{shape} S={shards}");
        }
    }
}

/// No element duplicated, none dropped: a worker abandoned at any
/// checkpoint — mid-classification, mid-fill-block (part of a block's
/// `bucket` slots written), or between the units of a claimed shard —
/// must leave a state from which survivors redo the block or shard
/// whole. The bijection check is the direct no-dup/no-drop pin; the
/// oracle equality pins the order on top. Swept over both WAT flavors ×
/// both classify kernels, with the quit budget walking through every
/// checkpoint of a solo run — the only sweep that runs the randomized
/// flavor at every budget.
#[test]
fn abandonment_never_duplicates_or_drops_an_element() {
    let keys = testshapes::runs_of_duplicates(400, 11, 37);
    let expect = stable_permutation(&keys);
    for allocation in [
        NativeAllocation::Deterministic,
        NativeAllocation::Randomized,
    ] {
        for kernel in KERNELS {
            let make = || {
                ShardedSortJob::with_config(
                    keys.clone(),
                    allocation,
                    2,
                    8,
                    ShardConfig {
                        classify_kernel: kernel,
                        ..ShardConfig::default()
                    },
                )
            };
            for budget in 1..=solo_checkpoints(&make()) {
                let job = make();
                job.participate(&mut QuitAfter(budget));
                job.run();
                assert!(
                    job.is_complete(),
                    "{allocation:?} {kernel:?} budget {budget}"
                );
                let perm = job.permutation();
                let mut seen = vec![false; keys.len()];
                for &v in &perm {
                    assert!(
                        v >= 1 && v <= keys.len() && !seen[v - 1],
                        "{allocation:?} {kernel:?} budget {budget}: \
                         element {v} duplicated or out of range"
                    );
                    seen[v - 1] = true;
                }
                assert_eq!(
                    perm, expect,
                    "{allocation:?} {kernel:?} budget {budget}: order diverged"
                );
            }
        }
    }
}

/// `recommended_shards` feeds the zero-config front-end; pin its shape
/// so a regression can't silently turn the sharded path into a one-shard
/// (pure overhead) or 10⁶-shard (pure bookkeeping) configuration.
#[test]
fn recommended_shards_tracks_input_and_cohort() {
    assert_eq!(recommended_shards(1_000, 1), 1);
    assert_eq!(recommended_shards(1_000, 8), 8);
    assert_eq!(recommended_shards(1 << 20, 4), 128);
    assert_eq!(recommended_shards(1 << 30, 4), 256, "capped");
    assert_eq!(recommended_shards(5, 16), 5, "never exceeds n");
    // And the zero-config entry point actually sorts with it.
    let keys: Vec<u64> = (0..9_000u64).rev().collect();
    let sorted = SortOptions::new().threads(4).shards(0).run(&keys).sorted;
    assert_eq!(sorted, (0..9_000u64).collect::<Vec<_>>());
}

/// Every comparison between [`Flaky`] keys ticks this counter.
static FLAKY_COMPARISONS: AtomicU64 = AtomicU64::new(0);

/// A key whose `Ord` is not a total order: every 10 007th comparison,
/// counted across all `Flaky` values, answers the reverse of the truth.
/// The first flip comes after 10 006 honest answers, past the sort of
/// the splitter sample (768 keys at n = 100 000 and S = 12), so the
/// flips land in classification and in the leaf sorts.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Flaky(u64);

impl Ord for Flaky {
    fn cmp(&self, other: &Self) -> Ordering {
        let honest = self.0.cmp(&other.0);
        if FLAKY_COMPARISONS.fetch_add(1, atomic::Ordering::Relaxed) % 10_007 == 10_006 {
            honest.reverse()
        } else {
            honest
        }
    }
}

impl PartialOrd for Flaky {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Since Rust 1.81 std's `sort_by` may panic on an `Ord` that is not a
/// total order, which the per-unit pivot trees the leaf sort replaced
/// never did. A sharded sort of keys whose comparisons flip must
/// therefore either return a permutation that is a bijection on `1..=n`
/// or panic on the calling thread — never hang, abort, or lose or
/// duplicate an index. One thread classifies each partition block in a
/// single pass, so the block histograms and the per-element buckets
/// agree however the flips fall and the fill places every index exactly
/// once; the leaf sort is the one step that can trip over the flips.
#[test]
fn inconsistent_ord_yields_a_bijection_or_a_caller_panic() {
    let n = 100_000;
    let keys: Vec<Flaky> = testshapes::uniform(n, 43).into_iter().map(Flaky).collect();
    let run = std::panic::catch_unwind(|| SortOptions::new().threads(1).shards(0).run(&keys));
    // A panic on the calling thread is an allowed outcome.
    if let Ok(outcome) = run {
        assert_eq!(outcome.permutation.len(), n);
        let mut seen = vec![false; n];
        for &v in &outcome.permutation {
            assert!(
                (1..=n).contains(&v) && !seen[v - 1],
                "index {v} out of range or duplicated"
            );
            seen[v - 1] = true;
        }
        let gathered: Vec<u64> = outcome.permutation.iter().map(|&v| keys[v - 1].0).collect();
        let sorted: Vec<u64> = outcome.sorted.iter().map(|k| k.0).collect();
        assert_eq!(sorted, gathered, "sorted output follows the permutation");
    }
}
