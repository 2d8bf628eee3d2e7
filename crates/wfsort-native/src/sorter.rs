//! High-level sorting front-ends over [`SortJob`] and [`ShardedSortJob`].
//!
//! One-shot sorts have one front end: the [`SortOptions`] builder
//! (threads, allocation, shards, grain, chaos plan, deadline, telemetry),
//! whose [`SortOptions::run`] drives a single cohort spawn/finish path
//! for both the single-tree and sharded jobs. Every scenario is a
//! composition on the builder — a sharded sort under a deadline with a
//! report needs no method of its own. [`WaitFreeSorter`] only remembers a
//! thread count: [`WaitFreeSorter::options`] seeds a builder with it and
//! [`WaitFreeSorter::sort`] is the plain-sort shorthand.
//!
//! The one front-end that does not flow through the builder is
//! [`sort_with_churn`]: its reap-then-respawn choreography spawns a
//! *second* cohort mid-run, a staged schedule the one-shot builder
//! deliberately does not model.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::fault::{ChaosParticipation, ChaosPlan, SharedBudget, WithDeadline};
use crate::job::{recommended_grain, Participation, RunToCompletion, SortJob};
use crate::metrics::{MetricSlot, ShardReport, SortReport};
use crate::shard::{recommended_shards, ShardConfig, ShardedSortJob};
use crate::wat::NativeAllocation;
use crate::watchdog::ProgressReport;

/// A multi-threaded wait-free sorter.
///
/// # Examples
///
/// ```
/// use wfsort_native::WaitFreeSorter;
///
/// let sorter = WaitFreeSorter::new(4);
/// assert_eq!(sorter.sort(&[3u64, 1, 2]), vec![1, 2, 3]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WaitFreeSorter {
    threads: usize,
}

/// How many shards [`SortOptions::run`] splits the input into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardMode {
    /// One pivot tree over the whole input (the default).
    SingleTree,
    /// The sharded path with [`recommended_shards`] shards.
    Auto,
    /// The sharded path with an explicit shard count (>= 1).
    Count(usize),
}

/// One builder for every way this crate can run a one-shot sort: thread
/// count, allocation strategy, shard mode, WAT grain, a scripted
/// [`ChaosPlan`], a helper deadline, and telemetry — all driving the same
/// cohort spawn/finish path. The sharded path always runs
/// [`ShardConfig::default`]; a caller that tunes the splitter sampler,
/// the balance target or the classify kernel builds its own job with
/// [`ShardedSortJob::with_config`].
///
/// Unlike the raw job constructors, the builder is total over its
/// inputs: inputs shorter than two keys fall back to a sequential copy
/// (there is nothing to parallelize), and a shard count of zero means
/// "pick [`recommended_shards`] for me" — no degenerate combination
/// panics.
///
/// # Examples
///
/// ```
/// use wfsort_native::SortOptions;
///
/// let keys: Vec<u64> = (0..10_000).rev().collect();
/// let outcome = SortOptions::new()
///     .threads(4)
///     .shards(16)
///     .report(true)
///     .run(&keys);
/// assert!(outcome.sorted.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(outcome.report.unwrap().shard.unwrap().shards, 16);
///
/// // Degenerate inputs that panic the raw job constructors sort fine
/// // through the builder: tiny inputs fall back to a sequential copy,
/// // and `shards(0)` means "choose for me".
/// let tiny = SortOptions::new().threads(2).shards(0).run(&[7u64]);
/// assert_eq!(tiny.sorted, vec![7]);
/// ```
#[derive(Clone, Debug)]
pub struct SortOptions {
    threads: usize,
    allocation: NativeAllocation,
    shards: ShardMode,
    grain: Option<usize>,
    plan: Option<ChaosPlan>,
    deadline: Option<Duration>,
    report: bool,
}

/// What [`SortOptions::run`] produced: the sorted keys, the sorting
/// permutation, and — when requested via [`SortOptions::report`] — the
/// aggregated telemetry.
#[derive(Clone, Debug)]
pub struct SortOutcome<K> {
    /// The keys in sorted order (stable: ties keep input order).
    pub sorted: Vec<K>,
    /// The 1-based sorting permutation: `permutation[r]` is the input
    /// position of the rank-`r` key, as [`SortJob::permutation`] reports
    /// it. Empty input yields an empty permutation.
    pub permutation: Vec<usize>,
    /// Aggregated telemetry when [`SortOptions::report`] was enabled
    /// (empty for inputs shorter than two keys), `None` otherwise.
    pub report: Option<SortReport>,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions::new()
    }
}

impl SortOptions {
    /// Defaults: [`std::thread::available_parallelism`] threads,
    /// deterministic allocation, single pivot tree, recommended grain,
    /// no chaos plan, no deadline, no report.
    pub fn new() -> Self {
        SortOptions {
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            allocation: NativeAllocation::Deterministic,
            shards: ShardMode::SingleTree,
            grain: None,
            plan: None,
            deadline: None,
            report: false,
        }
    }

    /// Sets the worker thread count (ignored while a [`ChaosPlan`] is
    /// set — the plan's worker count sizes the cohort).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Sets the work-allocation strategy (deterministic WAT descent or
    /// randomized LC-WAT probing).
    pub fn allocation(mut self, allocation: NativeAllocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Routes the sort through the sharded large-N path with `shards`
    /// shards; `0` selects [`recommended_shards`]. The sharded path
    /// computes exactly the permutation the single-tree path does.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = match shards {
            0 => ShardMode::Auto,
            s => ShardMode::Count(s),
        };
        self
    }

    /// Routes the sort through the single pivot tree (the default),
    /// undoing [`SortOptions::shards`].
    ///
    /// With [`NativeAllocation::Deterministic`] the tree turns presorted,
    /// reversed and all-equal input into a one-branch spine, so the sort
    /// is quadratic; use `shards(0)` or [`NativeAllocation::Randomized`]
    /// for such input.
    pub fn single_tree(mut self) -> Self {
        self.shards = ShardMode::SingleTree;
        self
    }

    /// The [`ShardConfig`] the sharded path runs under: always
    /// [`ShardConfig::default`].
    pub fn shard_config(&self) -> ShardConfig {
        ShardConfig::default()
    }

    /// Sets the WAT grain (elements per work-assignment block) for the
    /// single-tree path; `0` restores [`recommended_grain`]. The sharded
    /// path sizes its own grains and ignores this.
    pub fn grain(mut self, grain: usize) -> Self {
        self.grain = if grain == 0 { None } else { Some(grain) };
        self
    }

    /// Drives the cohort with a scripted adversary: one worker per plan
    /// slot, each replaying its deterministic fault script. If the plan
    /// crashes every worker the calling thread finishes the job alone
    /// (wait-freedom makes the abandoned structures always completable).
    pub fn plan(mut self, plan: ChaosPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Bounds helper occupancy by a wall-clock deadline: helpers abandon
    /// once it passes while the calling thread joins the cohort and runs
    /// to completion, alone past the deadline if need be. The result is
    /// always the correct sort — the deadline bounds *helper occupancy*,
    /// never correctness.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether to collect per-phase / per-worker telemetry into
    /// [`SortOutcome::report`].
    pub fn report(mut self, report: bool) -> Self {
        self.report = report;
        self
    }

    /// Heartbeat slots: one per cohort member, counting the caller when
    /// a plan or deadline puts it in the cohort.
    fn tracked_slots(&self) -> usize {
        match &self.plan {
            Some(plan) => plan.workers() + 1,
            None => self.threads,
        }
    }

    fn effective_shards(&self, n: usize) -> Option<usize> {
        match self.shards {
            ShardMode::SingleTree => None,
            ShardMode::Auto => Some(recommended_shards(n, self.threads)),
            ShardMode::Count(s) => Some(s),
        }
    }

    /// Sorts `keys` under this configuration. Never panics on degenerate
    /// inputs: fewer than two keys are copied through sequentially.
    ///
    /// # Panics
    ///
    /// A panic in `K`'s `Ord` or `Clone` on any participant unwinds
    /// through the caller with that participant's own payload, as it
    /// would from [`slice::sort`]. Every helper thread has been joined
    /// by then.
    pub fn run<K: Ord + Clone + Send + Sync>(&self, keys: &[K]) -> SortOutcome<K> {
        let n = keys.len();
        if n < 2 {
            return SortOutcome {
                sorted: keys.to_vec(),
                permutation: (1..=n).collect(),
                report: self.report.then(SortReport::empty),
            };
        }
        let tracked = self.tracked_slots();
        // Each arm drops its job before the gather below allocates, so the
        // job's buffers and the sorted copy are never live together.
        let (permutation, report) = match self.effective_shards(n) {
            Some(shards) => {
                let job =
                    ShardedSortJob::with_workers(keys.to_vec(), self.allocation, tracked, shards);
                let report = self.drive(&job);
                (job.into_permutation(), report)
            }
            None => {
                let grain = self
                    .grain
                    .unwrap_or_else(|| recommended_grain(n, self.threads));
                let job = SortJob::with_grain(keys.to_vec(), self.allocation, tracked, grain);
                let report = self.drive(&job);
                (job.permutation(), report)
            }
        };
        let sorted = permutation.iter().map(|&e| keys[e - 1].clone()).collect();
        SortOutcome {
            sorted,
            permutation,
            report,
        }
    }

    /// The single cohort path every front-end funnels into: spawns the
    /// configured participants, runs the caller in whatever role the
    /// configuration implies (deadline-exempt finisher, survivor of last
    /// resort, or bystander), and leaves `job` complete.
    fn drive<K: Ord + Send + Sync>(&self, job: &impl CohortJob<K>) -> Option<SortReport> {
        let start = Instant::now();
        let until = self.deadline.map(|d| Instant::now() + d);
        let plan = self.plan.as_ref();
        let helpers = match plan {
            // The plan's worker count sizes the cohort.
            Some(p) => p.workers(),
            // Helpers obey the deadline; the caller is the deadline-
            // exempt finisher.
            None if until.is_some() => self.threads - 1,
            None => self.threads,
        };
        // With a deadline the caller participates concurrently (it must
        // finish what reaped helpers abandon); with only a plan it is the
        // survivor of last resort, joining after the cohort returns and
        // only if the plan crashed everyone.
        let caller_concurrent = until.is_some();
        let caller_fallback = plan.is_some() && until.is_none();
        let cohort = helpers + (caller_concurrent || caller_fallback) as usize;
        let mut slots: Vec<MetricSlot> = if self.report {
            (0..cohort).map(|_| MetricSlot::new()).collect()
        } else {
            Vec::new()
        };

        if cohort == 1 && plan.is_none() && !self.report && !caller_concurrent {
            // Single-threaded plain sort: no spawn.
            job.participate(&mut RunToCompletion);
        } else {
            let (helper_slots, caller_slot) = if self.report {
                let (h, c) = slots.split_at_mut(helpers);
                (h, c.first_mut())
            } else {
                (&mut [][..], None)
            };
            let mut caller_slot = caller_slot;
            let joined = thread::scope(|s| {
                let mut helper_slots = helper_slots.iter_mut();
                let mut handles = Vec::with_capacity(helpers);
                for w in 0..helpers {
                    let slot = helper_slots.next();
                    handles.push(s.spawn(move || {
                        let mut boxed: Box<dyn Participation + Send + '_> = match (plan, until) {
                            (Some(plan), Some(until)) => {
                                Box::new(WithDeadline::new(ChaosParticipation::new(plan, w), until))
                            }
                            (Some(plan), None) => Box::new(ChaosParticipation::new(plan, w)),
                            (None, Some(until)) => {
                                Box::new(WithDeadline::new(RunToCompletion, until))
                            }
                            (None, None) => Box::new(RunToCompletion),
                        };
                        let mut p: &mut dyn Participation = &mut *boxed;
                        match slot {
                            Some(slot) => job.participate_instrumented(&mut p, slot),
                            None => job.participate(&mut p),
                        }
                    }));
                }
                if caller_concurrent {
                    // The caller ignores the deadline: wait-freedom
                    // guarantees it can always finish what the helpers
                    // abandoned.
                    match caller_slot.take() {
                        Some(slot) => job.participate_instrumented(&mut RunToCompletion, slot),
                        None => job.participate(&mut RunToCompletion),
                    }
                }
                handles.into_iter().map(|h| h.join()).collect()
            });
            resume_cohort_panic(joined);
            if caller_fallback && !job.is_complete() {
                // Every scripted worker crashed: the caller is the
                // survivor of last resort.
                match caller_slot {
                    Some(slot) => job.participate_instrumented(&mut RunToCompletion, slot),
                    None => job.participate(&mut RunToCompletion),
                }
            }
        }
        debug_assert!(job.is_complete());
        self.report.then(|| {
            let mut report = SortReport::aggregate(
                slots.iter().map(|s| s.snapshot()).collect(),
                start.elapsed(),
            );
            report.shard = job.shard_report_opt();
            report
        })
    }
}

/// The cohort-facing surface the single-tree and sharded jobs share:
/// [`SortOptions::drive`] and the service's cohort stint serve both
/// through it. The participate methods are generic, so a participation's
/// `keep_going` is statically dispatched at every checkpoint; they
/// require `Self: Sized`, which leaves the rest of the trait usable as a
/// trait object for once-per-stint reads.
pub(crate) trait CohortJob<K: Ord>: Sync {
    fn participate<P: Participation>(&self, p: &mut P)
    where
        Self: Sized;
    fn participate_instrumented<P: Participation>(&self, p: &mut P, slot: &MetricSlot)
    where
        Self: Sized;
    fn is_complete(&self) -> bool;
    fn sorted_into(&self, out: &mut Vec<K>)
    where
        K: Clone;
    fn progress(&self) -> ProgressReport;
    fn shard_report_opt(&self) -> Option<ShardReport>;
}

impl<K: Ord + Send + Sync> CohortJob<K> for SortJob<K> {
    fn participate<P: Participation>(&self, p: &mut P) {
        SortJob::participate(self, p);
    }
    fn participate_instrumented<P: Participation>(&self, p: &mut P, slot: &MetricSlot) {
        SortJob::participate_instrumented(self, p, slot);
    }
    fn is_complete(&self) -> bool {
        SortJob::is_complete(self)
    }
    fn sorted_into(&self, out: &mut Vec<K>)
    where
        K: Clone,
    {
        SortJob::sorted_into(self, out);
    }
    fn progress(&self) -> ProgressReport {
        SortJob::progress(self)
    }
    fn shard_report_opt(&self) -> Option<ShardReport> {
        None
    }
}

impl<K: Ord + Clone + Send + Sync> CohortJob<K> for ShardedSortJob<K> {
    fn participate<P: Participation>(&self, p: &mut P) {
        ShardedSortJob::participate(self, p);
    }
    fn participate_instrumented<P: Participation>(&self, p: &mut P, slot: &MetricSlot) {
        ShardedSortJob::participate_instrumented(self, p, slot);
    }
    fn is_complete(&self) -> bool {
        ShardedSortJob::is_complete(self)
    }
    fn sorted_into(&self, out: &mut Vec<K>) {
        ShardedSortJob::sorted_into(self, out);
    }
    fn progress(&self) -> ProgressReport {
        ShardedSortJob::progress(self)
    }
    fn shard_report_opt(&self) -> Option<ShardReport> {
        Some(self.shard_report())
    }
}

impl WaitFreeSorter {
    /// Creates a sorter that spawns `threads` worker threads per sort.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        WaitFreeSorter { threads }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A [`SortOptions`] builder seeded with this sorter's thread count:
    /// the one front end for reports, shards, plans and deadlines.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let sorter = WaitFreeSorter::new(4);
    /// let outcome = sorter.options().report(true).run(&[3u64, 1, 2]);
    /// assert_eq!(outcome.sorted, vec![1, 2, 3]);
    /// assert!(outcome.report.is_some());
    /// ```
    pub fn options(&self) -> SortOptions {
        SortOptions::new().threads(self.threads)
    }

    /// Sorts `keys` into a new vector on the single pivot tree.
    ///
    /// Presorted, reversed and all-equal input is a one-branch spine for
    /// the deterministic tree, so the sort is quadratic; use `shards(0)`
    /// or [`NativeAllocation::Randomized`] on [`WaitFreeSorter::options`]
    /// for such input.
    pub fn sort<K: Ord + Clone + Send + Sync>(&self, keys: &[K]) -> Vec<K> {
        self.options().run(keys).sorted
    }
}

impl Default for WaitFreeSorter {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        WaitFreeSorter::new(threads)
    }
}

/// Stops a participant when an external flag flips — the "reap this
/// thread, the processor is needed elsewhere" scenario of the paper's
/// introduction.
#[derive(Debug)]
pub struct UntilFlag<'a> {
    flag: &'a AtomicBool,
}

impl<'a> UntilFlag<'a> {
    /// Participates until `flag` becomes `true`.
    pub fn new(flag: &'a AtomicBool) -> Self {
        UntilFlag { flag }
    }
}

impl Participation for UntilFlag<'_> {
    fn keep_going(&mut self) -> bool {
        !self.flag.load(Ordering::Relaxed)
    }
}

/// Demonstrates oblivious thread churn: spawns `initial` workers, reaps
/// them all once they have collectively made `reap_after_checks`
/// participation checks (a [`SharedBudget`]), then spawns `replacements`
/// fresh workers that finish the job. The reap trigger counts work, not
/// wall time, so the churn point is the same on any machine. An initial
/// worker that finishes the job or unwinds before the budget is spent
/// counts as reaped. Returns the sorted keys.
///
/// This is the one front-end that does not flow through [`SortOptions`]:
/// its second cohort joins mid-run, a staged schedule the one-shot
/// builder deliberately does not model.
///
/// # Panics
///
/// A panic in `K`'s `Ord` or `Clone` on any worker unwinds through the
/// caller with that worker's own payload, as in [`SortOptions::run`].
pub fn sort_with_churn<K: Ord + Clone + Send + Sync>(
    keys: &[K],
    initial: usize,
    reap_after_checks: usize,
    replacements: usize,
) -> Vec<K> {
    if keys.len() < 2 {
        return keys.to_vec();
    }
    let (initial, replacements) = (initial.max(1), replacements.max(1));
    let job = SortJob::with_tracked(
        keys.to_vec(),
        NativeAllocation::Deterministic,
        initial + replacements,
    );
    let checks = AtomicU64::new(0);
    let joined = thread::scope(|s| {
        let first: Vec<_> = (0..initial)
            .map(|_| {
                let (job, checks) = (&job, &checks);
                s.spawn(move || {
                    job.participate(&mut SharedBudget::new(checks, reap_after_checks as u64));
                })
            })
            .collect();
        // Reap: each initial worker leaves at its first checkpoint once
        // the budget is spent, or earlier if it finished the whole job
        // (possible for small inputs) or unwound.
        let mut results: Vec<_> = first.into_iter().map(|h| h.join()).collect();
        let respawned: Vec<_> = (0..replacements)
            .map(|_| {
                let job = &job;
                s.spawn(move || job.participate(&mut RunToCompletion))
            })
            .collect();
        results.extend(respawned.into_iter().map(|h| h.join()));
        results
    });
    resume_cohort_panic(joined);
    job.into_sorted()
}

/// Re-raises the first helper's panic on the calling thread with its
/// original payload, the way `slice::sort` unwinds through its caller.
/// The caller's own panic needs no help: `thread::scope` re-raises it
/// after joining every helper.
fn resume_cohort_panic(helpers: Vec<thread::Result<()>>) {
    if let Some(payload) = helpers.into_iter().find_map(Result::err) {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::rngs::StdRng;
    use rng::{Rng, SeedableRng};

    fn random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
    }

    #[test]
    fn sorts_trivial_inputs() {
        let s = WaitFreeSorter::new(2);
        assert_eq!(s.sort::<u64>(&[]), Vec::<u64>::new());
        assert_eq!(s.sort(&[7]), vec![7]);
        assert_eq!(s.sort(&[2, 1]), vec![1, 2]);
    }

    #[test]
    fn sorts_large_random_input_multithreaded() {
        let keys = random_keys(20_000, 1);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(WaitFreeSorter::new(8).sort(&keys), expect);
    }

    #[test]
    fn single_thread_matches_std_sort() {
        let keys = random_keys(5_000, 2);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(WaitFreeSorter::new(1).sort(&keys), expect);
    }

    #[test]
    fn casualties_do_not_prevent_completion() {
        let keys = random_keys(5_000, 3);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // All but one of eight workers crash below checkpoint 100.
        let plan = ChaosPlan::random_crashes(8, 1.0, 100, 3);
        assert_eq!(SortOptions::new().plan(plan).run(&keys).sorted, expect);
    }

    #[test]
    fn churn_reap_then_respawn() {
        let keys = random_keys(30_000, 4);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Reap the initial cohort after 2000 collective checks — far
        // short of the ~30k build jobs, so the replacements always
        // inherit real work, deterministically on any machine.
        let sorted = sort_with_churn(&keys, 4, 2_000, 3);
        assert_eq!(sorted, expect);
    }

    #[test]
    fn report_counts_cover_input_multithreaded() {
        let keys = random_keys(10_000, 5);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let outcome = WaitFreeSorter::new(4).options().report(true).run(&keys);
        assert_eq!(outcome.sorted, expect);
        let report = outcome.report.expect("report requested");
        let n = keys.len() as u64;
        assert!(report.per_phase.build.claims >= n - 1);
        assert!(report.per_phase.build.cas_attempts >= n - 1);
        assert!(report.per_phase.sum.visits >= n);
        assert!(report.per_phase.place.visits >= n);
        assert!(report.per_phase.scatter.claims >= n);
        assert_eq!(report.per_worker.len(), 4);
        assert!((0.0..=1.0).contains(&report.cas_failure_rate));
        assert!(report.elapsed > Duration::ZERO);
        assert!(report.total_ops() > 0);
    }

    #[test]
    fn trivial_input_report_is_empty() {
        let outcome = WaitFreeSorter::new(2).options().report(true).run(&[1u64]);
        assert_eq!(outcome.sorted, vec![1]);
        let report = outcome.report.expect("report requested");
        assert!(report.per_worker.is_empty());
        assert_eq!(report.total_ops(), 0);
    }

    #[test]
    fn help_steps_show_each_route_runs_its_allocation() {
        // Both routes sort identically under either flavour, so only the
        // help accounting tells which tree a job actually ran.
        let keys = random_keys(5_000, 6);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let tree = SortOptions::new().threads(4).report(true);
        let sharded = tree.clone().shards(8);
        for (route, opts) in [("tree", tree), ("shards(8)", sharded)] {
            for allocation in [
                NativeAllocation::Deterministic,
                NativeAllocation::Randomized,
            ] {
                let outcome = opts.clone().allocation(allocation).run(&keys);
                assert_eq!(outcome.sorted, expect, "{route} {allocation:?}");
                let report = outcome.report.expect("report requested");
                let p = &report.per_phase;
                // Every WAT claim and probe: build and scatter on the
                // tree, partition, fill and shard_sort on shards.
                let wat_steps = p.build.claims
                    + p.build.probes
                    + p.scatter.claims
                    + p.scatter.probes
                    + p.partition.claims
                    + p.partition.probes
                    + p.fill.claims
                    + p.fill.probes
                    + p.shard_sort.claims
                    + p.shard_sort.probes;
                let help = report.help_steps();
                match allocation {
                    // The first participant's first block is its own.
                    NativeAllocation::Deterministic => {
                        assert!(help < wat_steps, "{route}: {help} >= {wat_steps}");
                    }
                    // Random probing has no reserved assignment: every
                    // WAT step is a helping step.
                    NativeAllocation::Randomized => {
                        assert_eq!(help, wat_steps, "{route}");
                        if route == "tree" {
                            assert!(p.build.probes > 0 && p.scatter.probes > 0);
                        } else {
                            assert!(p.partition.probes > 0, "{route}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sort_matches_std_across_rounds() {
        let sorter = WaitFreeSorter::new(4);
        for round in 0..4 {
            let keys = random_keys(3_000 + 500 * round, 40 + round as u64);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(sorter.sort(&keys), expect, "round {round}");
        }
        assert_eq!(sorter.sort(&[7u64]), vec![7]);
        assert!(sorter.sort::<u64>(&[]).is_empty());
    }

    #[test]
    fn sharded_sort_matches_single_tree_order_exactly() {
        let keys = random_keys(30_000, 7);
        let opts = SortOptions::new().threads(4);
        assert_eq!(
            opts.clone().shards(0).run(&keys).permutation,
            opts.run(&keys).permutation
        );
    }

    #[test]
    fn sharded_trivial_inputs_pass_through() {
        let opts = SortOptions::new().threads(2);
        assert_eq!(opts.clone().shards(0).run::<u64>(&[]).sorted, Vec::new());
        assert_eq!(opts.clone().shards(4).run(&[7u64]).sorted, vec![7]);
        let outcome = opts.shards(4).report(true).run(&[1u64]);
        assert_eq!(outcome.sorted, vec![1]);
        assert!(outcome.report.unwrap().shard.is_none());
    }

    #[test]
    fn sharded_report_carries_shard_payload() {
        let keys = random_keys(8_000, 8);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let outcome = SortOptions::new()
            .threads(4)
            .shards(16)
            .report(true)
            .run(&keys);
        assert_eq!(outcome.sorted, expect);
        let report = outcome.report.expect("report requested");
        let shard = report.shard.as_ref().expect("sharded report payload");
        assert_eq!(shard.shards, 16);
        assert_eq!(shard.per_shard.iter().map(|s| s.size).sum::<usize>(), 8_000);
        assert!(shard.per_shard.iter().all(|s| s.claims >= 1));
        assert!(shard.imbalance() >= 1.0);
        // `>=`: racing workers may idempotently redo claimed blocks;
        // the exact single-threaded pins live in tests/sharded_parity.rs.
        assert!(report.per_phase.partition.claims >= 8_000);
        assert!(report.per_phase.fill.claims >= shard.partition_blocks as u64);
        assert!(report.per_phase.shard_sort.claims >= 16);
        // Units are leaf-sorted: no pivot tree, no tree counters.
        assert_eq!(report.per_phase.build.claims, 0);
        assert_eq!(report.per_phase.scatter.claims, 0);
    }

    #[test]
    fn sharded_plan_survives_total_crash() {
        let keys = random_keys(3_000, 9);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Crash every worker almost immediately: the caller must finish
        // all three phases alone.
        let mut plan = ChaosPlan::new(4);
        for w in 0..4 {
            plan = plan.crash_at(w, 3);
        }
        let outcome = SortOptions::new().shards(8).plan(plan).run(&keys);
        assert_eq!(outcome.sorted, expect);
    }

    #[test]
    fn sorts_strings() {
        let keys = vec!["b".to_string(), "a".to_string(), "c".to_string()];
        assert_eq!(
            WaitFreeSorter::new(2).sort(&keys),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert!(WaitFreeSorter::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        WaitFreeSorter::new(0);
    }

    #[test]
    fn options_compose_plan_deadline_shards_and_report() {
        let keys = random_keys(6_000, 10);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let plan = ChaosPlan::random_crashes(4, 0.5, 200, 11);
        let outcome = SortOptions::new()
            .threads(4)
            .shards(8)
            .plan(plan)
            .deadline(Duration::from_secs(3600))
            .report(true)
            .run(&keys);
        assert_eq!(outcome.sorted, expect);
        let report = outcome.report.expect("report requested");
        let shard = report.shard.expect("sharded payload");
        assert_eq!(shard.shards, 8);
        assert_eq!(shard.per_shard.iter().map(|s| s.size).sum::<usize>(), 6_000);
        // Cohort = 4 plan workers + the deadline-exempt caller.
        assert_eq!(report.per_worker.len(), 5);
    }

    #[test]
    fn options_degenerate_inputs_never_panic() {
        // Every combination the raw constructors reject: tiny inputs,
        // zero (= auto) shard counts, shard counts above n.
        for shards in [0usize, 1, 3, 64] {
            let opts = SortOptions::new().threads(2).shards(shards);
            assert_eq!(opts.run(&Vec::<u64>::new()).sorted, Vec::<u64>::new());
            assert_eq!(opts.run(&[9u64]).sorted, vec![9]);
            assert_eq!(opts.run(&[2u64, 1]).sorted, vec![1, 2]);
        }
        let outcome = SortOptions::new().threads(1).report(true).run(&[1u64]);
        assert_eq!(outcome.permutation, vec![1]);
        assert_eq!(outcome.report.unwrap().total_ops(), 0);
    }

    #[test]
    fn options_permutation_is_exact() {
        let keys = vec![30u64, 10, 20];
        let outcome = SortOptions::new().threads(2).run(&keys);
        assert_eq!(outcome.sorted, vec![10, 20, 30]);
        assert_eq!(outcome.permutation, vec![2, 3, 1]);
    }

    #[test]
    fn options_run_reports_every_round() {
        let opts = SortOptions::new().threads(2).report(true);
        for round in 0..3 {
            let keys = random_keys(2_000, 60 + round);
            let mut expect = keys.clone();
            expect.sort_unstable();
            let outcome = opts.run(&keys);
            assert_eq!(outcome.sorted, expect, "round {round}");
            let report = outcome.report.expect("report requested");
            assert!(report.per_phase.build.claims >= 1_999);
        }
    }
}
