//! A multi-tenant sorting service over a shared worker pool.
//!
//! [`SortService`] turns the one-array front-ends of this crate into a
//! *system under load*: many tenants submit sort jobs concurrently, a
//! fixed pool of workers schedules them job-granularly, and the paper's
//! wait-freedom guarantee becomes the service's isolation story — a
//! worker that crashes or stalls mid-job (scripted by a [`ChaosPlan`])
//! strands only *its* job, which the service's [`WatchdogRegistry`]
//! bookkeeping detects and hands to a fresh worker; every other tenant's
//! job completes bit-identically to a sequential sort.
//!
//! The moving parts:
//!
//! * **Admission control** — a bounded queue; [`SortService::submit`]
//!   returns a typed [`Rejected`] error (`QueueFull` / `ShuttingDown`)
//!   instead of blocking, and the service counts every rejection.
//! * **Routing by measured cost** — a job below
//!   [`ServiceConfig::small_sort_cutoff`] that sets no plan, no budget and
//!   no [`JobOptions::helpers`] above one sorts whole in one stint with
//!   `slice::sort`, the stable oracle every route matches bit for bit: on
//!   an idle two-worker pool that beat both cohort pipelines at every
//!   size up to [`ServiceConfig::sharded_cutoff`] (EXPERIMENTS.md E32).
//!   Every other job is shared: several pool workers co-participate in
//!   one cohort job (claims re-enter the queue so idle workers join) —
//!   a [`SortJob`] pivot tree below `sharded_cutoff`, a
//!   [`ShardedSortJob`] at or past it.
//! * **Job-granular scheduling** — queued tenants are picked
//!   deficit-style by [`JobOptions::weight`], one stint per pick; ties
//!   fall back to queue order, so unweighted workloads stay FIFO.
//! * **Work conservation** — a worker that finds the queue empty joins
//!   the largest in-flight plan-free cohort job as an extra participant
//!   (a *helper stint*) instead of sleeping; the paper's helping
//!   discipline guarantees extra participants only speed a sort up,
//!   never change its result.
//! * **Deadlines and budgets** — per-job wall-clock deadlines and
//!   participation-check budgets are enforced at the same checkpoints
//!   the chaos harness uses (a sequential job checks its deadline once,
//!   when its stint starts); an expired job fails with a clean
//!   [`JobError`], never a panic, and never touches other jobs.
//! * **Crash recovery** — when a chaos-scripted worker abandons a job
//!   and no other stint is running or queued for it, the service reaps
//!   it: up to [`ServiceConfig::max_recoveries`] fresh stints are
//!   dispatched (wait-freedom guarantees one surviving participant
//!   finishes the abandoned structures); past that the job alone fails
//!   with [`JobError::WorkersLost`]. A stint on any route that unwinds
//!   from a panic — a user `Ord` may panic, and std's sort may panic on
//!   an `Ord` that is not a total order — is reaped the same way, and
//!   its worker stays in the pool.
//! * **Graceful shutdown** — [`SortService::shutdown`] stops admitting,
//!   drains every in-flight job, joins the pool, and returns the final
//!   [`ServiceStats`].
//!
//! # Example
//!
//! ```
//! use wfsort_native::service::{JobOptions, ServiceConfig, SortService};
//!
//! let service = SortService::start(ServiceConfig::default().workers(2));
//! let keys: Vec<u64> = (0..2_000).rev().collect();
//! let ticket = service.submit(keys, JobOptions::default()).unwrap();
//! let result = ticket.wait();
//! let sorted = result.sorted.unwrap();
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! let stats = service.shutdown();
//! assert_eq!(stats.admitted, 1);
//! assert_eq!(stats.completed, 1);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{ChaosParticipation, ChaosPlan, SharedBudget};
use crate::job::{recommended_grain, Participation, SortJob};
use crate::metrics::{MetricSlot, SortReport, WorkerMetrics};
use crate::shard::{recommended_shards, ShardedSortJob};
use crate::sorter::CohortJob;
use crate::wat::NativeAllocation;
use crate::watchdog::{ProgressReport, WatchdogRegistry};

/// Configuration for [`SortService::start`]. All knobs have serviceable
/// defaults; override with the builder methods.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    workers: usize,
    queue_capacity: usize,
    small_sort_cutoff: usize,
    sharded_cutoff: usize,
    max_recoveries: usize,
    default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            queue_capacity: 64,
            small_sort_cutoff: 1 << 17,
            sharded_cutoff: 1 << 17,
            max_recoveries: 2,
            default_deadline: None,
        }
    }
}

impl ServiceConfig {
    /// Pool size: how many worker threads serve the queue.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "a service needs at least one worker");
        self.workers = workers;
        self
    }

    /// Admission bound: jobs queued (not yet claimed) beyond this are
    /// rejected with [`Rejected::QueueFull`].
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        assert!(queue_capacity > 0, "the queue needs at least one slot");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Inputs shorter than this sort whole in one worker stint with
    /// `slice::sort` instead of becoming a shared cohort job, unless the
    /// job asks for more than one [`JobOptions::helpers`], a
    /// [`JobOptions::plan`] or a [`JobOptions::budget`].
    /// [`ServiceConfig::sharded_cutoff`] takes precedence: a job at or
    /// past it is sharded even below this cutoff.
    ///
    /// The default, `1 << 17`, is the crossover sweep's result capped at
    /// `sharded_cutoff`: on an idle two-worker service, one sequential
    /// stint finished sooner than the sharded and tree cohorts at every
    /// size from 1 024 to 131 072 keys, on uniform, 64-value, Zipf and
    /// presorted input (EXPERIMENTS.md E32). `0` sends every job of two
    /// or more keys to a cohort.
    pub fn small_sort_cutoff(mut self, cutoff: usize) -> Self {
        self.small_sort_cutoff = cutoff;
        self
    }

    /// Inputs at least this long become shared *sharded* cohort jobs
    /// ([`ShardedSortJob`] with [`recommended_shards`] shards) instead
    /// of single-tree jobs — the duplicate-robust overpartitioned path,
    /// so one tenant's adversarial key distribution cannot collapse its
    /// job onto one shard. A [`JobOptions::plan`] rides along: its
    /// stints replay their fault scripts at shard granularity.
    /// This cutoff takes precedence over
    /// [`ServiceConfig::small_sort_cutoff`]: every job of at least this
    /// many keys is sharded, whatever its options. `usize::MAX` disables
    /// the sharded route. The default is `1 << 17`; E32 measured no size
    /// above it, so where the sharded pipeline starts to beat one
    /// sequential stint is unknown.
    pub fn sharded_cutoff(mut self, cutoff: usize) -> Self {
        self.sharded_cutoff = cutoff;
        self
    }

    /// How many times a stranded job (every worker crashed) is handed to
    /// a fresh stint before it fails with [`JobError::WorkersLost`].
    pub fn max_recoveries(mut self, max_recoveries: usize) -> Self {
        self.max_recoveries = max_recoveries;
        self
    }

    /// Deadline applied to jobs whose [`JobOptions`] set none.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }
}

/// Per-job knobs for [`SortService::submit`]. The default is a plain
/// sort: no deadline, no budget, no fault injection, sorted in one
/// sequential stint below [`ServiceConfig::small_sort_cutoff`] and
/// co-scheduled across the whole pool at or past it.
#[derive(Clone, Debug, Default)]
pub struct JobOptions {
    deadline: Option<Duration>,
    budget: Option<u64>,
    helpers: Option<usize>,
    plan: Option<ChaosPlan>,
    weight: Option<u32>,
}

impl JobOptions {
    /// Wall-clock deadline, measured from admission. A job that is still
    /// incomplete when a participant samples the clock past the deadline
    /// fails with [`JobError::DeadlineExpired`]. A sequential job checks
    /// its deadline once, when its stint starts, so it can publish late
    /// by up to one sort of fewer than [`ServiceConfig::small_sort_cutoff`]
    /// keys (about 5 ms for 131 072 uniform `u64` keys in E32).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Work budget: total participation checks across all of the job's
    /// stints. An over-budget job fails with
    /// [`JobError::BudgetExhausted`]. A budget forces the job onto a
    /// shared-cohort path regardless of size: a plain sequential sort
    /// has no participation checks to count.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// How many pool workers co-participate in this job (clamped to at
    /// least one). More than one makes the job a shared cohort job at any
    /// size; one, or leaving it unset, lets a job below
    /// [`ServiceConfig::small_sort_cutoff`] sort sequentially. On a cohort
    /// job an unset value means the pool size, or the [`ChaosPlan`]'s
    /// worker count when a plan is set.
    pub fn helpers(mut self, helpers: usize) -> Self {
        self.helpers = Some(helpers.max(1));
        self
    }

    /// Scripted fault injection: each of the job's stints takes the next
    /// plan slot and replays its deterministic fault schedule; stints
    /// beyond the plan's worker count run fault-free. A plan forces the
    /// job onto a shared-cohort path regardless of size, even below
    /// [`ServiceConfig::small_sort_cutoff`] — single-tree below
    /// [`ServiceConfig::sharded_cutoff`], sharded at or past it — so
    /// crash recovery exercises the wait-free structures of whichever
    /// pipeline the job would run.
    pub fn plan(mut self, plan: ChaosPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Scheduling weight (clamped to at least 1; the default is 1).
    /// When queued tenants compete for a free worker, the deficit-style
    /// pick services higher weights proportionally more often: every
    /// tenant passed over accrues `weight` credit, the highest credit
    /// wins the next pick (ties break toward higher weight, then queue
    /// order), and the winner's credit resets to zero. A weight-8
    /// tenant therefore overtakes same-credit weight-1 tenants and wins
    /// ~8x the picks under sustained backlog, while a weight-1 tenant's
    /// credit still grows every pass — it is picked after a bounded
    /// number of passes, never starved.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = Some(weight.max(1));
        self
    }
}

/// Why [`SortService::submit`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at capacity; retry after backpressure
    /// clears. The service's `rejected_queue_full` counter records it.
    QueueFull {
        /// The configured [`ServiceConfig::queue_capacity`].
        capacity: usize,
    },
    /// [`SortService::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} slots)")
            }
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an admitted job failed. Failures are per-job: they never affect
/// other tenants' jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job's deadline passed before the sort completed.
    DeadlineExpired,
    /// The job's participation-check budget ran out.
    BudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// Every worker dispatched to the job crashed, and the configured
    /// [`ServiceConfig::max_recoveries`] fresh stints crashed too.
    WorkersLost {
        /// Recovery stints dispatched before giving up.
        recoveries: usize,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::DeadlineExpired => write!(f, "deadline expired before the sort completed"),
            JobError::BudgetExhausted { budget } => {
                write!(f, "participation budget of {budget} checks exhausted")
            }
            JobError::WorkersLost { recoveries } => {
                write!(f, "all workers lost after {recoveries} recovery attempts")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job telemetry returned with every [`JobResult`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The service-assigned job id.
    pub id: u64,
    /// Input length.
    pub n: usize,
    /// Time from admission to first worker stint.
    pub queued: Duration,
    /// End-to-end time from admission to publication (queueing
    /// included).
    pub elapsed: Duration,
    /// Worker stints that participated (including recovery stints).
    pub stints: usize,
    /// Recovery dispatches after the job was stranded by crashes.
    pub recoveries: usize,
    /// Aggregated per-phase / per-worker sort telemetry, as
    /// [`crate::SortOptions::report`] reports it, covering
    /// the stints that had finished when the result was published (a
    /// sibling stint racing the publisher may land just after).
    pub sort: SortReport,
}

/// What a job produced: the sorted keys (or a typed [`JobError`]) plus
/// the per-job [`JobReport`].
#[derive(Clone, Debug)]
pub struct JobResult<K> {
    /// The sorted keys, or why the job failed.
    pub sorted: Result<Vec<K>, JobError>,
    /// Telemetry for this job.
    pub report: JobReport,
}

/// Handle to an admitted job; redeem with [`JobTicket::wait`].
pub struct JobTicket<K: Ord> {
    state: Arc<JobState<K>>,
}

impl<K: Ord> fmt::Debug for JobTicket<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobTicket").field("id", &self.id()).finish()
    }
}

impl<K: Ord> JobTicket<K> {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Blocks until the job is published and returns its result. Always
    /// returns: every admitted job is published exactly once — with the
    /// sorted keys, or with a typed [`JobError`].
    pub fn wait(self) -> JobResult<K> {
        let mut done = self.state.done.lock().unwrap();
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self.state.ready.wait(done).unwrap();
        }
    }

    /// Returns the result if the job has already been published,
    /// without blocking; the ticket is returned otherwise.
    pub fn try_wait(self) -> Result<JobResult<K>, JobTicket<K>> {
        let taken = self.state.done.lock().unwrap().take();
        match taken {
            Some(result) => Ok(result),
            None => Err(self),
        }
    }
}

/// Service-level counters, snapshot by [`SortService::stats`] and
/// returned by [`SortService::shutdown`]. Monotonic over the service's
/// lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Submissions refused with [`Rejected::QueueFull`].
    pub rejected_queue_full: u64,
    /// Submissions refused with [`Rejected::ShuttingDown`].
    pub rejected_shutting_down: u64,
    /// Jobs published with sorted output.
    pub completed: u64,
    /// Jobs published with [`JobError::DeadlineExpired`].
    pub deadline_expired: u64,
    /// Jobs published with [`JobError::BudgetExhausted`].
    pub budget_exhausted: u64,
    /// Jobs published with [`JobError::WorkersLost`].
    pub workers_lost: u64,
    /// Recovery stints dispatched for stranded jobs (a job that crashes,
    /// recovers, and completes counts here *and* in `completed`).
    pub crash_recoveries: u64,
    /// Always 0. The service no longer drains sequential jobs in batches
    /// (every stint is a queue pick or a helper join); the field stays so
    /// `perfbench`, which reports it, keeps building.
    pub small_batched: u64,
    /// Stints dispatched by the scheduler's deficit-style queue pick —
    /// first claims, co-scheduling claims, and recovery claims alike.
    /// Every stint the service runs is accounted by exactly one of
    /// `queue_picks` or `helper_stints`.
    pub queue_picks: u64,
    /// Queue picks where accrued credit (or a weight tie-break)
    /// overtook FIFO order — the picked job was not at the queue front.
    /// Always `<= queue_picks`.
    pub weighted_picks: u64,
    /// Work-conserving helper stints: an idle worker that found the
    /// queue empty joined the largest in-flight shared job as an extra
    /// participant instead of sleeping.
    pub helper_stints: u64,
}

impl ServiceStats {
    /// Total refused submissions.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_shutting_down
    }

    /// Jobs published with any [`JobError`].
    pub fn failed(&self) -> u64 {
        self.deadline_expired + self.budget_exhausted + self.workers_lost
    }
}

#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutting_down: AtomicU64,
    completed: AtomicU64,
    deadline_expired: AtomicU64,
    budget_exhausted: AtomicU64,
    workers_lost: AtomicU64,
    crash_recoveries: AtomicU64,
    queue_picks: AtomicU64,
    weighted_picks: AtomicU64,
    helper_stints: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
            crash_recoveries: self.crash_recoveries.load(Ordering::Relaxed),
            small_batched: 0,
            queue_picks: self.queue_picks.load(Ordering::Relaxed),
            weighted_picks: self.weighted_picks.load(Ordering::Relaxed),
            helper_stints: self.helper_stints.load(Ordering::Relaxed),
        }
    }
}

/// The job's payload: inputs under two keys, and inputs below both
/// cutoffs that set no plan, no budget and no more than one helper, are
/// sequential — one stint takes the keys and sorts them with
/// `slice::sort`. Everything else is a shared wait-free cohort job that
/// several stints co-participate in — the single tree below
/// [`ServiceConfig::sharded_cutoff`], the duplicate-robust sharded
/// pipeline at or past it.
enum Work<K: Ord> {
    Sequential(Mutex<Option<Vec<K>>>),
    Tree(Box<SortJob<K>>),
    Sharded(Box<ShardedSortJob<K>>),
}

impl<K: Ord + Clone + Send + Sync> Work<K> {
    /// The shared cohort job; `None` for sequential work.
    fn cohort(&self) -> Option<&dyn CohortJob<K>> {
        match self {
            Work::Sequential(_) => None,
            Work::Tree(job) => Some(&**job),
            Work::Sharded(job) => Some(&**job),
        }
    }
}

struct JobState<K: Ord> {
    id: u64,
    n: usize,
    work: Work<K>,
    deadline: Option<Instant>,
    budget: Option<(AtomicU64, u64)>,
    plan: Option<ChaosPlan>,
    /// Scheduling weight from [`JobOptions::weight`] (at least 1).
    weight: u64,
    /// Deficit credit: accrued (by `weight`) each time the scheduler
    /// passes this job's queue entries over, reset when it wins a pick.
    /// Mutated only under the queue lock.
    sched_credit: AtomicU64,
    /// Whether this job has been listed for helper joins; set at most
    /// once, by the stint that first claims it from the queue.
    helper_listed: AtomicBool,
    /// Set at the job's first claim, when it stops counting against the
    /// admission bound. Mutated only under the queue lock.
    claimed: AtomicBool,
    /// Next [`ChaosPlan`] slot a stint takes; slots past the plan run
    /// fault-free.
    next_plan_slot: AtomicUsize,
    /// Additional co-scheduling claims to re-queue (shared jobs only).
    /// Mutated only under the queue lock.
    remaining_claims: AtomicUsize,
    /// Queue entries currently outstanding for this job. Mutated only
    /// under the queue lock.
    queued_entries: AtomicUsize,
    /// Stints currently between claim and post-stint bookkeeping.
    /// Mutated only under the queue lock.
    active_stints: AtomicUsize,
    /// Recovery dispatches so far.
    recoveries: AtomicUsize,
    /// Set once a stint of this job unwound from a panic. Such a job
    /// takes no more helper stints, so only its queued claims and a
    /// bounded number of recovery stints retry it.
    unwound: AtomicBool,
    /// Set once, by whichever stint publishes the result.
    published: AtomicBool,
    submitted: Instant,
    first_start: Mutex<Option<Instant>>,
    stint_metrics: Mutex<Vec<WorkerMetrics>>,
    done: Mutex<Option<JobResult<K>>>,
    ready: Condvar,
}

impl<K: Ord + Clone + Send + Sync> JobState<K> {
    fn is_sequential(&self) -> bool {
        matches!(self.work, Work::Sequential(_))
    }

    /// Whether an idle worker may still join this job as a helper
    /// stint: an unpublished, incomplete cohort job with no chaos plan
    /// (a helper would consume a scripted plan slot out from under the
    /// fault schedule), no budget (helper checkpoints would drain the
    /// tenant's budget behind its back), and no unwound stint (helpers
    /// could keep re-running a panicking unit without ever stranding
    /// the job).
    fn joinable(&self) -> bool {
        if self.plan.is_some()
            || self.budget.is_some()
            || self.published.load(Ordering::Acquire)
            || self.unwound.load(Ordering::Acquire)
        {
            return false;
        }
        self.work.cohort().is_some_and(|job| !job.is_complete())
    }
}

/// Composes the service's per-stint stopping conditions — budget, then
/// deadline, then the chaos script — and remembers which one fired.
struct StintParticipation<'a> {
    budget: Option<SharedBudget<'a>>,
    deadline: Option<Instant>,
    chaos: Option<ChaosParticipation<'a>>,
    checks: u32,
    cause: Option<StopCause>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopCause {
    Budget,
    Deadline,
    Chaos,
}

impl<'a> StintParticipation<'a> {
    fn for_job<K: Ord>(job: &'a JobState<K>) -> Self {
        let chaos = job.plan.as_ref().and_then(|plan| {
            let slot = job.next_plan_slot.fetch_add(1, Ordering::Relaxed);
            (slot < plan.workers()).then(|| ChaosParticipation::new(plan, slot))
        });
        StintParticipation {
            budget: job
                .budget
                .as_ref()
                .map(|(spent, limit)| SharedBudget::new(spent, *limit)),
            deadline: job.deadline,
            chaos,
            checks: 0,
            cause: None,
        }
    }
}

impl Participation for StintParticipation<'_> {
    fn keep_going(&mut self) -> bool {
        if let Some(budget) = &mut self.budget {
            if !budget.keep_going() {
                self.cause = Some(StopCause::Budget);
                return false;
            }
        }
        if let Some(until) = self.deadline {
            // Sample the clock on the first check and every 16th after,
            // like `WithDeadline`: cheap, and an already-expired deadline
            // is noticed at the first checkpoint.
            self.checks = self.checks.wrapping_add(1);
            if self.checks & 15 == 1 && Instant::now() >= until {
                self.cause = Some(StopCause::Deadline);
                return false;
            }
        }
        if let Some(chaos) = &mut self.chaos {
            if !chaos.keep_going() {
                self.cause = Some(StopCause::Chaos);
                return false;
            }
        }
        true
    }
}

/// The scheduler's shared state, guarded by one mutex: the admission
/// queue plus the help list of in-flight cohort jobs an idle worker may
/// join. All claim bookkeeping happens under this lock.
struct SchedState<K: Ord> {
    /// Admitted jobs awaiting their first worker, plus co-scheduling
    /// re-claims, recovery entries, and stale entries of published jobs.
    queue: VecDeque<Arc<JobState<K>>>,
    /// Admitted jobs no worker has claimed yet: what the admission bound
    /// and [`SortService::queue_depth`] count.
    unclaimed: usize,
    /// In-flight plan-free, budget-free cohort jobs idle workers can
    /// join as work-conserving helpers. Pruned lazily: published or
    /// completed entries fall out on the next scan.
    helpable: Vec<Arc<JobState<K>>>,
}

impl<K: Ord> SchedState<K> {
    /// Removes the queue entry at `index`. The first entry of a job to
    /// leave the queue is its admission entry: from then on the job no
    /// longer counts as unclaimed.
    fn take(&mut self, index: usize) -> Arc<JobState<K>> {
        let job = self.queue.remove(index).expect("index is a live entry");
        job.queued_entries.fetch_sub(1, Ordering::Relaxed);
        if !job.claimed.swap(true, Ordering::Relaxed) {
            self.unclaimed -= 1;
        }
        job
    }
}

struct Inner<K: Ord> {
    config: ServiceConfig,
    sched: Mutex<SchedState<K>>,
    work_ready: Condvar,
    accepting: AtomicBool,
    next_id: AtomicU64,
    registry: Mutex<WatchdogRegistry>,
    counters: Counters,
}

/// A multi-tenant sort service: a shared worker pool, a bounded
/// admission queue, per-job deadlines/budgets, chaos-proven tenant
/// isolation, and graceful shutdown. See the [module docs](self) for
/// the full tour and an example.
#[derive(Debug)]
pub struct SortService<K: Ord + Clone + Send + Sync + 'static> {
    inner: Arc<Inner<K>>,
    pool: Vec<JoinHandle<()>>,
}

impl<K: Ord> fmt::Debug for Inner<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("config", &self.config)
            .field("accepting", &self.accepting)
            .finish_non_exhaustive()
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> SortService<K> {
    /// Starts the service: spawns [`ServiceConfig::workers`] pool
    /// threads, all initially idle on the admission queue.
    pub fn start(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            config: config.clone(),
            sched: Mutex::new(SchedState {
                queue: VecDeque::new(),
                unclaimed: 0,
                helpable: Vec::new(),
            }),
            work_ready: Condvar::new(),
            accepting: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            registry: Mutex::new(WatchdogRegistry::new()),
            counters: Counters::default(),
        });
        let pool = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        SortService { inner, pool }
    }

    /// Submits `keys` for sorting. Non-blocking: returns a
    /// [`JobTicket`] on admission or a typed [`Rejected`] error when the
    /// queue is full or the service is shutting down.
    pub fn submit(&self, keys: Vec<K>, options: JobOptions) -> Result<JobTicket<K>, Rejected> {
        let inner = &*self.inner;
        if !inner.accepting.load(Ordering::Acquire) {
            inner
                .counters
                .rejected_shutting_down
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ShuttingDown);
        }
        let n = keys.len();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        // One sequential stint is the cheapest route below both cutoffs
        // (E32); `sharded_cutoff` takes precedence over the small one. A
        // plan forces the shared path so crashes exercise the wait-free
        // recovery story even on small inputs; a budget counts
        // participation checks, which only the shared path has; more than
        // one helper asks for a cohort outright.
        let sequential_below = inner
            .config
            .small_sort_cutoff
            .min(inner.config.sharded_cutoff);
        let sequential = n < 2
            || (n < sequential_below
                && options.plan.is_none()
                && options.budget.is_none()
                && options.helpers.is_none_or(|h| h <= 1));
        let helpers = options
            .helpers
            .or_else(|| options.plan.as_ref().map(|p| p.workers()))
            .unwrap_or(inner.config.workers)
            .max(1);
        let work = if sequential {
            Work::Sequential(Mutex::new(Some(keys)))
        } else {
            // Heartbeat slots for every possible stint: the co-scheduled
            // claims, the recovery stints, slack for a stale claim
            // racing a recovery — and, on jobs idle workers may join as
            // helpers (no plan, no budget), the whole pool.
            let slots = if options.plan.is_none() && options.budget.is_none() {
                helpers.max(inner.config.workers)
            } else {
                helpers
            };
            let tracked = slots + inner.config.max_recoveries + 2;
            if n >= inner.config.sharded_cutoff {
                // Large tenant: the duplicate-robust sharded pipeline.
                // A chaos plan rides along — sharded stints replay
                // their fault scripts at shard granularity, exactly
                // like single-tree stints replay theirs.
                let shards = recommended_shards(n, helpers);
                Work::Sharded(Box::new(ShardedSortJob::with_workers(
                    keys,
                    NativeAllocation::Deterministic,
                    tracked,
                    shards,
                )))
            } else {
                let grain = recommended_grain(n, helpers);
                Work::Tree(Box::new(SortJob::with_grain(
                    keys,
                    NativeAllocation::Deterministic,
                    tracked,
                    grain,
                )))
            }
        };
        let job = Arc::new(JobState {
            id,
            n,
            work,
            deadline: options
                .deadline
                .or(inner.config.default_deadline)
                .map(|d| Instant::now() + d),
            budget: options.budget.map(|limit| (AtomicU64::new(0), limit)),
            plan: options.plan,
            weight: u64::from(options.weight.unwrap_or(1).max(1)),
            sched_credit: AtomicU64::new(0),
            helper_listed: AtomicBool::new(false),
            claimed: AtomicBool::new(false),
            next_plan_slot: AtomicUsize::new(0),
            remaining_claims: AtomicUsize::new(if sequential { 0 } else { helpers - 1 }),
            queued_entries: AtomicUsize::new(0),
            active_stints: AtomicUsize::new(0),
            recoveries: AtomicUsize::new(0),
            unwound: AtomicBool::new(false),
            published: AtomicBool::new(false),
            submitted: Instant::now(),
            first_start: Mutex::new(None),
            stint_metrics: Mutex::new(Vec::new()),
            done: Mutex::new(None),
            ready: Condvar::new(),
        });
        {
            let mut sched = inner.sched.lock().unwrap();
            // Re-check under the lock so a shutdown that drained the
            // queue cannot miss a racing submission.
            if !inner.accepting.load(Ordering::Acquire) {
                inner
                    .counters
                    .rejected_shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::ShuttingDown);
            }
            if sched.unclaimed >= inner.config.queue_capacity {
                inner
                    .counters
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::QueueFull {
                    capacity: inner.config.queue_capacity,
                });
            }
            job.queued_entries.fetch_add(1, Ordering::Relaxed);
            sched.queue.push_back(Arc::clone(&job));
            sched.unclaimed += 1;
        }
        if !sequential {
            inner.registry.lock().unwrap().register(id);
        }
        inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.inner.work_ready.notify_all();
        Ok(JobTicket { state: job })
    }

    /// Snapshot of the service-level counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.counters.snapshot()
    }

    /// Jobs admitted but not yet claimed by any worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.sched.lock().unwrap().unclaimed
    }

    /// The most recent watchdog progress snapshot for job `id`: the
    /// per-participant heartbeat view for single-tree cohort jobs, the
    /// WAT-frontier fold ([`crate::ShardedSortJob::progress`]) for
    /// sharded ones. Stints feed the [`WatchdogRegistry`] when they
    /// stop for a scripted fault or abandon a job incomplete, so this
    /// returns `None` for sequential jobs, for jobs no stint has reported
    /// on yet, and for jobs already published (publication retires the
    /// registry entry). Telemetry only: the recovery decision rides the
    /// service's exact stint accounting, not this snapshot.
    pub fn job_progress(&self, id: u64) -> Option<ProgressReport> {
        self.inner.registry.lock().unwrap().last(id).cloned()
    }

    /// Stops admitting new jobs — submissions from here on get
    /// [`Rejected::ShuttingDown`] — while the pool keeps draining
    /// everything already admitted. Idempotent; [`SortService::shutdown`]
    /// implies it. Lets a tenant thread observe the typed rejection while
    /// another thread owns the eventual `shutdown()`.
    pub fn begin_shutdown(&self) {
        self.stop_accepting();
    }

    /// Graceful shutdown: stops admitting (new submissions get
    /// [`Rejected::ShuttingDown`]), drains every queued and in-flight
    /// job to publication, joins the pool, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.inner.counters.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        self.stop_accepting();
        for handle in self.pool.drain(..) {
            let _ = handle.join();
        }
    }

    /// Clears `accepting` and wakes the pool, both under the queue lock.
    /// An idle worker reads the flag under that lock right before it
    /// waits on `work_ready`; a flip without the lock can land between
    /// that read and the wait, lose this wakeup, and leave the worker
    /// asleep while `shutdown` joins it forever. A poisoned lock is
    /// recovered: only the flag changes, and `Drop` runs this too.
    fn stop_accepting(&self) {
        let _sched = self
            .inner
            .sched
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.accepting.store(false, Ordering::Release);
        self.inner.work_ready.notify_all();
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> Drop for SortService<K> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop<K: Ord + Clone + Send + Sync>(inner: &Inner<K>) {
    while let Some(job) = next_job(inner) {
        run_stint(inner, &job);
    }
}

/// Blocks for the next stint; `None` once the service stops accepting,
/// the queue is fully drained, and nothing in flight can use a helper.
/// All claim bookkeeping happens under the queue lock.
///
/// Queued jobs are picked deficit-style (see [`JobOptions::weight`]);
/// when the queue is empty the worker joins the largest joinable
/// in-flight cohort job as a work-conserving helper stint instead of
/// sleeping on `work_ready`.
fn next_job<K: Ord + Clone + Send + Sync>(inner: &Inner<K>) -> Option<Arc<JobState<K>>> {
    let mut sched = inner.sched.lock().unwrap();
    loop {
        if let Some((job, overtook)) = pick_queued(&mut sched) {
            if job.remaining_claims.load(Ordering::Relaxed) > 0 {
                // Leave a claim behind so another idle worker co-joins.
                job.remaining_claims.fetch_sub(1, Ordering::Relaxed);
                job.queued_entries.fetch_add(1, Ordering::Relaxed);
                sched.queue.push_back(Arc::clone(&job));
                inner.work_ready.notify_one();
            }
            job.active_stints.fetch_add(1, Ordering::Relaxed);
            inner.counters.queue_picks.fetch_add(1, Ordering::Relaxed);
            if overtook {
                inner
                    .counters
                    .weighted_picks
                    .fetch_add(1, Ordering::Relaxed);
            }
            // First claim of a plan-free, budget-free cohort job: list
            // it for helper joins and wake the idle part of the pool.
            if !job.is_sequential()
                && job.plan.is_none()
                && job.budget.is_none()
                && !job.helper_listed.swap(true, Ordering::Relaxed)
            {
                sched.helpable.push(Arc::clone(&job));
                inner.work_ready.notify_all();
            }
            return Some(job);
        }
        if let Some(job) = pick_helpable(&mut sched) {
            job.active_stints.fetch_add(1, Ordering::Relaxed);
            inner.counters.helper_stints.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        if !inner.accepting.load(Ordering::Acquire) {
            return None;
        }
        sched = inner.work_ready.wait(sched).unwrap();
    }
}

/// Removes and returns the scheduler's next queued job, skipping stale
/// entries for already-published jobs. The pick is deficit-style: the
/// entry with the most accrued credit wins, ties break toward higher
/// weight and then queue order (so unweighted workloads stay FIFO);
/// every passed-over entry accrues its weight in credit and the
/// winner's credit resets. The returned flag reports whether the pick
/// overtook FIFO order — the winner was not the queue front.
fn pick_queued<K: Ord>(sched: &mut SchedState<K>) -> Option<(Arc<JobState<K>>, bool)> {
    loop {
        if sched.queue.is_empty() {
            return None;
        }
        let mut best = 0;
        let mut best_credit = sched.queue[0].sched_credit.load(Ordering::Relaxed);
        let mut best_weight = sched.queue[0].weight;
        for index in 1..sched.queue.len() {
            let credit = sched.queue[index].sched_credit.load(Ordering::Relaxed);
            let weight = sched.queue[index].weight;
            if credit > best_credit || (credit == best_credit && weight > best_weight) {
                best = index;
                best_credit = credit;
                best_weight = weight;
            }
        }
        let overtook = best != 0;
        let job = sched.take(best);
        if job.published.load(Ordering::Acquire) {
            continue; // stale claim of an already-published job
        }
        for passed in sched.queue.iter() {
            passed
                .sched_credit
                .fetch_add(passed.weight, Ordering::Relaxed);
        }
        job.sched_credit.store(0, Ordering::Relaxed);
        return Some((job, overtook));
    }
}

/// The largest in-flight job an idle worker can still join as a helper
/// stint, pruning entries that published or completed. `None` when no
/// in-flight job can use another participant.
fn pick_helpable<K: Ord + Clone + Send + Sync>(
    sched: &mut SchedState<K>,
) -> Option<Arc<JobState<K>>> {
    sched.helpable.retain(|job| job.joinable());
    sched
        .helpable
        .iter()
        .max_by_key(|job| job.n)
        .map(Arc::clone)
}

/// Runs one stint of `job` on the calling worker, in one of two arms: the
/// sequential arm, or the cohort arm that the tree and sharded jobs
/// share (one generic body, so every checkpoint stays statically
/// dispatched). Both arms run the user's `Ord` under `catch_unwind`: a
/// stint that unwinds is reaped like a crashed worker through
/// [`recover_or_fail`], so a panicking comparator fails its own job with
/// a typed error and never kills a pool thread.
fn run_stint<K: Ord + Clone + Send + Sync>(inner: &Inner<K>, job: &Arc<JobState<K>>) {
    job.first_start
        .lock()
        .unwrap()
        .get_or_insert_with(Instant::now);
    match &job.work {
        Work::Sequential(keys) => sequential_stint(inner, job, keys),
        Work::Tree(tree) => cohort_stint(inner, job, &**tree),
        Work::Sharded(sharded) => cohort_stint(inner, job, &**sharded),
    }
}

/// The sequential arm: takes the keys, checks the deadline once, sorts
/// them in place with `slice::sort` — the stable bit-identity oracle
/// itself — and publishes. A job under two keys is already sorted and
/// never misses its deadline. The stint records one empty
/// [`WorkerMetrics`], so [`JobReport::stints`] counts it.
fn sequential_stint<K: Ord + Clone + Send + Sync>(
    inner: &Inner<K>,
    job: &Arc<JobState<K>>,
    pending: &Mutex<Option<Vec<K>>>,
) {
    let Some(mut keys) = pending.lock().unwrap().take() else {
        finish_stint(inner, job);
        return;
    };
    job.stint_metrics
        .lock()
        .unwrap()
        .push(WorkerMetrics::default());
    if keys.len() >= 2 && job.deadline.is_some_and(|until| Instant::now() >= until) {
        publish(inner, job, Err(JobError::DeadlineExpired));
        finish_stint(inner, job);
        return;
    }
    match panic::catch_unwind(AssertUnwindSafe(|| keys.sort())) {
        Ok(()) => {
            publish(inner, job, Ok(keys));
            finish_stint(inner, job);
        }
        Err(_) => {
            // When `cmp` panics, std's sort leaves a permutation of its
            // input in place: put the keys back for a recovery stint and
            // reap this one like a crashed worker.
            *pending.lock().unwrap() = Some(keys);
            recover_or_fail(inner, job);
        }
    }
}

/// The cohort arm, one body for the single-tree and sharded jobs:
/// participate under the job's stopping conditions, then publish the
/// gathered keys if the job is complete, fail it typed if the budget or
/// deadline stopped the stint, or hand it to the recovery path.
///
/// The participation and the gather run under `catch_unwind`. A user
/// `Ord` may panic anywhere, and a sharded unit's leaf sort (std's
/// `sort_by`) may panic on an `Ord` that is not a total order. The panic
/// unwinds before the work it interrupted is published, so the job stays
/// redoable: count the stint as a crashed worker, stop listing the job
/// for helpers, and let the recovery path redo the work or fail the job
/// with `WorkersLost`.
fn cohort_stint<K: Ord + Clone + Send + Sync>(
    inner: &Inner<K>,
    job: &Arc<JobState<K>>,
    work: &impl CohortJob<K>,
) {
    let mut participation = StintParticipation::for_job(job);
    let slot = MetricSlot::new();
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        work.participate_instrumented(&mut participation, &slot);
        work.is_complete().then(|| {
            let mut out = Vec::with_capacity(job.n);
            work.sorted_into(&mut out);
            out
        })
    }));
    job.stint_metrics.lock().unwrap().push(slot.snapshot());
    match run {
        Ok(Some(out)) => {
            publish(inner, job, Ok(out));
            finish_stint(inner, job);
            return;
        }
        Ok(None) => {}
        Err(_) => job.unwound.store(true, Ordering::Release),
    }
    // A comparison panics while `keep_going` still says yes, so an
    // unwound stint carries no stop cause and takes the crash arm.
    match participation.cause {
        Some(StopCause::Deadline) | Some(StopCause::Budget) => {
            publish(inner, job, Err(stint_error(job, participation.cause)));
            finish_stint(inner, job);
        }
        Some(StopCause::Chaos) | None => {
            // A scripted crash, an unwind, or an abandoned incomplete
            // stint. Feed the progress snapshot — per-participant
            // heartbeats on the tree, the three WAT frontiers on the
            // sharded pipeline — to the watchdog registry, the service's
            // cross-job health ledger, then let the shared recovery path
            // decide whether the job is stranded.
            inner
                .registry
                .lock()
                .unwrap()
                .observe(job.id, work.progress());
            recover_or_fail(inner, job);
        }
    }
}

/// Post-crash bookkeeping shared by every stint: decide
/// under the queue lock whether the job is stranded — this was the last
/// active stint and nothing remains queued for it, so no running or
/// future worker will ever finish it — and either dispatch a recovery
/// stint (up to [`ServiceConfig::max_recoveries`]) or fail the job with
/// [`JobError::WorkersLost`].
fn recover_or_fail<K: Ord + Clone + Send + Sync>(inner: &Inner<K>, job: &Arc<JobState<K>>) {
    let mut sched = inner.sched.lock().unwrap();
    let stranded = job.active_stints.load(Ordering::Relaxed) == 1
        && job.queued_entries.load(Ordering::Relaxed) == 0
        && !job.published.load(Ordering::Acquire);
    if stranded {
        let dispatched = job.recoveries.fetch_add(1, Ordering::Relaxed);
        if dispatched < inner.config.max_recoveries {
            inner
                .counters
                .crash_recoveries
                .fetch_add(1, Ordering::Relaxed);
            job.queued_entries.fetch_add(1, Ordering::Relaxed);
            sched.queue.push_back(Arc::clone(job));
            job.active_stints.fetch_sub(1, Ordering::Relaxed);
            drop(sched);
            inner.work_ready.notify_one();
            return;
        }
        job.recoveries.fetch_sub(1, Ordering::Relaxed);
        job.active_stints.fetch_sub(1, Ordering::Relaxed);
        drop(sched);
        publish(
            inner,
            job,
            Err(JobError::WorkersLost {
                recoveries: inner.config.max_recoveries,
            }),
        );
        return;
    }
    job.active_stints.fetch_sub(1, Ordering::Relaxed);
}

/// Post-stint bookkeeping for the paths that did not already do it
/// inline: drops this stint from the job's active count.
fn finish_stint<K: Ord>(inner: &Inner<K>, job: &JobState<K>) {
    let _sched = inner.sched.lock().unwrap();
    job.active_stints.fetch_sub(1, Ordering::Relaxed);
}

fn stint_error<K: Ord>(job: &JobState<K>, cause: Option<StopCause>) -> JobError {
    match cause {
        Some(StopCause::Budget) => JobError::BudgetExhausted {
            budget: job.budget.as_ref().map(|(_, limit)| *limit).unwrap_or(0),
        },
        _ => JobError::DeadlineExpired,
    }
}

/// Publishes the job's result exactly once (first caller wins), updates
/// the service counters, wakes the ticket holder, and retires the job
/// from the watchdog registry.
fn publish<K: Ord + Clone + Send + Sync>(
    inner: &Inner<K>,
    job: &JobState<K>,
    sorted: Result<Vec<K>, JobError>,
) {
    if job
        .published
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    match &sorted {
        Ok(_) => inner.counters.completed.fetch_add(1, Ordering::Relaxed),
        Err(JobError::DeadlineExpired) => inner
            .counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed),
        Err(JobError::BudgetExhausted { .. }) => inner
            .counters
            .budget_exhausted
            .fetch_add(1, Ordering::Relaxed),
        Err(JobError::WorkersLost { .. }) => {
            inner.counters.workers_lost.fetch_add(1, Ordering::Relaxed)
        }
    };
    let elapsed = job.submitted.elapsed();
    let queued = job
        .first_start
        .lock()
        .unwrap()
        .map(|start| start.saturating_duration_since(job.submitted))
        .unwrap_or_default();
    let stints = job.stint_metrics.lock().unwrap().clone();
    let mut sort = SortReport::aggregate(stints, elapsed);
    if sorted.is_ok() {
        // A completed sharded job carries its per-shard statistics,
        // like the standalone sharded front-end's report does.
        sort.shard = job
            .work
            .cohort()
            .and_then(|cohort| cohort.shard_report_opt());
    }
    let report = JobReport {
        id: job.id,
        n: job.n,
        queued,
        elapsed,
        stints: sort.per_worker.len(),
        recoveries: job.recoveries.load(Ordering::Relaxed),
        sort,
    };
    inner.registry.lock().unwrap().unregister(job.id);
    let mut done = job.done.lock().unwrap();
    *done = Some(JobResult { sorted, report });
    job.ready.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::SortPhase;
    use rng::rngs::StdRng;
    use rng::{Rng, SeedableRng};

    fn random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
    }

    fn expect_sorted(keys: &[u64]) -> Vec<u64> {
        let mut out = keys.to_vec();
        out.sort_unstable();
        out
    }

    #[test]
    fn sorts_many_tenants_concurrently() {
        // Three helpers each: every tenant is a cohort job shared by the
        // whole pool.
        let service = SortService::start(ServiceConfig::default().workers(3));
        let inputs: Vec<Vec<u64>> = (0..8).map(|t| random_keys(4_000, 100 + t)).collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|keys| {
                service
                    .submit(keys.clone(), JobOptions::default().helpers(3))
                    .unwrap()
            })
            .collect();
        for (keys, ticket) in inputs.iter().zip(tickets) {
            let result = ticket.wait();
            assert_eq!(result.sorted.unwrap(), expect_sorted(keys));
            assert_eq!(result.report.n, keys.len());
            assert!(result.report.stints >= 1);
        }
        let stats = service.shutdown();
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed(), 0);
    }

    #[test]
    fn large_tenants_route_through_the_sharded_path() {
        // Cutoff lowered so the test stays fast: tenants above it run
        // on the overpartitioned sharded pipeline — including the
        // all-equal duplicate flood that used to collapse splitter
        // sampling — tenants below it keep the single-tree path, and a
        // sharded job under an impossible deadline still fails with the
        // typed error instead of hanging.
        let service = SortService::start(ServiceConfig::default().workers(2).sharded_cutoff(2_000));
        let flood = vec![42u64; 6_000];
        let mixed = random_keys(6_000, 400);
        let small = random_keys(1_500, 401);
        let t1 = service
            .submit(flood.clone(), JobOptions::default())
            .unwrap();
        let t2 = service
            .submit(mixed.clone(), JobOptions::default())
            .unwrap();
        let t3 = service
            .submit(small.clone(), JobOptions::default())
            .unwrap();
        assert_eq!(t1.wait().sorted.unwrap(), flood);
        assert_eq!(t2.wait().sorted.unwrap(), expect_sorted(&mixed));
        assert_eq!(t3.wait().sorted.unwrap(), expect_sorted(&small));
        let doomed = service
            .submit(
                mixed.clone(),
                JobOptions::default().deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(doomed.wait().sorted.unwrap_err(), JobError::DeadlineExpired);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.deadline_expired, 1);
    }

    #[derive(Debug, PartialEq)]
    enum Route {
        Sequential,
        Tree,
        Sharded,
    }

    /// The route a published job took, read from its report alone.
    fn route_of(report: &JobReport) -> Route {
        let sort = &report.sort;
        if sort.shard.is_some() {
            Route::Sharded
        } else if sort.per_phase.build.claims > 0 {
            Route::Tree
        } else {
            assert_eq!(report.stints, 1, "a sequential job runs one stint");
            Route::Sequential
        }
    }

    #[test]
    fn default_jobs_route_by_size_and_options() {
        // Red-first pin for cost-based routing. Below `sharded_cutoff`, a
        // default job sorts in one sequential stint, so presorted and
        // reversed tenants no longer meet the deterministic tree's
        // quadratic spine. More than one helper, a plan or a budget still
        // asks for the tree; `sharded_cutoff` takes precedence over the
        // small cutoff.
        let sharded_cutoff = ServiceConfig::default().sharded_cutoff;
        let uniform = random_keys(4_000, 920);
        let cases: Vec<(&str, ServiceConfig, Vec<u64>, JobOptions, Route)> = vec![
            (
                "presorted default",
                ServiceConfig::default(),
                (0..20_000).collect(),
                JobOptions::default(),
                Route::Sequential,
            ),
            (
                "reversed default",
                ServiceConfig::default(),
                (0..20_000).rev().collect(),
                JobOptions::default(),
                Route::Sequential,
            ),
            (
                "uniform with two helpers",
                ServiceConfig::default(),
                uniform.clone(),
                JobOptions::default().helpers(2),
                Route::Tree,
            ),
            (
                "small planned",
                ServiceConfig::default(),
                uniform.clone(),
                JobOptions::default().plan(ChaosPlan::new(1)),
                Route::Tree,
            ),
            (
                "small budgeted",
                ServiceConfig::default(),
                uniform,
                JobOptions::default().budget(1 << 40),
                Route::Tree,
            ),
            (
                "default at sharded_cutoff",
                ServiceConfig::default(),
                random_keys(sharded_cutoff, 921),
                JobOptions::default(),
                Route::Sharded,
            ),
            (
                "default past a lowered sharded_cutoff",
                ServiceConfig::default().sharded_cutoff(2_000),
                random_keys(6_000, 922),
                JobOptions::default(),
                Route::Sharded,
            ),
        ];
        for (case, config, keys, options, route) in cases {
            let service = SortService::start(config.workers(2));
            let result = service.submit(keys.clone(), options).unwrap().wait();
            assert_eq!(result.sorted.unwrap(), expect_sorted(&keys), "{case}");
            assert_eq!(route_of(&result.report), route, "{case}");
            service.shutdown();
        }
    }

    #[test]
    fn tiny_and_small_jobs_flow_through() {
        let service =
            SortService::start(ServiceConfig::default().workers(2).small_sort_cutoff(512));
        let empty = service
            .submit(Vec::<u64>::new(), JobOptions::default())
            .unwrap();
        let one = service.submit(vec![7u64], JobOptions::default()).unwrap();
        // One helper keeps a short job on the sequential route: one
        // stint of `slice::sort`, no pivot tree.
        let small = service
            .submit(vec![3u64, 1, 2], JobOptions::default().helpers(1))
            .unwrap();
        // A budget counts participation checks, so a budgeted short job
        // takes the cohort path, where the budget still binds.
        let budgeted = service
            .submit(
                random_keys(500, 1_000),
                JobOptions::default().helpers(1).budget(3),
            )
            .unwrap();
        assert_eq!(empty.wait().sorted.unwrap(), Vec::<u64>::new());
        assert_eq!(one.wait().sorted.unwrap(), vec![7]);
        let small = small.wait();
        assert_eq!(small.sorted.unwrap(), vec![1, 2, 3]);
        assert_eq!(small.report.stints, 1);
        assert_eq!(small.report.sort.per_phase.build.claims, 0);
        assert_eq!(
            budgeted.wait().sorted.unwrap_err(),
            JobError::BudgetExhausted { budget: 3 }
        );
        let stats = service.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.budget_exhausted, 1);
    }

    #[test]
    fn zero_deadline_fails_cleanly_without_affecting_others() {
        // Two helpers each keep both jobs on the tree, where the deadline
        // is sampled at the cohort's checkpoints.
        let service = SortService::start(ServiceConfig::default().workers(2));
        let keys = random_keys(4_000, 300);
        let doomed = service
            .submit(
                keys.clone(),
                JobOptions::default().deadline(Duration::ZERO).helpers(2),
            )
            .unwrap();
        let fine = service
            .submit(keys.clone(), JobOptions::default().helpers(2))
            .unwrap();
        assert_eq!(doomed.wait().sorted.unwrap_err(), JobError::DeadlineExpired);
        assert_eq!(fine.wait().sorted.unwrap(), expect_sorted(&keys));
        let stats = service.shutdown();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn tiny_jobs_never_miss_deadlines() {
        let service = SortService::start(ServiceConfig::default().workers(1));
        let ticket = service
            .submit(vec![5u64], JobOptions::default().deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(ticket.wait().sorted.unwrap(), vec![5]);
        service.shutdown();
    }

    #[test]
    fn budget_exhaustion_is_typed_and_isolated() {
        let service = SortService::start(ServiceConfig::default().workers(2));
        let keys = random_keys(8_000, 301);
        let starved = service
            .submit(keys.clone(), JobOptions::default().budget(3))
            .unwrap();
        let fine = service.submit(keys.clone(), JobOptions::default()).unwrap();
        assert_eq!(
            starved.wait().sorted.unwrap_err(),
            JobError::BudgetExhausted { budget: 3 }
        );
        assert_eq!(fine.wait().sorted.unwrap(), expect_sorted(&keys));
        let stats = service.shutdown();
        assert_eq!(stats.budget_exhausted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn crashed_job_recovers_and_completes() {
        let service = SortService::start(ServiceConfig::default().workers(2).max_recoveries(2));
        let keys = random_keys(4_000, 302);
        // Both chaos slots crash almost immediately; the recovery stint
        // runs fault-free and finishes the abandoned structures.
        let plan = ChaosPlan::new(2).crash_at(0, 3).crash_at(1, 5);
        let ticket = service
            .submit(keys.clone(), JobOptions::default().plan(plan).helpers(2))
            .unwrap();
        let result = ticket.wait();
        assert_eq!(result.sorted.unwrap(), expect_sorted(&keys));
        assert!(result.report.recoveries >= 1);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert!(stats.crash_recoveries >= 1);
        assert_eq!(stats.workers_lost, 0);
    }

    #[test]
    fn unrecoverable_job_fails_with_workers_lost() {
        // Chaos slots outnumber claims + recoveries, so every stint the
        // service can dispatch crashes and the job alone fails.
        let service = SortService::start(ServiceConfig::default().workers(1).max_recoveries(1));
        let keys = random_keys(4_000, 303);
        let plan = ChaosPlan::new(8)
            .crash_at(0, 1)
            .crash_at(1, 1)
            .crash_at(2, 1)
            .crash_at(3, 1)
            .crash_at(4, 1)
            .crash_at(5, 1)
            .crash_at(6, 1)
            .crash_at(7, 1);
        let doomed = service
            .submit(keys.clone(), JobOptions::default().plan(plan).helpers(2))
            .unwrap();
        let fine = service.submit(keys.clone(), JobOptions::default()).unwrap();
        assert_eq!(
            doomed.wait().sorted.unwrap_err(),
            JobError::WorkersLost { recoveries: 1 }
        );
        assert_eq!(fine.wait().sorted.unwrap(), expect_sorted(&keys));
        let stats = service.shutdown();
        assert_eq!(stats.workers_lost, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn queue_full_rejects_with_capacity() {
        // No workers consume fast enough to matter: capacity 2, then a
        // third submission while both slots are occupied. Stall the pool
        // with a long chaos pause? Simpler: one worker, first job large
        // enough to hold it while we overfill the queue.
        let service = SortService::start(
            ServiceConfig::default()
                .workers(1)
                .queue_capacity(2)
                .small_sort_cutoff(0),
        );
        let mut tickets = Vec::new();
        let mut rejected = 0;
        // Submit far more than capacity as fast as possible; at least one
        // must bounce (a single worker cannot drain 64 shared jobs of
        // this size instantly), and every admitted one must complete.
        for t in 0..64 {
            match service.submit(
                random_keys(2_000, 400 + t),
                JobOptions::default().helpers(1),
            ) {
                Ok(ticket) => tickets.push(ticket),
                Err(Rejected::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert!(rejected > 0, "64 instant submissions must overflow 2 slots");
        for ticket in tickets {
            assert!(ticket.wait().sorted.is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.rejected_queue_full, rejected);
        assert_eq!(stats.admitted + stats.rejected(), 64);
    }

    #[test]
    fn admission_counts_only_unclaimed_jobs() {
        // One worker, one admission slot. The occupier asks for two
        // stints, so its first claim re-queues a co-scheduling claim,
        // and its one scripted stint then pauses 200 ms inside the job.
        // Nothing is left unclaimed, so the slot is free: the re-claim
        // must neither show in queue_depth nor refuse the next job.
        let service = SortService::start(
            ServiceConfig::default()
                .workers(1)
                .queue_capacity(1)
                .small_sort_cutoff(0),
        );
        let occupier_keys = random_keys(4_000, 990);
        let occupier = service
            .submit(
                occupier_keys.clone(),
                JobOptions::default()
                    .helpers(2)
                    .plan(ChaosPlan::new(1).pause_at(0, 1, 200_000)),
            )
            .unwrap();
        let start = Instant::now();
        while service.stats().queue_picks < 1 {
            assert!(start.elapsed() < Duration::from_secs(30), "never claimed");
            std::thread::yield_now();
        }
        assert_eq!(service.queue_depth(), 0, "the occupier is claimed");
        let keys = random_keys(2_000, 991);
        let second = service
            .submit(keys.clone(), JobOptions::default().helpers(1))
            .expect("a co-scheduling re-claim is not an unclaimed job");
        assert_eq!(service.queue_depth(), 1);
        assert_eq!(
            occupier.wait().sorted.unwrap(),
            expect_sorted(&occupier_keys)
        );
        assert_eq!(second.wait().sorted.unwrap(), expect_sorted(&keys));
        let stats = service.shutdown();
        assert_eq!(stats.rejected_queue_full, 0);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn shutdown_drains_in_flight_and_rejects_new() {
        let service = SortService::start(ServiceConfig::default().workers(2));
        let inputs: Vec<Vec<u64>> = (0..4).map(|t| random_keys(3_000, 500 + t)).collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|keys| {
                service
                    .submit(keys.clone(), JobOptions::default().helpers(2))
                    .unwrap()
            })
            .collect();
        let stats = service.shutdown();
        // Every admitted job was drained to publication before shutdown
        // returned...
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.completed, 4);
        for (keys, ticket) in inputs.iter().zip(tickets) {
            let result = ticket.try_wait().expect("drained before shutdown returned");
            assert_eq!(result.sorted.unwrap(), expect_sorted(keys));
        }
    }

    /// Red-first pin for a lost wakeup: `shutdown` used to clear
    /// `accepting` without the queue lock, so the flip could land between
    /// an idle worker's flag check and its wait, and the join then hung
    /// forever. The race depends on timing, so this cycles start and
    /// shutdown many times and fails by timeout instead of hanging.
    #[test]
    fn shutdown_never_strands_an_idle_worker() {
        let (tx, rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..2_000 {
                SortService::<u64>::start(ServiceConfig::default().workers(2)).shutdown();
            }
            tx.send(()).expect("the test thread is waiting");
        });
        assert_ne!(
            rx.recv_timeout(Duration::from_secs(60)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "a shutdown hung: an idle worker missed the stop wakeup"
        );
        cycles.join().expect("start/shutdown cycles do not panic");
    }

    #[test]
    fn submissions_after_shutdown_are_typed_rejections() {
        let service = SortService::start(ServiceConfig::default().workers(1));
        let service_ref = &service;
        let ticket = service_ref
            .submit(random_keys(100, 600), JobOptions::default())
            .unwrap();
        assert!(ticket.wait().sorted.is_ok());
        service.begin_shutdown();
        assert_eq!(
            service
                .submit(random_keys(100, 601), JobOptions::default())
                .unwrap_err(),
            Rejected::ShuttingDown
        );
        let stats = service.shutdown();
        assert_eq!(stats.rejected_shutting_down, 1);
    }

    #[test]
    fn ticket_try_wait_round_trips() {
        let service = SortService::start(ServiceConfig::default().workers(1));
        let ticket = service
            .submit(random_keys(500, 700), JobOptions::default())
            .unwrap();
        let id = ticket.id();
        // Redeem through try_wait, looping like a poller would.
        let mut ticket = Some(ticket);
        let result = loop {
            match ticket.take().unwrap().try_wait() {
                Ok(result) => break result,
                Err(t) => {
                    ticket = Some(t);
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(result.report.id, id);
        assert!(result.sorted.is_ok());
        service.shutdown();
    }

    #[test]
    fn scripted_plans_ride_the_sharded_pipeline() {
        // Red-first pin for the inert-plan bug: a tenant past
        // `sharded_cutoff` that also carries a `ChaosPlan` must run the
        // sharded pipeline *and* replay its fault script there. Before
        // the fix, a plan silently forced the single-tree path, so the
        // sharded pipeline was never exercised under service chaos.
        let service = SortService::start(
            ServiceConfig::default()
                .workers(2)
                .sharded_cutoff(2_000)
                .max_recoveries(2),
        );
        let keys = random_keys(6_000, 900);
        let plan = ChaosPlan::new(2).crash_at(0, 40).crash_at(1, 80);
        let ticket = service
            .submit(keys.clone(), JobOptions::default().plan(plan).helpers(2))
            .unwrap();
        let result = ticket.wait();
        assert_eq!(result.sorted.unwrap(), expect_sorted(&keys));
        assert!(result.report.recoveries >= 1, "both scripted stints crash");
        assert!(
            result.report.sort.per_phase.partition.claims > 0,
            "a chaos-planned large tenant must run the sharded partition \
             phase, not fall back to the single tree"
        );
        let stats = service.shutdown();
        assert!(stats.crash_recoveries >= 1);
        assert_eq!(stats.completed, 1);
    }

    /// Counts comparisons between two armed [`Flaky`] keys.
    static FLAKY_COMPARISONS: AtomicU64 = AtomicU64::new(0);

    /// A key whose `Ord` is not a total order when `armed`: every 101st
    /// comparison between two armed keys answers the reverse of the
    /// truth. Disarmed keys compare honestly.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Flaky {
        value: u64,
        armed: bool,
    }

    impl Ord for Flaky {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let honest = self.value.cmp(&other.value);
            let flip = self.armed
                && other.armed
                && FLAKY_COMPARISONS.fetch_add(1, Ordering::Relaxed) % 101 == 100;
            if flip {
                honest.reverse()
            } else {
                honest
            }
        }
    }

    impl PartialOrd for Flaky {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    fn flaky_keys(n: usize, seed: u64, armed: bool) -> Vec<Flaky> {
        random_keys(n, seed)
            .into_iter()
            .map(|value| Flaky { value, armed })
            .collect()
    }

    fn values(keys: &[Flaky]) -> Vec<u64> {
        keys.iter().map(|k| k.value).collect()
    }

    #[test]
    fn panicking_sharded_stint_is_reaped_like_a_crash() {
        // A sharded job's leaf sorts run std's `sort_by` on pool
        // threads, and it may panic on an `Ord` that is not a total
        // order. The unwind must be reaped like a crashed worker: the
        // job publishes — its keys, or `WorkersLost` once the recovery
        // stints panic too — instead of stranding its ticket, the pool
        // keeps the worker, and the ledger balances. A lone worker
        // classifies each block once, so only the leaf sorts see the
        // flips and a published output must hold exactly the input
        // keys. Two workers may classify a block twice with different
        // answers; that case pins termination and reaping only (an
        // inconsistent `Ord` under racing classifiers is a separate
        // robustness item).
        for workers in [1, 2] {
            let service = SortService::start(
                ServiceConfig::default()
                    .workers(workers)
                    .sharded_cutoff(2_000)
                    .max_recoveries(2),
            );
            let flaky = flaky_keys(20_000, 911, true);
            let result = service
                .submit(flaky.clone(), JobOptions::default().helpers(workers))
                .unwrap()
                .wait();
            match result.sorted {
                Ok(out) if workers == 1 => {
                    let mut got = values(&out);
                    got.sort_unstable();
                    assert_eq!(got, expect_sorted(&values(&flaky)));
                }
                Ok(out) => assert_eq!(out.len(), flaky.len()),
                Err(err) => assert_eq!(err, JobError::WorkersLost { recoveries: 2 }),
            }
            if workers == 1 {
                // A lone worker's unwind always strands the job, so a
                // recovery dispatch shows the panic path ran.
                assert!(
                    result.report.recoveries >= 1,
                    "the flips must trip the leaf sort's panic"
                );
            }
            // The pool still has its workers: an honest tenant completes.
            let honest = flaky_keys(20_000, 912, false);
            let out = service
                .submit(honest.clone(), JobOptions::default())
                .unwrap()
                .wait()
                .sorted
                .unwrap();
            assert_eq!(values(&out), expect_sorted(&values(&honest)));
            let stats = service.shutdown();
            assert_eq!(stats.admitted, 2);
            assert_eq!(stats.completed + stats.failed(), stats.admitted);
        }
    }

    /// A key whose `cmp` panics whenever both sides lie in
    /// `POISONED`: every stint that compares two such keys panics, on
    /// every retry.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Poisoned(u64);

    const POISONED: std::ops::Range<u64> = 500_000..502_000;

    impl Ord for Poisoned {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let poisoned = POISONED.contains(&self.0) && POISONED.contains(&other.0);
            assert!(!poisoned, "poisoned comparison");
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Poisoned {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Waits for `ticket` on another thread, so a job that is never
    /// published fails the test by timeout instead of hanging it.
    fn wait_or_time_out<K: Ord + Send + Sync + 'static>(
        ticket: JobTicket<K>,
        what: &str,
    ) -> JobResult<K> {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(ticket.wait());
        });
        let result = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what}: the job was never published"));
        waiter.join().expect("the waiter only waits");
        result
    }

    #[test]
    fn deterministic_stint_panic_fails_typed_instead_of_cycling_helpers() {
        // Every stint of this job panics, on each route: the sequential
        // sort, the tree build and the sharded units all compare two
        // poisoned keys. Each unwound stint must be reaped like a crash,
        // and helpers must stop joining the job once a stint has
        // unwound: otherwise two workers can take turns re-running it,
        // each panicking while the other is still active, so the job is
        // never stranded and never published.
        for (route, n) in [("sequential", 500), ("tree", 1_500), ("sharded", 20_000)] {
            for workers in [1, 2] {
                let case = format!("{route} route, {workers} workers");
                // The small cutoff puts the one-helper 1 500-key job on
                // the tree.
                let service = SortService::start(
                    ServiceConfig::default()
                        .workers(workers)
                        .small_sort_cutoff(1_000)
                        .sharded_cutoff(2_000)
                        .max_recoveries(2),
                );
                let mut keys: Vec<Poisoned> =
                    random_keys(n, 913).into_iter().map(Poisoned).collect();
                // Keys adjacent in sorted order are compared by every
                // comparison sort, and one is the other's ancestor in the
                // pivot tree, so two poisoned keys make a poisoned
                // comparison certain.
                keys[n / 3] = Poisoned(POISONED.start);
                keys[2 * n / 3] = Poisoned(POISONED.start + 1);
                let helpers = if route == "sequential" { 1 } else { workers };
                let ticket = service
                    .submit(keys, JobOptions::default().helpers(helpers))
                    .unwrap();
                let result = wait_or_time_out(ticket, &case);
                assert_eq!(
                    result.sorted.unwrap_err(),
                    JobError::WorkersLost { recoveries: 2 },
                    "{case}"
                );
                // Queue claims, two recoveries and at most one helper
                // join per worker before the first unwind; without the
                // gate the stints run into the thousands before one
                // strands the job.
                assert!(
                    result.report.stints <= 2 * workers + 2,
                    "{case}: {} stints",
                    result.report.stints
                );
                // The pool kept its workers: an honest tenant completes.
                let honest: Vec<Poisoned> = random_keys(4_000, 914)
                    .into_iter()
                    .map(|value| Poisoned(value / 2))
                    .collect();
                let ticket = service
                    .submit(honest.clone(), JobOptions::default())
                    .unwrap();
                let out = wait_or_time_out(ticket, &case).sorted.unwrap();
                let mut expect = honest;
                expect.sort();
                assert_eq!(out, expect, "{case}");
                let stats = service.shutdown();
                assert_eq!(stats.workers_lost, 1);
                assert_eq!(stats.completed + stats.failed(), stats.admitted);
            }
        }
    }

    #[test]
    fn sharded_job_progress_feeds_the_watchdog() {
        // Red-first pin for the sharded observe blind spot: a crashing
        // sharded stint must feed the watchdog registry a snapshot
        // built from the three sharded WAT frontiers. The first stint
        // crashes mid-partition (observing on the way out); the
        // recovery stint pauses half a second at its first checkpoint,
        // holding the job in flight while the test reads the snapshot.
        let service = SortService::start(ServiceConfig::default().workers(1).sharded_cutoff(2_000));
        let keys = random_keys(6_000, 901);
        let plan = ChaosPlan::new(2).crash_at(0, 60).pause_at(1, 1, 500_000);
        let ticket = service
            .submit(keys.clone(), JobOptions::default().plan(plan).helpers(1))
            .unwrap();
        let id = ticket.id();
        let poll_until = Instant::now() + Duration::from_secs(10);
        let report = loop {
            if let Some(report) = service.job_progress(id) {
                break report;
            }
            assert!(
                Instant::now() < poll_until,
                "no progress snapshot observed for the crashed sharded stint"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(!report.complete);
        assert!(
            report.phase >= SortPhase::Partition,
            "snapshot must come from the sharded pipeline, got {:?}",
            report.phase
        );
        assert!(report.build_jobs_total > 0);
        assert_eq!(ticket.wait().sorted.unwrap(), expect_sorted(&keys));
        service.shutdown();
    }

    #[test]
    fn idle_workers_join_the_largest_inflight_job() {
        // Red-first pin for work conservation: one large planless
        // tenant claimed by a single stint, empty queue — the three
        // idle workers must join it as helper stints instead of
        // sleeping on `work_ready`.
        let service = SortService::start(ServiceConfig::default().workers(4).sharded_cutoff(4_096));
        let keys = random_keys(120_000, 907);
        let ticket = service
            .submit(keys.clone(), JobOptions::default().helpers(1))
            .unwrap();
        let result = ticket.wait();
        assert_eq!(result.sorted.unwrap(), expect_sorted(&keys));
        let stats = service.shutdown();
        assert!(
            stats.helper_stints > 0,
            "idle workers must have joined the in-flight job: {stats:?}"
        );
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.completed + stats.failed(), stats.admitted);
    }

    #[test]
    fn weighted_tenants_overtake_fifo_order() {
        // Red-first pin for weighted scheduling: with the pool blocked,
        // a weight-8 tenant queued *behind* a weight-1 tenant must be
        // picked first once the worker frees (equal accrued credit
        // breaks toward the higher weight).
        let service = SortService::start(ServiceConfig::default().workers(1));
        let big = random_keys(2_000, 908);
        let pause = ChaosPlan::new(1).pause_at(0, 1, 100_000);
        let blocker = service
            .submit(big.clone(), JobOptions::default().plan(pause).helpers(1))
            .unwrap();
        // Let the worker claim the blocker first: a tenant queued beside
        // it would accrue credit when the blocker wins the pick, and then
        // rightly overtake the weight-8 tenant.
        while service.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let a_keys = random_keys(3_000, 909);
        let b_keys = random_keys(3_000, 910);
        let a = service
            .submit(a_keys.clone(), JobOptions::default().helpers(1).weight(1))
            .unwrap();
        let b = service
            .submit(b_keys.clone(), JobOptions::default().helpers(1).weight(8))
            .unwrap();
        assert_eq!(blocker.wait().sorted.unwrap(), expect_sorted(&big));
        let a_result = a.wait();
        let b_result = b.wait();
        assert_eq!(a_result.sorted.unwrap(), expect_sorted(&a_keys));
        assert_eq!(b_result.sorted.unwrap(), expect_sorted(&b_keys));
        assert!(
            b_result.report.queued < a_result.report.queued,
            "the weight-8 tenant must start before the weight-1 tenant \
             queued ahead of it (b queued {:?}, a queued {:?})",
            b_result.report.queued,
            a_result.report.queued
        );
        let stats = service.shutdown();
        assert!(
            stats.weighted_picks >= 1,
            "picking b over a is a weighted pick"
        );
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn service_report_telemetry_is_finite_and_consistent() {
        // One worker on the tree: the single stint's telemetry must cover
        // the whole input (with co-scheduled stints the publisher may race
        // a sibling's metrics push, so coverage is only eventual).
        let service = SortService::start(ServiceConfig::default().workers(1).small_sort_cutoff(0));
        let keys = random_keys(5_000, 800);
        let ticket = service.submit(keys.clone(), JobOptions::default()).unwrap();
        let result = ticket.wait();
        assert_eq!(result.sorted.unwrap(), expect_sorted(&keys));
        let report = result.report;
        assert!(report.elapsed >= report.queued);
        assert_eq!(report.sort.per_worker.len(), report.stints);
        assert!(report.sort.per_phase.build.claims >= 4_999);
        assert!(report.sort.cas_failure_rate.is_finite());
        service.shutdown();
    }
}
