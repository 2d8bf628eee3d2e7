//! E27 — the multi-tenant `SortService` under load: job latency and
//! throughput while many tenants share one worker pool, the
//! deadline-miss table (with the zero-deadline row pinned — it must
//! miss every job), admission-control backpressure against a bounded
//! queue with exact accounting, seeded chaos-recovery storms whose
//! publication ledger (`completed + workers_lost == admitted`) and
//! cross-tenant bit-identity are re-proved inline, and a fairness
//! section proving work conservation (idle workers join the lone
//! in-flight job as helper stints) and weighted overtaking (weight-8
//! tenants pass weight-1 tenants in the deficit pick), persisted as
//! the schema-stable `BENCH_service.json` perf artifact.
//!
//! The service ([`wfsort_native::SortService`]) inherits the paper's
//! wait-freedom as an *isolation* property: a `ChaosPlan` crashing
//! every worker stint on one tenant's job strands only that job, which
//! either recovers on a fresh stint or fails with a typed error while
//! every sibling tenant's output stays bit-identical to a sequential
//! sort. The recovery rows here re-prove that claim on every seed.
//!
//! Run: `cargo run --release -p bench --bin e27_service_bench`
//! CI smoke: `... e27_service_bench -- --quick`
//! Schema gate: `... e27_service_bench -- --validate <path>`
//!
//! When `BENCH_OUTPUT_DIR` is set, a missing or invalid artifact is a
//! hard error (exit 1), not a warning — CI depends on the file.
//!
//! Honesty note: CI runners (and this author's bench host) are often
//! single-CPU, so worker threads timeslice instead of running in
//! parallel — the latency/throughput columns measure scheduling
//! overhead there, not parallel speedup. The accounting, isolation,
//! and deadline pins are exact on any host and are the load-bearing
//! columns.

use std::process::ExitCode;
use std::time::Duration;

use bench::json::SERVICE_SCHEMA;
use bench::{f2, parse_args, timed, validate_service_bench, write_artifact, Table};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use wfsort_native::{ChaosPlan, JobError, JobOptions, Rejected, ServiceConfig, SortService};

fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
}

fn sequential_sort(keys: &[u64]) -> Vec<u64> {
    let mut out = keys.to_vec();
    out.sort_unstable();
    out
}

fn main() -> ExitCode {
    let [quick] = parse_args(["--quick"], Some((SERVICE_SCHEMA, validate_service_bench)));
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };

    // E27a — latency and throughput with many tenants sharing the pool.
    // Every tenant's output is checked bit-identical to a sequential
    // sort before its latency is allowed into the table. A zero small
    // cutoff keeps every tenant a cohort job shared by the whole pool.
    let n = if quick { 4_000 } else { 20_000 };
    let jobs = if quick { 12 } else { 24 };
    let mut throughput = Vec::new();
    let mut a = Table::new(&[
        "workers",
        "jobs",
        "total ms",
        "jobs/s",
        "mean lat ms",
        "max lat ms",
        "mean queued ms",
    ]);
    for &workers in worker_counts {
        let tenants: Vec<Vec<u64>> = (0..jobs)
            .map(|t| random_keys(n, 2_700 + t as u64))
            .collect();
        let service = SortService::start(
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(jobs + 1)
                .small_sort_cutoff(0),
        );
        let (results, secs) = timed(|| {
            let tickets: Vec<_> = tenants
                .iter()
                .map(|keys| {
                    service
                        .submit(keys.clone(), JobOptions::default())
                        .expect("queue sized for the full tenant set")
                })
                .collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        });
        service.shutdown();
        let mut identical = true;
        let mut latencies_ms = Vec::new();
        let mut queued_ms = Vec::new();
        let mut imbalances = Vec::new();
        for (keys, result) in tenants.iter().zip(&results) {
            identical &= result.sorted.as_ref().expect("no chaos here") == &sequential_sort(keys);
            latencies_ms.push(result.report.elapsed.as_secs_f64() * 1e3);
            queued_ms.push(result.report.queued.as_secs_f64() * 1e3);
            imbalances.push(
                result
                    .report
                    .sort
                    .shard
                    .as_ref()
                    .map_or(1.0, |s| s.imbalance()),
            );
        }
        assert!(identical, "tenant output diverged at workers={workers}");
        let total_ms = secs * 1e3;
        let jobs_per_s = jobs as f64 / secs;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max_lat = latencies_ms.iter().cloned().fold(0.0f64, f64::max);
        a.row(vec![
            workers.to_string(),
            jobs.to_string(),
            f2(total_ms),
            f2(jobs_per_s),
            f2(mean(&latencies_ms)),
            f2(max_lat),
            f2(mean(&queued_ms)),
        ]);
        throughput.push(format!(
            concat!(
                "{{\"workers\":{},\"jobs\":{},\"n\":{},\"total_ms\":{:.3},",
                "\"jobs_per_s\":{:.3},\"mean_latency_ms\":{:.3},",
                "\"max_latency_ms\":{:.3},\"mean_queued_ms\":{:.3},",
                "\"mean_imbalance\":{:.4},\"all_identical\":true}}"
            ),
            workers,
            jobs,
            n,
            total_ms,
            jobs_per_s,
            mean(&latencies_ms),
            max_lat,
            mean(&queued_ms),
            mean(&imbalances),
        ));
    }
    a.print(&format!(
        "E27a: {jobs} tenants x N = {n} over a shared pool (every row's \
         outputs proved bit-identical to sequential sorts before timing \
         was recorded)"
    ));

    // E27b — the deadline-miss table. The zero-deadline row is a pin
    // (a non-trivial job can never beat an already-expired deadline);
    // the generous row should complete everywhere; the tight row is an
    // honest host-dependent measurement.
    let deadline_jobs = if quick { 6 } else { 8 };
    let deadline_n = if quick { 4_000 } else { 20_000 };
    let mut deadlines = Vec::new();
    let mut b = Table::new(&["deadline", "jobs", "missed", "completed"]);
    for &deadline_us in &[0u64, 200, 5_000_000] {
        let service = SortService::start(ServiceConfig::default().workers(2));
        let tickets: Vec<_> = (0..deadline_jobs)
            .map(|t| {
                let keys = random_keys(deadline_n, 5_400 + t as u64);
                service
                    .submit(
                        keys,
                        JobOptions::default().deadline(Duration::from_micros(deadline_us)),
                    )
                    .expect("default queue holds the sweep")
            })
            .collect();
        let mut missed = 0u64;
        let mut completed = 0u64;
        for ticket in tickets {
            match ticket.wait().sorted {
                Ok(_) => completed += 1,
                Err(JobError::DeadlineExpired) => missed += 1,
                Err(e) => panic!("unexpected error in deadline sweep: {e}"),
            }
        }
        service.shutdown();
        assert_eq!(missed + completed, deadline_jobs as u64);
        if deadline_us == 0 {
            assert_eq!(missed, deadline_jobs as u64, "zero deadline must miss all");
        }
        b.row(vec![
            if deadline_us == 0 {
                "0 (pin)".into()
            } else {
                format!("{deadline_us} us")
            },
            deadline_jobs.to_string(),
            missed.to_string(),
            completed.to_string(),
        ]);
        deadlines.push(format!(
            "{{\"deadline_us\":{deadline_us},\"jobs\":{deadline_jobs},\
             \"missed\":{missed},\"completed\":{completed}}}"
        ));
    }
    b.print(&format!(
        "E27b: deadline misses at N = {deadline_n} (zero-deadline row is \
         an exact pin; the tight row depends on host speed and is \
         reported honestly, not asserted)"
    ));

    // E27c — admission control under flood. One paused worker pins the
    // pool while a burst of submissions overruns the bounded queue; the
    // accounting (admitted + rejected == submitted) is exact.
    let flood = 64usize;
    let mut backpressure = Vec::new();
    let mut c = Table::new(&["capacity", "submitted", "admitted", "rejected (queue full)"]);
    for &capacity in &[2usize, 8] {
        let service = SortService::start(
            ServiceConfig::default()
                .workers(1)
                .queue_capacity(capacity)
                .small_sort_cutoff(0),
        );
        // The occupier pauses its only worker stint for 200ms at the
        // first checkpoint — long enough that the burst below runs
        // entirely against a full pool.
        let occupier = service
            .submit(
                random_keys(2_000, 9_000),
                JobOptions::default()
                    .plan(ChaosPlan::new(1).pause_at(0, 1, 200_000))
                    .helpers(1),
            )
            .expect("occupier admitted first");
        let mut admitted_tickets = Vec::new();
        let mut rejected_queue_full = 0u64;
        for t in 0..flood {
            match service.submit(
                random_keys(512, 9_100 + t as u64),
                JobOptions::default().helpers(1),
            ) {
                Ok(ticket) => admitted_tickets.push(ticket),
                Err(Rejected::QueueFull { capacity: cap }) => {
                    assert_eq!(cap, capacity, "typed rejection names the bound");
                    rejected_queue_full += 1;
                }
                Err(Rejected::ShuttingDown) => panic!("service is not shutting down"),
            }
        }
        let admitted = admitted_tickets.len() as u64;
        assert_eq!(admitted + rejected_queue_full, flood as u64);
        assert!(rejected_queue_full > 0, "the flood must overrun the queue");
        occupier
            .wait()
            .sorted
            .expect("occupier finishes after pause");
        for ticket in admitted_tickets {
            ticket.wait().sorted.expect("admitted jobs drain");
        }
        let stats = service.shutdown();
        assert_eq!(stats.rejected_queue_full, rejected_queue_full);
        c.row(vec![
            capacity.to_string(),
            flood.to_string(),
            admitted.to_string(),
            rejected_queue_full.to_string(),
        ]);
        backpressure.push(format!(
            "{{\"capacity\":{capacity},\"submitted\":{flood},\
             \"admitted\":{admitted},\"rejected_queue_full\":{rejected_queue_full}}}"
        ));
    }
    c.print(
        "E27c: bounded-queue backpressure with the single worker paused \
         mid-stint (accounting is exact: every submission is either \
         admitted or typed-rejected, and the rejection names the bound)",
    );

    // E27d — chaos-recovery storms. Per seed: one victim whose three
    // chaos slots crash/stall/pause while four healthy tenants share
    // the pool as cohort jobs (a zero small cutoff). Healthy outputs
    // must be bit-identical; the publication ledger must balance.
    let storm_seeds: u64 = if quick { 3 } else { 6 };
    let mut recovery = Vec::new();
    let mut d = Table::new(&[
        "seed",
        "victim outcome",
        "recoveries",
        "workers lost",
        "healthy identical",
    ]);
    for seed in 0..storm_seeds {
        let service = SortService::start(
            ServiceConfig::default()
                .workers(2)
                .max_recoveries(2)
                .queue_capacity(16)
                .small_sort_cutoff(0),
        );
        let victim_keys = random_keys(1_500, 31_000 + seed);
        // Six chaos slots cover the two claims and both recovery stints
        // with headroom; ~95% of them crash within the first 40
        // checkpoints — far before a 1500-key stint can finish — so
        // most seeds strand the job at least once and some exhaust the
        // recovery allowance entirely.
        let plan = ChaosPlan::random_crashes(6, 0.95, 40, seed)
            .pause_at(0, 5, 200)
            .stall_at(1, 7, 500);
        let victim = service
            .submit(
                victim_keys.clone(),
                JobOptions::default().plan(plan).helpers(2),
            )
            .unwrap();
        let tenants: Vec<Vec<u64>> = (0..4)
            .map(|t| random_keys(1_200, 32_000 + seed * 8 + t))
            .collect();
        let tickets: Vec<_> = tenants
            .iter()
            .map(|keys| service.submit(keys.clone(), JobOptions::default()).unwrap())
            .collect();
        let mut healthy_identical = true;
        for (keys, ticket) in tenants.iter().zip(tickets) {
            healthy_identical &=
                ticket.wait().sorted.expect("healthy tenant") == sequential_sort(keys);
        }
        assert!(healthy_identical, "seed {seed}: isolation breached");
        let victim_result = victim.wait();
        let victim_outcome = match &victim_result.sorted {
            Ok(sorted) => {
                assert_eq!(sorted, &sequential_sort(&victim_keys), "seed {seed}");
                if victim_result.report.recoveries > 0 {
                    "recovered"
                } else {
                    "completed"
                }
            }
            Err(JobError::WorkersLost { .. }) => "failed_typed",
            Err(e) => panic!("seed {seed}: unexpected victim error {e}"),
        };
        let stats = service.shutdown();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.completed + stats.workers_lost, 5);
        d.row(vec![
            seed.to_string(),
            victim_outcome.into(),
            stats.crash_recoveries.to_string(),
            stats.workers_lost.to_string(),
            "yes".into(),
        ]);
        recovery.push(format!(
            "{{\"seed\":{seed},\"admitted\":{},\"completed\":{},\
             \"workers_lost\":{},\"crash_recoveries\":{},\
             \"healthy_identical\":true,\"victim_outcome\":\"{victim_outcome}\"}}",
            stats.admitted, stats.completed, stats.workers_lost, stats.crash_recoveries,
        ));
    }
    d.print(
        "E27d: seeded chaos storms against one tenant (crash + stall + \
         pause) while four healthy tenants share the pool — healthy \
         outputs bit-identical on every seed; the victim recovers or \
         fails typed, never hangs; completed + workers_lost == admitted",
    );

    // E27e — work conservation and weighted fairness. Row one: a single
    // large plan-free tenant with an otherwise empty queue must pull
    // the idle workers in as helper stints (the paper's helping
    // discipline lifted to the pool: extra participants only ever
    // speed a sort up). Row two: with the pool blocked, weight-8
    // tenants submitted *behind* weight-1 tenants must overtake them
    // in the deficit pick, and every output must still be
    // bit-identical to a sequential sort.
    let mut fairness = Vec::new();
    let mut e = Table::new(&[
        "mode",
        "workers",
        "jobs",
        "queue picks",
        "weighted picks",
        "helper stints",
        "stints dispatched",
    ]);
    {
        let helper_n = if quick { 60_000 } else { 200_000 };
        let service = SortService::start(ServiceConfig::default().workers(4).sharded_cutoff(4_096));
        let keys = random_keys(helper_n, 41_000);
        let ticket = service
            .submit(keys.clone(), JobOptions::default().helpers(1))
            .expect("empty queue admits the lone tenant");
        let identical = ticket.wait().sorted.expect("no chaos here") == sequential_sort(&keys);
        assert!(identical, "helper-joined output diverged");
        let stats = service.shutdown();
        assert!(
            stats.helper_stints > 0,
            "idle workers must join the in-flight job: {stats:?}"
        );
        // One queue entry existed (helpers = 1), so every further stint
        // was a helper join: the job's occupancy is exactly
        // queue_picks + helper_stints.
        let dispatched = stats.queue_picks + stats.helper_stints;
        assert!(dispatched >= 2, "multi-worker occupancy: {stats:?}");
        e.row(vec![
            "helper-join".into(),
            "4".into(),
            "1".into(),
            stats.queue_picks.to_string(),
            stats.weighted_picks.to_string(),
            stats.helper_stints.to_string(),
            dispatched.to_string(),
        ]);
        fairness.push(format!(
            "{{\"mode\":\"helper-join\",\"workers\":4,\"jobs\":1,\
             \"completed\":{},\"queue_picks\":{},\"weighted_picks\":{},\
             \"helper_stints\":{},\"max_stints\":{dispatched},\
             \"all_identical\":true}}",
            stats.completed, stats.queue_picks, stats.weighted_picks, stats.helper_stints,
        ));
    }
    {
        let service = SortService::start(ServiceConfig::default().workers(1));
        let big = random_keys(2_000, 42_000);
        let blocker = service
            .submit(
                big.clone(),
                JobOptions::default()
                    .plan(ChaosPlan::new(1).pause_at(0, 1, 100_000))
                    .helpers(1),
            )
            .expect("blocker admitted first");
        let mut tenants = Vec::new();
        let mut tickets = Vec::new();
        for (t, weight) in (0u64..8).map(|t| (t, if t < 4 { 1u32 } else { 8 })) {
            let keys = random_keys(3_000, 42_100 + t);
            tickets.push(
                service
                    .submit(
                        keys.clone(),
                        JobOptions::default().helpers(1).weight(weight),
                    )
                    .expect("default queue holds the cohort"),
            );
            tenants.push(keys);
        }
        let mut identical = blocker.wait().sorted.expect("pause lifts") == sequential_sort(&big);
        let mut max_stints = 1u64;
        for (keys, ticket) in tenants.iter().zip(tickets) {
            let result = ticket.wait();
            identical &= result.sorted.expect("no chaos here") == sequential_sort(keys);
            max_stints = max_stints.max(result.report.stints as u64);
        }
        assert!(identical, "weighted-cohort output diverged");
        let stats = service.shutdown();
        assert!(
            stats.weighted_picks >= 1,
            "weight-8 tenants queued behind weight-1 tenants must overtake: {stats:?}"
        );
        assert!(stats.weighted_picks <= stats.queue_picks);
        e.row(vec![
            "weighted".into(),
            "1".into(),
            "9".into(),
            stats.queue_picks.to_string(),
            stats.weighted_picks.to_string(),
            stats.helper_stints.to_string(),
            max_stints.to_string(),
        ]);
        fairness.push(format!(
            "{{\"mode\":\"weighted\",\"workers\":1,\"jobs\":9,\
             \"completed\":{},\"queue_picks\":{},\"weighted_picks\":{},\
             \"helper_stints\":{},\"max_stints\":{max_stints},\
             \"all_identical\":true}}",
            stats.completed, stats.queue_picks, stats.weighted_picks, stats.helper_stints,
        ));
    }
    e.print(
        "E27e: work conservation and weighted fairness — idle workers \
         join the lone in-flight sharded job as helper stints \
         (occupancy = queue picks + helper joins), weight-8 tenants \
         overtake weight-1 in the deficit pick, outputs bit-identical",
    );

    let artifact = format!(
        "{{\"schema\":\"{SERVICE_SCHEMA}\",\"experiment\":\"e27_service_bench\",\
         \"quick\":{quick},\
         \"throughput\":[\n{}\n],\
         \"deadlines\":[\n{}\n],\
         \"backpressure\":[\n{}\n],\
         \"recovery\":[\n{}\n],\
         \"fairness\":[\n{}\n]}}\n",
        throughput.join(",\n"),
        deadlines.join(",\n"),
        backpressure.join(",\n"),
        recovery.join(",\n"),
        fairness.join(",\n"),
    );
    // Self-gate before writing: a malformed artifact must never land.
    if let Err(e) = validate_service_bench(&artifact) {
        eprintln!("error: generated artifact fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("BENCH_OUTPUT_DIR").is_some() {
        match write_artifact("BENCH_service.json", &artifact) {
            Some(path) => match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| validate_service_bench(&t).map_err(|e| e.to_string()))
            {
                Ok(entries) => {
                    println!("\nBENCH_service.json: {entries} entries, schema {SERVICE_SCHEMA}")
                }
                Err(e) => {
                    eprintln!("error: written artifact failed re-validation: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => {
                eprintln!("error: BENCH_OUTPUT_DIR is set but the artifact was not written");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("(BENCH_OUTPUT_DIR unset: BENCH_service.json not persisted)");
    }

    println!(
        "\nPaper tie-in (§1.1): the paper's wait-freedom is a statement \
         about one sort surviving its own participants' failures. The \
         service layer lifts it to a statement about *neighbors*: a \
         tenant's crashed workers strand only that tenant's job, which \
         a fresh stint finishes — so isolation falls out of the Work \
         Assignment Trees rather than being bolted on. Caveat repeated \
         from the header: on a single-CPU host the workers timeslice, \
         so the latency/throughput columns measure scheduling overhead, \
         not parallelism; the accounting and isolation pins are the \
         load-bearing columns."
    );
    ExitCode::SUCCESS
}
