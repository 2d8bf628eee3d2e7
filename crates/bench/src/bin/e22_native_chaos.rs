//! E22 — native chaos fuzzing: the native sorter completes with correct
//! output under seeded crash storms (crash fraction × seed × allocation
//! strategy), and a deadline that reaps every helper still yields a
//! correct sort from the calling thread.
//!
//! The native analogue of E9 (`e9_failures`): where E9 scripts PRAM-cycle
//! crashes through `FailurePlan`, this sweeps participation-checkpoint
//! crashes through `ChaosPlan` on real threads. Alongside the tables, a
//! machine-readable JSON record per run is written to
//! `BENCH_OUTPUT_DIR/e22-native-chaos.json` when that variable is set.
//!
//! Run: `cargo run --release -p bench --bin e22_native_chaos`
//! CI smoke: `cargo run --release -p bench --bin e22_native_chaos -- --quick`

use std::time::Duration;

use bench::{f2, mean, parse_args, timed, write_artifact, Table};
use wfsort_native::{ChaosParticipation, ChaosPlan, NativeAllocation, SortJob, WaitFreeSorter};

const WORKERS: usize = 4;
const HORIZON: u64 = 200;

struct Run {
    fraction: f64,
    seed: u64,
    allocation: NativeAllocation,
    survivors: usize,
    by_workers: bool,
    sorted: bool,
    millis: f64,
}

fn alloc_name(a: NativeAllocation) -> &'static str {
    match a {
        NativeAllocation::Deterministic => "wat",
        NativeAllocation::Randomized => "lcwat",
    }
}

fn json_record(r: &Run) -> String {
    format!(
        concat!(
            "{{\"fraction\":{},\"seed\":{},\"allocation\":\"{}\",",
            "\"survivors\":{},\"completed_by_workers\":{},\"sorted\":{},",
            "\"millis\":{:.3}}}"
        ),
        r.fraction,
        r.seed,
        alloc_name(r.allocation),
        r.survivors,
        r.by_workers,
        r.sorted,
        r.millis,
    )
}

/// One chaos run: drives a `SortJob` with one `ChaosParticipation` per
/// plan slot, recording whether the workers finished by themselves
/// before letting the caller mop up (`SortOptions::plan` folds that
/// fallback in; here we want it observable).
fn chaos_run(
    keys: &[u64],
    expect: &[u64],
    fraction: f64,
    seed: u64,
    allocation: NativeAllocation,
) -> Run {
    let plan = ChaosPlan::random_crashes(WORKERS, fraction, HORIZON, seed).with_jitter(0.02, 100);
    let job = SortJob::with_allocation(keys.to_vec(), allocation);
    let (by_workers, secs) = timed(|| {
        std::thread::scope(|s| {
            for w in 0..plan.workers() {
                let (job, plan) = (&job, &plan);
                s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
            }
        });
        job.is_complete()
    });
    if !by_workers {
        job.run();
    }
    Run {
        fraction,
        seed,
        allocation,
        survivors: plan.survivors(),
        by_workers,
        sorted: job.into_sorted() == expect,
        millis: secs * 1e3,
    }
}

fn main() {
    let [quick] = parse_args(["--quick"], None);
    let n = if quick { 5_000 } else { 50_000 };
    let seeds: u64 = if quick { 4 } else { 25 };

    let keys: Vec<u64> = {
        use rng::rngs::StdRng;
        use rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        (0..n).map(|_| rng.gen_range(0..u64::MAX)).collect()
    };
    let mut expect = keys.clone();
    expect.sort_unstable();

    let mut records = Vec::new();
    let mut t = Table::new(&[
        "crash fraction",
        "allocation",
        "survivors (mean)",
        "ms (mean)",
        "slowdown",
        "by workers",
        "sorted?",
    ]);
    let mut baseline = f64::NAN;
    for fraction in [0.0, 0.25, 0.5, 0.75, 0.9] {
        for allocation in [
            NativeAllocation::Deterministic,
            NativeAllocation::Randomized,
        ] {
            let mut millis = Vec::new();
            let mut survivors = Vec::new();
            let mut by_workers = 0usize;
            let mut all_sorted = true;
            for seed in 0..seeds {
                let run = chaos_run(&keys, &expect, fraction, 2200 + seed, allocation);
                millis.push(run.millis);
                survivors.push(run.survivors as f64);
                by_workers += run.by_workers as usize;
                all_sorted &= run.sorted;
                records.push(json_record(&run));
            }
            let ms = mean(&millis);
            if baseline.is_nan() {
                baseline = ms;
            }
            t.row(vec![
                f2(fraction),
                alloc_name(allocation).into(),
                f2(mean(&survivors)),
                f2(ms),
                f2(ms / baseline),
                format!("{by_workers}/{seeds}"),
                if all_sorted {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
            assert!(all_sorted, "chaos run produced an unsorted output");
        }
    }
    t.print(&format!(
        "E22: native sort of N = {n} with {WORKERS} workers under seeded crash storms \
         (crashes at random checkpoints in [0, {HORIZON}), jitter 2%)"
    ));

    // Deadline-bounded sorting: helpers are reaped at the deadline and the
    // calling thread finishes alone; correctness must not depend on how
    // much help the deadline allowed.
    let mut d = Table::new(&["deadline", "ms (mean)", "sorted?"]);
    let sorter = WaitFreeSorter::new(WORKERS);
    for (label, deadline) in [
        ("0", Duration::ZERO),
        ("100us", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
        ("unbounded", Duration::from_secs(3600)),
    ] {
        let mut millis = Vec::new();
        let mut all_sorted = true;
        for _ in 0..seeds {
            let (sorted, secs) = timed(|| sorter.options().deadline(deadline).run(&keys).sorted);
            all_sorted &= sorted == expect;
            millis.push(secs * 1e3);
        }
        d.row(vec![
            label.into(),
            f2(mean(&millis)),
            if all_sorted {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        assert!(all_sorted, "deadline run produced an unsorted output");
    }
    d.print(&format!(
        "E22b: deadline-bounded native sort of N = {n} ({} helpers + caller; helpers released \
         at the deadline)",
        WORKERS - 1
    ));

    write_artifact(
        "e22-native-chaos.json",
        &format!("[\n{}\n]\n", records.join(",\n")),
    );

    println!(
        "\nPaper claim (the definition of wait-freedom, §1, on native \
         threads): the sort completes despite any failures. Shape checks: \
         'sorted?' is always yes; with at least one survivor the workers \
         finish by themselves ('by workers' = seeds); time grows as \
         survivors shrink, and a shorter deadline shifts work to the \
         caller without ever costing correctness."
    );
}
