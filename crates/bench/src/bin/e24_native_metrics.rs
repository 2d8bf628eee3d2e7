//! E24 — native sort telemetry: per-phase operation counts, the
//! CAS-failure contention proxy, and the help-step share, swept over
//! threads × input shapes × allocation strategies, persisted as the
//! schema-stable `BENCH_native.json` perf artifact.
//!
//! The native answer to E6: the simulator counts §1.2 contention
//! directly (max concurrent accesses per cell); real threads cannot, so
//! the proxy is the fraction of child-pointer CAS attempts that lost a
//! race (each attempt is issued only against a slot observed EMPTY —
//! see DESIGN.md §9). The deterministic-vs-randomized comparison of E6
//! is reproduced on real threads in table E24b, and E24c reports the
//! instrumentation overhead against the uninstrumented `sort` on the
//! E5 workload (a random permutation).
//!
//! Run: `cargo run --release -p bench --bin e24_native_metrics`
//! CI smoke: `... e24_native_metrics -- --quick`
//! Schema gate: `... e24_native_metrics -- --validate <path>`
//!
//! When `BENCH_OUTPUT_DIR` is set, a missing or invalid artifact is a
//! hard error (exit 1), not a warning — CI depends on the file.

use std::process::ExitCode;

use bench::json::NATIVE_METRICS_SCHEMA;
use bench::{f2, parse_args, timed, validate_native_metrics, write_artifact, Table};
use rng::rngs::StdRng;
use rng::{seq::SliceRandom, Rng, SeedableRng};
use wfsort_native::{NativeAllocation, SortOptions, SortReport, WaitFreeSorter};

fn alloc_name(a: NativeAllocation) -> &'static str {
    match a {
        NativeAllocation::Deterministic => "wat",
        NativeAllocation::Randomized => "lcwat",
    }
}

/// The swept input shapes. Sorted/reversed spines are excluded on
/// purpose: the pivot tree degenerates to depth N there (see E12), which
/// measures tree shape, not work allocation.
fn shapes(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = StdRng::seed_from_u64(24);
    let uniform: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let few: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
    let sawtooth: Vec<u64> = (0..n).map(|i| (i % 1009) as u64).collect();
    vec![
        ("uniform-random", uniform),
        ("few-distinct", few),
        ("sawtooth", sawtooth),
    ]
}

struct Run {
    threads: usize,
    n: usize,
    shape: &'static str,
    allocation: NativeAllocation,
    sorted: bool,
    tracked_slots: usize,
    report: SortReport,
}

fn run_once(
    keys: &[u64],
    expect: &[u64],
    threads: usize,
    shape: &'static str,
    allocation: NativeAllocation,
) -> Run {
    let outcome = SortOptions::new()
        .threads(threads)
        .allocation(allocation)
        .report(true)
        .run(keys);
    Run {
        threads,
        n: keys.len(),
        shape,
        allocation,
        sorted: outcome.sorted == expect,
        tracked_slots: threads,
        report: outcome.report.expect("report requested"),
    }
}

fn json_record(r: &Run) -> String {
    let p = &r.report.per_phase;
    // The validator cross-checks per_worker length against tracked_slots,
    // so the slot count comes from the job's configuration, not from
    // whatever the report happens to contain.
    let per_worker: Vec<String> = r
        .report
        .per_worker
        .iter()
        .map(|w| {
            format!(
                "{{\"help_steps\":{},\"checkpoints\":{},\"total_ops\":{}}}",
                w.help_steps,
                w.checkpoints,
                w.phases.total_ops()
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"threads\":{},\"n\":{},\"shape\":\"{}\",\"allocation\":\"{}\",",
            "\"elapsed_ms\":{:.3},\"sorted\":{},\"total_ops\":{},",
            "\"help_steps\":{},\"checkpoints\":{},\"cas_failure_rate\":{:.6},",
            "\"tracked_slots\":{},\"per_worker\":[{}],",
            "\"build\":{{\"cas_attempts\":{},\"cas_failures\":{},",
            "\"descent_steps\":{},\"claims\":{},\"block_claims\":{},\"probes\":{}}},",
            "\"sum\":{{\"visits\":{},\"skips\":{}}},",
            "\"place\":{{\"visits\":{},\"skips\":{}}},",
            "\"scatter\":{{\"claims\":{},\"block_claims\":{},\"probes\":{}}}}}"
        ),
        r.threads,
        r.n,
        r.shape,
        alloc_name(r.allocation),
        r.report.elapsed.as_secs_f64() * 1e3,
        r.sorted,
        r.report.total_ops(),
        r.report.help_steps(),
        r.report.checkpoints(),
        r.report.cas_failure_rate,
        r.tracked_slots,
        per_worker.join(","),
        p.build.cas_attempts,
        p.build.cas_failures,
        p.build.descent_steps,
        p.build.claims,
        p.build.block_claims,
        p.build.probes,
        p.sum.visits,
        p.sum.skips,
        p.place.visits,
        p.place.skips,
        p.scatter.claims,
        p.scatter.block_claims,
        p.scatter.probes,
    )
}

fn main() -> ExitCode {
    let [quick] = parse_args(
        ["--quick"],
        Some((NATIVE_METRICS_SCHEMA, validate_native_metrics)),
    );
    let n = if quick { 20_000 } else { 200_000 };
    let thread_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut records = Vec::new();
    let mut a = Table::new(&[
        "threads",
        "shape",
        "allocation",
        "ms",
        "cas fail rate",
        "descents/N",
        "dup claims",
        "wat steps/job",
    ]);
    for (shape, keys) in shapes(n) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        for &threads in thread_counts {
            for allocation in [
                NativeAllocation::Deterministic,
                NativeAllocation::Randomized,
            ] {
                let run = run_once(&keys, &expect, threads, shape, allocation);
                assert!(run.sorted, "unsorted output at {threads}x{shape}");
                let p = &run.report.per_phase;
                let claims = p.build.claims + p.scatter.claims;
                let jobs = (n - 1 + n) as u64;
                let wat_steps = claims + p.build.probes + p.scatter.probes;
                a.row(vec![
                    threads.to_string(),
                    shape.into(),
                    alloc_name(allocation).into(),
                    f2(run.report.elapsed.as_secs_f64() * 1e3),
                    format!("{:.4}", run.report.cas_failure_rate),
                    f2(p.build.descent_steps as f64 / n as f64),
                    (claims - jobs.min(claims)).to_string(),
                    f2(wat_steps as f64 / jobs as f64),
                ]);
                records.push(json_record(&run));
            }
        }
    }
    a.print(&format!(
        "E24: native sort telemetry at N = {n} (threads x shape x allocation; \
         'dup claims' = WAT jobs executed more than once, 'wat steps/job' = \
         allocation bookkeeping per unit of work)"
    ));

    // E24b — the E6 comparison on real threads: the CAS-failure rate of
    // the build phase under deterministic vs randomized work allocation.
    // Contention concentrates near the root while the tree is small, so
    // the sweep includes small N where the proxy visibly registers; at
    // large N the rate vanishing *is* the paper's point (the tree fans
    // concurrent inserts apart — Lemma 3.1's low-contention story).
    let mut b = Table::new(&[
        "N",
        "threads",
        "rate (wat)",
        "rate (lcwat)",
        "fails (wat)",
        "fails (lcwat)",
    ]);
    for &n_c in &[512, 4096, n] {
        let (shape, keys) = shapes(n_c).swap_remove(0);
        let mut expect = keys.clone();
        expect.sort_unstable();
        for &threads in thread_counts {
            let det = run_once(
                &keys,
                &expect,
                threads,
                shape,
                NativeAllocation::Deterministic,
            );
            let rnd = run_once(&keys, &expect, threads, shape, NativeAllocation::Randomized);
            assert!(det.sorted && rnd.sorted);
            b.row(vec![
                n_c.to_string(),
                threads.to_string(),
                format!("{:.4}", det.report.cas_failure_rate),
                format!("{:.4}", rnd.report.cas_failure_rate),
                det.report.per_phase.build.cas_failures.to_string(),
                rnd.report.per_phase.build.cas_failures.to_string(),
            ]);
            records.push(json_record(&det));
            records.push(json_record(&rnd));
        }
    }
    b.print(
        "E24b: build-phase contention proxy on uniform-random keys \
         (E6 on real threads: CAS attempts that lost a race)",
    );

    // E24c — instrumentation overhead on the E5 workload (random
    // permutation), min-of-R against the uninstrumented sort.
    let perm: Vec<u64> = {
        let mut v: Vec<u64> = (0..n as u64).collect();
        v.shuffle(&mut StdRng::seed_from_u64(5));
        v
    };
    let mut expect = perm.clone();
    expect.sort_unstable();
    let repeats = if quick { 3 } else { 7 };
    let mut c = Table::new(&["threads", "sort ms", "with report ms", "overhead"]);
    for &threads in thread_counts {
        let sorter = WaitFreeSorter::new(threads);
        let mut plain = f64::INFINITY;
        let mut instrumented = f64::INFINITY;
        for _ in 0..repeats {
            let (sorted, secs) = timed(|| sorter.sort(&perm));
            assert_eq!(sorted, expect);
            plain = plain.min(secs);
            let (outcome, secs) = timed(|| sorter.options().report(true).run(&perm));
            assert_eq!(outcome.sorted, expect);
            assert!(outcome.report.expect("report requested").total_ops() > 0);
            instrumented = instrumented.min(secs);
        }
        c.row(vec![
            threads.to_string(),
            f2(plain * 1e3),
            f2(instrumented * 1e3),
            format!("{:+.1}%", (instrumented / plain - 1.0) * 1e2),
        ]);
    }
    c.print(&format!(
        "E24c: instrumentation overhead on the E5 workload (random \
         permutation, N = {n}, min of {repeats})"
    ));

    let artifact = format!(
        "{{\"schema\":\"{NATIVE_METRICS_SCHEMA}\",\"experiment\":\"e24_native_metrics\",\
         \"n\":{n},\"quick\":{quick},\"runs\":[\n{}\n]}}\n",
        records.join(",\n")
    );
    // Self-gate before writing: a malformed artifact must never land.
    if let Err(e) = validate_native_metrics(&artifact) {
        eprintln!("error: generated artifact fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("BENCH_OUTPUT_DIR").is_some() {
        match write_artifact("BENCH_native.json", &artifact) {
            Some(path) => match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| validate_native_metrics(&t).map_err(|e| e.to_string()))
            {
                Ok(runs) => {
                    println!("\nBENCH_native.json: {runs} runs, schema {NATIVE_METRICS_SCHEMA}")
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
        eprintln!("(BENCH_OUTPUT_DIR unset: BENCH_native.json not persisted)");
    }

    println!(
        "\nPaper tie-in (§1.2/§3): the simulator's contention measure \
         becomes the native CAS-failure rate. Shape checks: the rate is 0 \
         at 1 thread and grows with threads; descents/N tracks the tree \
         depth (~2 ln N for random shapes, shallower with duplicates); \
         randomized allocation trades extra probes for decorrelated \
         claims; instrumentation overhead stays within noise of the \
         uninstrumented sort."
    );
    ExitCode::SUCCESS
}
