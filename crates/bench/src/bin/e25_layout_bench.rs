//! E25 — memory layout and grain size on the native hot path: the
//! analytical cache-lines-touched ledger of the cache-packed pivot tree
//! against the pre-packing five-array geometry and the block-grain sweep
//! of WAT claim traffic, persisted as the schema-stable
//! `BENCH_layout.json` perf artifact.
//!
//! The packed [`wfsort_native::SharedTree`] shrinks each node's five
//! shared words (small/big child, size, place, place-done flag) to two
//! `u32` child arrays (16 nodes per cache line, double the five-array
//! density) plus one 16-byte meta cell, so a place visit touches three
//! cache lines where the old parallel-array layout touched five — while
//! keeping the side-select a predictable branch so descents stay
//! latency-matched (see DESIGN.md §10 for the rejected drafts that lost
//! exactly there). The five-array tree itself is gone: it never beat the
//! packed one in E25a's timed race, whose table EXPERIMENTS.md keeps.
//! E25d's arena-reuse race is retired too: recycling a job's storage
//! saved +1% to +6% across runs, occasionally less than nothing, so the
//! arena went with it (EXPERIMENTS.md keeps the result).
//!
//! Run: `cargo run --release -p bench --bin e25_layout_bench`
//! CI smoke: `... e25_layout_bench -- --quick`
//! Schema gate: `... e25_layout_bench -- --validate <path>`
//!
//! When `BENCH_OUTPUT_DIR` is set, a missing or invalid artifact is a
//! hard error (exit 1), not a warning — CI depends on the file.

use std::process::ExitCode;

use bench::json::LAYOUT_SCHEMA;
use bench::{f2, parse_args, timed, validate_layout_bench, write_artifact, Table};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use wfsort_native::{recommended_grain, SortOptions, SortOutcome};

/// One instrumented single-threaded single-tree sort at `grain`, end to
/// end through [`SortOptions::run`].
fn solo_with_report(keys: &[u64], grain: usize) -> SortOutcome<u64> {
    SortOptions::new()
        .threads(1)
        .grain(grain)
        .report(true)
        .run(keys)
}

fn main() -> ExitCode {
    let [quick] = parse_args(["--quick"], Some((LAYOUT_SCHEMA, validate_layout_bench)));
    // E25b — the analytical ledger: cache lines touched per traversal
    // step. The per-phase operation counts are layout-independent (they
    // equal the PRAM simulator's, pinned by
    // `single_threaded_report_matches_simulator_op_counts` in
    // tests/native_metrics.rs), so one instrumented packed run provides
    // the step counts and the lines-per-step factors follow from the two
    // layouts' geometry:
    //
    //   build descent: 1 line/step either way (one probe into small[]
    //     or big[]) — though the packed arrays are half the footprint
    //     (4 bytes/node per side vs 8, 16 nodes per line instead of 8),
    //     which the estimate does not credit;
    //   sum visit: packed 3 (small[], big[], meta cell), legacy 3
    //     (small[], big[], size[]) — the density, not the line count,
    //     is the packed win here;
    //   place visit: packed 3 (the meta cell covers size, place, and
    //     the folded done bit in one line), legacy 5 (small[], big[],
    //     size[], place[], place_done[]).
    let n_ledger = 4096;
    let keys: Vec<u64> = {
        let mut rng = StdRng::seed_from_u64(25);
        (0..n_ledger).map(|_| rng.gen()).collect()
    };
    let outcome = solo_with_report(&keys, 1);
    {
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(outcome.sorted, expect, "ledger run unsorted");
    }
    let report = outcome.report.expect("report requested");
    let p = &report.per_phase;
    let mut cache_lines = Vec::new();
    let mut b = Table::new(&["phase", "steps", "packed lines", "legacy lines", "ratio"]);
    for (phase, steps, packed_per, legacy_per) in [
        ("build", p.build.descent_steps, 1u64, 1u64),
        ("sum", p.sum.visits, 3, 3),
        ("place", p.place.visits, 3, 5),
    ] {
        let packed_lines = steps * packed_per;
        let legacy_lines = steps * legacy_per;
        b.row(vec![
            phase.into(),
            steps.to_string(),
            packed_lines.to_string(),
            legacy_lines.to_string(),
            format!("{:.1}x", legacy_lines as f64 / packed_lines.max(1) as f64),
        ]);
        cache_lines.push(format!(
            concat!(
                "{{\"phase\":\"{}\",\"n\":{},",
                "\"packed_lines_per_step\":{},\"legacy_lines_per_step\":{},",
                "\"packed_lines\":{},\"legacy_lines\":{}}}"
            ),
            phase, n_ledger, packed_per, legacy_per, packed_lines, legacy_lines,
        ));
    }
    b.print(&format!(
        "E25b: estimated cache lines touched per phase on uniform-random keys, \
         N = {n_ledger} (step counts measured, lines/step from layout \
         geometry)"
    ));

    // E25c — grain sweep: block-grained work assignment shrinks the WAT
    // claim traffic by ~B while per-element claims stay put. Single
    // thread, deterministic allocation: every count below is exact, and
    // the validator recomputes build_block_claims from (n, grain).
    let n_sweep = 4096u64;
    let sweep_keys: Vec<u64> = {
        let mut rng = StdRng::seed_from_u64(2525);
        (0..n_sweep).map(|_| rng.gen()).collect()
    };
    let mut sweep_expect = sweep_keys.clone();
    sweep_expect.sort_unstable();
    let mut grain_sweep = Vec::new();
    let mut c = Table::new(&[
        "grain",
        "build claims",
        "build block claims",
        "scatter block claims",
        "ms",
    ]);
    let mut claims_at_grain_1 = 0u64;
    for grain in [1usize, 2, 7, 64] {
        let (outcome, secs) = timed(|| solo_with_report(&sweep_keys, grain));
        assert_eq!(outcome.sorted, sweep_expect, "sweep run unsorted");
        let report = outcome.report.expect("report requested");
        let p = &report.per_phase;
        let jobs = (n_sweep - 1).div_ceil(grain as u64);
        assert_eq!(
            p.build.block_claims, jobs,
            "single-threaded block claims must equal ceil((n-1)/grain)"
        );
        if grain == 1 {
            claims_at_grain_1 = p.build.block_claims;
            assert_eq!(
                p.build.claims, p.build.block_claims,
                "grain 1: one block per item"
            );
        } else {
            assert_eq!(
                p.build.claims, claims_at_grain_1,
                "per-element claims are grain-independent"
            );
        }
        c.row(vec![
            grain.to_string(),
            p.build.claims.to_string(),
            p.build.block_claims.to_string(),
            p.scatter.block_claims.to_string(),
            f2(secs * 1e3),
        ]);
        grain_sweep.push(format!(
            concat!(
                "{{\"n\":{},\"grain\":{},\"build_claims\":{},",
                "\"build_block_claims\":{},\"scatter_block_claims\":{},",
                "\"elapsed_ms\":{:.3},\"sorted\":true}}"
            ),
            n_sweep,
            grain,
            p.build.claims,
            p.build.block_claims,
            p.scatter.block_claims,
            secs * 1e3,
        ));
        // The headline acceptance gate: the auto-selected grain (B = 64
        // at this n and worker count, present in the sweep) cuts
        // build-phase WAT claim traffic by at least 4x at N = 4096.
        // Small sweep grains reduce by exactly their own factor (the
        // equality assert above), so only grains >= 4 can clear 4x.
        if grain >= 4 {
            assert!(
                p.build.block_claims * 4 <= claims_at_grain_1,
                "grain {grain} cut block claims only {claims_at_grain_1} -> {}",
                p.build.block_claims
            );
        }
    }
    assert_eq!(
        recommended_grain(n_sweep as usize, 1),
        64,
        "the sweep must include the auto-selected grain"
    );
    c.print(&format!(
        "E25c: WAT claim traffic vs grain at N = {n_sweep}, 1 thread \
         (block claims shrink ~Bx; per-element claims are pinned)"
    ));

    let artifact = format!(
        "{{\"schema\":\"{LAYOUT_SCHEMA}\",\"experiment\":\"e25_layout_bench\",\
         \"quick\":{quick},\
         \"cache_lines\":[\n{}\n],\
         \"grain_sweep\":[\n{}\n]}}\n",
        cache_lines.join(",\n"),
        grain_sweep.join(",\n"),
    );
    // Self-gate before writing: a malformed artifact must never land.
    if let Err(e) = validate_layout_bench(&artifact) {
        eprintln!("error: generated artifact fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("BENCH_OUTPUT_DIR").is_some() {
        match write_artifact("BENCH_layout.json", &artifact) {
            Some(path) => match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| validate_layout_bench(&t).map_err(|e| e.to_string()))
            {
                Ok(entries) => {
                    println!("\nBENCH_layout.json: {entries} entries, schema {LAYOUT_SCHEMA}")
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
        eprintln!("(BENCH_OUTPUT_DIR unset: BENCH_layout.json not persisted)");
    }

    println!(
        "\nPaper tie-in (§3): the pivot tree is the algorithm's one shared \
         data structure; halving the child arrays and folding the three \
         traversal words into one cell cuts the place traversal's line \
         count 5-to-3 and doubles descent-array density by geometry, \
         and block-grained work assignment divides the WAT claim CAS \
         traffic by the grain while leaving the paper's per-element \
         operation counts — and the PRAM-parity pins built on them — \
         untouched. Timings above are from a single shared host; the \
         deterministic counter columns are the load-bearing ones."
    );
    ExitCode::SUCCESS
}
