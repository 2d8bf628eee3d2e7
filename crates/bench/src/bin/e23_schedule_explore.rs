//! E23 — systematic schedule exploration.
//!
//! Three parts, mirroring the engine's three jobs:
//!
//! 1. **Exhaustive coverage** — enumerate *every* schedule of tiny
//!    shapes up to a preemption bound (CHESS-style context bounding) and
//!    report the state counts; the wait-free phases must pass all of
//!    them, with and without crash plans composed in.
//! 2. **Mutation acceptance** — aim the explorer at the Figure 6 routine
//!    *exactly as printed* (crash-unsafe) plus a single crash; it must
//!    find the loss, shrink it to a minimal preemption sequence, and the
//!    serialized token must replay to the same violation.
//! 3. **Guided walks** — seeded random walks over shapes too large to
//!    enumerate, every walk replayable from its token.
//!
//! Usage: `e23_schedule_explore [--smoke]` — `--smoke` is the CI
//! explore-smoke configuration (same exhaustive N=P=3 pass, 30 s walk
//! budget).

use std::time::Duration;

use bench::{f2, parse_args, timed, write_artifact, Table};
use pram::failure::FailurePlan;
use pram::{ExploreReport, Explorer, Pid, ScheduleScript, Word};
use wfsort::{Phase, PhaseTarget};

fn keys(n: usize) -> Vec<Word> {
    (0..n as Word).map(|i| (i * 7) % n as Word).collect()
}

fn depth_profile(report: &ExploreReport) -> String {
    report
        .stats
        .runs_by_depth
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join("/")
}

fn main() {
    let [smoke] = parse_args(["--smoke"], None);
    let mut records: Vec<String> = Vec::new();

    // Part 1: exhaustive bounded-preemption enumeration of tiny shapes.
    // `plan` composes scripted crashes into every explored schedule.
    let mut exhaustive: Vec<(Phase, usize, usize, usize, FailurePlan)> = vec![
        (Phase::Build, 3, 3, 2, FailurePlan::new()),
        (Phase::Sum, 3, 3, 2, FailurePlan::new()),
        (Phase::Place, 3, 3, 2, FailurePlan::new()),
        (Phase::EndToEnd, 3, 2, 1, FailurePlan::new()),
        (
            Phase::Sum,
            3,
            2,
            2,
            FailurePlan::new().crash_at(3, Pid::new(0)),
        ),
        (
            Phase::Place,
            3,
            2,
            2,
            FailurePlan::new()
                .crash_at(2, Pid::new(1))
                .revive_at(9, Pid::new(1)),
        ),
    ];
    if !smoke {
        exhaustive.push((Phase::Build, 4, 4, 2, FailurePlan::new()));
        exhaustive.push((Phase::Sum, 4, 4, 2, FailurePlan::new()));
        exhaustive.push((Phase::Place, 4, 3, 2, FailurePlan::new()));
        exhaustive.push((
            Phase::Build,
            4,
            2,
            2,
            FailurePlan::new().crash_at(5, Pid::new(0)),
        ));
    }

    let mut t = Table::new(&[
        "phase",
        "n",
        "p",
        "bound",
        "crashes",
        "runs",
        "steps",
        "runs/depth",
        "secs",
    ]);
    for (phase, n, p, bound, plan) in exhaustive {
        let crashes = plan.len();
        let target = PhaseTarget::new(phase, keys(n), p).with_failures(plan);
        let label = pram::ExploreTarget::label(&target);
        let (report, secs) = timed(|| Explorer::new(bound).exhaustive(&target));
        assert!(
            report.counterexample.is_none(),
            "{label} bound {bound}: wait-free phase failed an explored schedule: {:?}",
            report.counterexample
        );
        records.push(format!(
            r#"{{"kind":"exhaustive","target":"{label}","bound":{bound},"crash_events":{crashes},"runs":{},"steps":{},"runs_by_depth":[{}],"secs":{}}}"#,
            report.stats.runs,
            report.stats.steps,
            report
                .stats
                .runs_by_depth
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
            f2(secs),
        ));
        t.row(vec![
            format!("{phase:?}"),
            n.to_string(),
            p.to_string(),
            bound.to_string(),
            crashes.to_string(),
            report.stats.runs.to_string(),
            report.stats.steps.to_string(),
            depth_profile(&report),
            f2(secs),
        ]);
    }
    t.print("E23a: exhaustive bounded-preemption coverage (all schedules pass)");

    // Part 2: the mutation acceptance test. The verbatim Figure 6 skips
    // any element whose `place` is already written — crash a processor
    // mid-write and some schedule strands a subtree. The explorer must
    // find it, shrink it, and the token must replay it.
    let mut found = None;
    let mut scan_runs = 0u64;
    let (_, scan_secs) = timed(|| {
        for crash_cycle in 4..120 {
            let plan = FailurePlan::new().crash_at(crash_cycle, Pid::new(0));
            let target = PhaseTarget::new(Phase::PlaceFaithful, keys(8), 2).with_failures(plan);
            // Only schedule-*dependent* losses are interesting: skip crash
            // cycles that already kill the default schedule.
            let empty = ScheduleScript::new(pram::ExploreTarget::label(&target));
            scan_runs += 1;
            if Explorer::replay(&target, &empty).1.violation.is_some() {
                continue;
            }
            let report = Explorer::new(2).exhaustive(&target);
            scan_runs += report.stats.runs;
            if let Some(ce) = report.counterexample {
                found = Some((target, ce));
                return;
            }
        }
    });
    let (target, ce) = found.expect("no crash cycle broke the verbatim Figure 6");
    let preemptions = ce.script.preemptions().len();
    assert!(
        (1..=6).contains(&preemptions),
        "expected a minimal 1..=6-preemption schedule, got {preemptions}"
    );
    let token = ce.script.to_token();
    let parsed = ScheduleScript::from_token(&token).expect("emitted token must parse");
    let (_, replayed) = Explorer::replay(&target, &parsed);
    assert_eq!(
        replayed.violation.as_ref(),
        Some(&ce.violation),
        "token did not replay to the same violation"
    );
    println!("\n## E23b: mutation test (Figure 6 verbatim + 1 crash)\n");
    println!(
        "target:      {} (crash benign on the default schedule)",
        pram::ExploreTarget::label(&target)
    );
    println!("violation:   {}", ce.violation);
    println!("preemptions: {preemptions} (after shrinking)");
    println!("scan:        {scan_runs} runs in {} s", f2(scan_secs));
    println!("replay:      token reproduces the identical violation");
    println!("token:       {token}");
    write_artifact("e23-counterexample.token", &token);
    records.push(format!(
        r#"{{"kind":"mutation","target":"{}","preemptions":{preemptions},"scan_runs":{scan_runs},"token":"{token}"}}"#,
        pram::ExploreTarget::label(&target),
    ));

    // Part 3: guided random walks over shapes exhaustion cannot reach.
    let walk_shapes: Vec<(Phase, usize, usize, FailurePlan)> = vec![
        (Phase::EndToEnd, 12, 4, FailurePlan::new()),
        (
            Phase::EndToEnd,
            16,
            4,
            FailurePlan::random_crash_revive(4, 1, 2_000, 23),
        ),
        (Phase::Build, 16, 6, FailurePlan::new()),
    ];
    let per_row = if smoke {
        Duration::from_secs(30) / walk_shapes.len() as u32
    } else {
        Duration::from_secs(45) / walk_shapes.len() as u32
    };
    let mut wt = Table::new(&[
        "phase",
        "n",
        "p",
        "crashes",
        "walks",
        "steps",
        "violations",
        "secs",
    ]);
    for (phase, n, p, plan) in walk_shapes {
        let crashes = plan.len();
        let target = PhaseTarget::new(phase, keys(n), p).with_failures(plan);
        let label = pram::ExploreTarget::label(&target);
        let mut config = pram::WalkConfig::new(u64::MAX, 0xe23);
        config.budget = Some(per_row);
        let (report, secs) = timed(|| Explorer::new(usize::MAX).guided_walk(&target, &config));
        assert!(
            report.counterexample.is_none(),
            "{label}: wait-free phase failed a guided walk: {:?}",
            report.counterexample
        );
        records.push(format!(
            r#"{{"kind":"walk","target":"{label}","crash_events":{crashes},"walks":{},"steps":{},"secs":{}}}"#,
            report.stats.runs,
            report.stats.steps,
            f2(secs),
        ));
        wt.row(vec![
            format!("{phase:?}"),
            n.to_string(),
            p.to_string(),
            crashes.to_string(),
            report.stats.runs.to_string(),
            report.stats.steps.to_string(),
            "0".to_string(),
            f2(secs),
        ]);
    }
    wt.print("E23c: guided random walks (every walk replayable from its token)");

    write_artifact(
        "e23-schedule-explore.json",
        &format!("[\n  {}\n]\n", records.join(",\n  ")),
    );

    println!();
    println!(
        "Paper claim: wait-freedom is a statement about *every* schedule, not the average one."
    );
    println!(
        "E23 backs it mechanically: all bounded-preemption interleavings of the tiny shapes pass,"
    );
    println!(
        "guided walks find nothing on the published algorithm, and the engine demonstrably can"
    );
    println!("find+shrink+replay a real loss when aimed at the crash-unsafe verbatim Figure 6.");
}
