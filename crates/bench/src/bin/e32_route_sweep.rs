//! E32 — the service's route crossover: for each input size and shape,
//! how long one job takes on each of `SortService`'s three routes on an
//! idle two-worker pool — one sequential `slice::sort` stint, the
//! sharded cohort, and the single pivot-tree cohort. The smallest size
//! at which the sharded cohort beats the sequential stint on most shapes
//! is where `ServiceConfig::small_sort_cutoff` belongs; the default is
//! capped at `sharded_cutoff`.
//!
//! Each cell is the median `JobReport::elapsed` (admission to
//! publication) of up to `REPEATS` jobs submitted one at a time, with
//! fewer repeats once a cell has spent a second; every output is checked
//! against `slice::sort`. The cohort rows run two workers; on a host
//! with fewer than two free CPUs they timeslice, so they are labelled
//! that way and are not parallel-speedup claims.
//!
//! Run: `cargo run --release -p bench --bin e32_route_sweep`
//! (`-- --quick` stops at 16 384 keys).

use std::time::{Duration, Instant};

use bench::{f2, parse_args, Table};
use wait_free_sort::testshapes;
use wfsort_native::{JobOptions, ServiceConfig, SortService};

const REPEATS: usize = 5;
const CELL_BUDGET: Duration = Duration::from_secs(1);

/// An input shape: its name and a generator of `n` keys.
type Shape = (&'static str, fn(usize) -> Vec<u64>);

/// The service configuration that sends a default two-or-more-key job
/// down each route.
fn routes() -> [(&'static str, ServiceConfig); 3] {
    let pool = ServiceConfig::default().workers(2);
    [
        (
            "sequential",
            pool.clone()
                .small_sort_cutoff(usize::MAX)
                .sharded_cutoff(usize::MAX),
        ),
        ("sharded", pool.clone().sharded_cutoff(0)),
        ("tree", pool.small_sort_cutoff(0).sharded_cutoff(usize::MAX)),
    ]
}

/// Median `elapsed` in ms over the jobs run, and how many ran.
fn cell(service: &SortService<u64>, keys: &[u64], oracle: &[u64]) -> (f64, usize) {
    let started = Instant::now();
    let mut elapsed_ms = Vec::new();
    while elapsed_ms.len() < REPEATS && (elapsed_ms.is_empty() || started.elapsed() < CELL_BUDGET) {
        let result = service
            .submit(keys.to_vec(), JobOptions::default())
            .expect("an idle service admits")
            .wait();
        assert_eq!(result.sorted.expect("no faults here"), oracle);
        elapsed_ms.push(result.report.elapsed.as_secs_f64() * 1e3);
    }
    elapsed_ms.sort_by(f64::total_cmp);
    (elapsed_ms[elapsed_ms.len() / 2], elapsed_ms.len())
}

fn main() {
    let [quick] = parse_args(["--quick"], None);
    let max_log = if quick { 14 } else { 17 };
    let sizes: Vec<usize> = (10..=max_log).map(|log| 1usize << log).collect();
    let shapes: [Shape; 4] = [
        ("uniform", |n| testshapes::uniform(n, 32)),
        ("few_distinct(64)", |n| testshapes::few_distinct(n, 64, 32)),
        ("zipf", |n| testshapes::zipf(n, 1024, 32)),
        ("presorted", testshapes::presorted),
    ];
    let services: Vec<(&str, SortService<u64>)> = routes()
        .into_iter()
        .map(|(name, config)| (name, SortService::start(config)))
        .collect();
    // Wake every pool once before timing.
    for (_, service) in &services {
        let keys = testshapes::uniform(4_096, 1);
        let mut oracle = keys.clone();
        oracle.sort();
        cell(service, &keys, &oracle);
    }

    let mut sharded_wins = vec![0usize; sizes.len()];
    for (shape, make) in shapes {
        let mut table = Table::new(&[
            "n",
            "sequential ms",
            "sharded ms (2 workers, timesliced)",
            "tree ms (2 workers, timesliced)",
            "jobs per cell",
            "fastest",
        ]);
        for (at, &n) in sizes.iter().enumerate() {
            let keys = make(n);
            let mut oracle = keys.clone();
            oracle.sort();
            let cells: Vec<(f64, usize)> = services
                .iter()
                .map(|(_, service)| cell(service, &keys, &oracle))
                .collect();
            let fastest = services
                .iter()
                .zip(&cells)
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .map(|((name, _), _)| *name)
                .expect("three routes");
            if cells[1].0 < cells[0].0 {
                sharded_wins[at] += 1;
            }
            table.row(vec![
                n.to_string(),
                f2(cells[0].0),
                f2(cells[1].0),
                f2(cells[2].0),
                format!("{}/{}/{}", cells[0].1, cells[1].1, cells[2].1),
                fastest.into(),
            ]);
        }
        table.print(&format!(
            "E32: median JobReport::elapsed per route, {shape}, idle workers(2) service"
        ));
    }
    for (_, service) in services {
        service.shutdown();
    }

    let crossover = sizes
        .iter()
        .zip(&sharded_wins)
        .find(|(_, &wins)| 2 * wins > shapes.len())
        .map(|(&n, _)| n);
    println!(
        "\navailable_parallelism = {}",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    match crossover {
        Some(n) => println!("sharded beats sequential on most shapes from n = {n}"),
        None => println!(
            "sharded beats sequential on most shapes at no size up to {}: \
             the small cutoff belongs at the sharded cutoff",
            sizes.last().expect("non-empty sweep")
        ),
    }
}
