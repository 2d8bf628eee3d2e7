//! Shared plumbing for the experiment binaries (`e1`..`e32`).
//!
//! Each binary regenerates one experiment from EXPERIMENTS.md, printing a
//! markdown table whose *shape* (growth rates, who wins, crossovers) is
//! compared against the corresponding claim of the paper.

#![forbid(unsafe_code)]

use std::path::PathBuf;

pub mod json;

pub use json::{
    validate_layout_bench, validate_native_metrics, validate_service_bench, validate_sharded_bench,
};

/// An artifact check for [`parse_args`]: the schema tag it accepts,
/// and the validator, which returns the document's entry count.
type Validator = (&'static str, fn(&str) -> Result<usize, String>);

/// What a command line asks a binary to do.
#[derive(Debug, PartialEq, Eq)]
enum Command<const N: usize> {
    /// Run the experiment; entry `i` says whether `flags[i]` was given.
    Run([bool; N]),
    /// Check the artifact at this path and exit.
    Validate(String),
}

/// Parses `args` (program name excluded) against the switches a binary
/// takes. `--validate <path>`, alone, is accepted only from a binary
/// with a validator; anything else that is not one of `flags` is a
/// usage error (`None`).
fn parse_command<const N: usize>(
    args: &[String],
    flags: [&str; N],
    validates: bool,
) -> Option<Command<N>> {
    if let [switch, path] = args {
        if validates && switch == "--validate" {
            return Some(Command::Validate(path.clone()));
        }
    }
    let mut given = [false; N];
    for arg in args {
        given[flags.iter().position(|f| f == arg)?] = true;
    }
    Some(Command::Run(given))
}

/// The command-line front door of every experiment binary that takes
/// arguments. Returns which of `flags` were given, in `flags` order.
///
/// With a `validator` — the schema tag it accepts, and the check,
/// which returns the document's entry count — `--validate <path>`
/// checks that artifact instead of running the experiment, and exits:
/// status 0 if it is valid, 1 if not. Any argument the binary does not
/// take — an unknown flag, a stray value, `--validate` where there is
/// no validator — prints a usage line and exits with status 2 before
/// any work starts.
pub fn parse_args<const N: usize>(flags: [&str; N], validator: Option<Validator>) -> [bool; N] {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    let name = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |s| s.to_string_lossy().into_owned());
    let args: Vec<String> = argv.collect();
    match parse_command(&args, flags, validator.is_some()) {
        Some(Command::Run(given)) => given,
        Some(Command::Validate(path)) => {
            let (schema, validate) = validator.expect("parsed only with a validator");
            let checked = std::fs::read_to_string(&path)
                .map_err(|e| format!("could not read it: {e}"))
                .and_then(|text| validate(&text));
            match checked {
                Ok(entries) => {
                    println!("{path}: valid {schema} with {entries} entries");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let switches: String = flags.iter().map(|f| format!(" [{f}]")).collect();
            let validate = match validator {
                Some(_) => format!(" | {name} --validate <path>"),
                None => String::new(),
            };
            eprintln!("error: unexpected arguments {args:?}");
            eprintln!("usage: {name}{switches}{validate}");
            std::process::exit(2);
        }
    }
}

/// The artifact directory, if `BENCH_OUTPUT_DIR` is set — created on
/// first use, so pointing the variable at a fresh path just works.
fn output_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("BENCH_OUTPUT_DIR")?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return None;
    }
    Some(dir)
}

/// A rendered results table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table with a title line; additionally, if the
    /// `BENCH_OUTPUT_DIR` environment variable is set, writes the table
    /// as CSV into that directory (file name derived from the title).
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        print!("{}", self.to_markdown());
        if let Some(dir) = output_dir() {
            let slug: String = title
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '-'
                    }
                })
                .collect::<String>()
                .split('-')
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join("-");
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(csv written to {})", path.display());
            }
        }
    }
}

/// Writes `contents` to `file_name` inside `BENCH_OUTPUT_DIR`, creating
/// the directory if needed; does nothing when the variable is unset.
/// Used by experiment binaries for machine-readable artifacts (JSON
/// records, raw samples) that do not fit the [`Table`] CSV side-channel.
///
/// Returns the path written, so callers that *require* the artifact
/// (CI smoke jobs) can treat `None` — variable unset, directory not
/// creatable, or write failed — as a hard error instead of a warning.
pub fn write_artifact(file_name: &str, contents: &str) -> Option<PathBuf> {
    let dir = output_dir()?;
    let path = dir.join(file_name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("warning: could not write {}: {e}", path.display());
        return None;
    }
    eprintln!("(artifact written to {})", path.display());
    Some(path)
}

/// Unicode block characters for sparklines, blank to full.
pub const SPARK_BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series as a fixed-width sparkline: the series is max-pooled
/// into `width` buckets and each bucket drawn against `scale_max`.
pub fn sparkline(series: &[u32], width: usize, scale_max: u32) -> String {
    let bucket = series.len().div_ceil(width).max(1);
    series
        .chunks(bucket)
        .map(|c| {
            let m = *c.iter().max().unwrap_or(&0);
            let idx = if scale_max == 0 {
                0
            } else {
                (m as usize * (SPARK_BARS.len() - 1)).div_ceil(scale_max as usize)
            };
            SPARK_BARS[idx.min(SPARK_BARS.len() - 1)]
        })
        .collect()
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// `log2` of a positive integer, as f64.
pub fn log2(n: usize) -> f64 {
    (n as f64).log2()
}

/// Geometric mean of a nonempty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean of a nonempty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Wall-clock helper: runs `f` and returns (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["n", "cycles"]);
        t.row(vec!["16".into(), "100".into()]);
        t.row(vec!["256".into(), "2000".into()]);
        let md = t.to_markdown();
        assert!(md.contains("|   n | cycles |"));
        assert!(md.contains("|  16 |    100 |"));
        assert!(md.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_checks_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["plain".into(), "1".into()]);
        t.row(vec!["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("plain,1"));
        assert!(csv.contains("\"with,comma\",\"with\"\"quote\""));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(log2(8), 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn sparkline_scales_and_pools() {
        let s = sparkline(&[0, 0, 8, 8], 2, 8);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next(), Some(' '));
        assert_eq!(s.chars().nth(1), Some('█'));
        // Zero scale never panics.
        assert_eq!(sparkline(&[5], 1, 0), " ");
    }

    #[test]
    fn command_lines_parse_strictly() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_command(&args(&[]), ["--quick"], true),
            Some(Command::Run([false]))
        );
        assert_eq!(
            parse_command(&args(&["--quick"]), ["--quick"], false),
            Some(Command::Run([true]))
        );
        assert_eq!(
            parse_command(&args(&["--validate", "a.json"]), ["--quick"], true),
            Some(Command::Validate("a.json".into()))
        );
        // No validator, a missing path, a stray value, an unknown flag,
        // or `--validate` mixed with a run flag: all usage errors.
        for bad in [
            &["--validate", "a.json"][..],
            &["--validate"],
            &["--quick", "extra"],
            &["--smoke"],
        ] {
            assert_eq!(
                parse_command(&args(bad), ["--quick"], false),
                None,
                "{bad:?}"
            );
        }
        assert_eq!(
            parse_command(
                &args(&["--validate", "a.json", "--quick"]),
                ["--quick"],
                true
            ),
            None
        );
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
