//! One shape for every parameter sweep.
//!
//! The paper's evaluation is one method applied to a grid of inputs:
//! Bonnie writes at file size × client tuning × server. Every sweep in
//! this crate is the same thing on another grid, so each implements
//! [`Sweep`] once:
//!
//! - its `Config` (a `*Grid` struct) holds every input of one run, and
//!   [`Sweep::quick`] / [`Sweep::full`] are the only place the sweep's
//!   sizes are written;
//! - [`Sweep::cells`] builds the phased work-list of independent worlds
//!   and [`Sweep::assemble`] folds their results, in work-list order,
//!   into rows;
//! - [`Sweep::header`] and [`Sweep::csv_row`] give the CSV,
//!   [`Sweep::render`] the ASCII table and verdict lines;
//! - [`Sweep::check_quick`] holds the laws the quick-size rows must obey
//!   (several do not hold at full size, so it is never run there).
//!
//! [`run`], [`to_csv`] and [`write_csv`] are the generic drivers; the CLI,
//! the bench harness and the golden tests all go through them.

use std::path::Path;

use nfsperf_sim::runner;

/// A parameter sweep: a grid of independent simulated worlds reduced to
/// CSV rows.
pub trait Sweep {
    /// The CLI command, the CSV / golden file stem and the cell-label
    /// prefix.
    const NAME: &'static str;
    /// CLI value options this sweep takes besides `--quick`, `--out` and
    /// `--jobs`; each is applied through [`Sweep::set_option`].
    const OPTIONS: &'static [&'static str] = &[];

    /// Every input of one run.
    type Config;
    /// What one work-list cell returns.
    type Run: Send + 'static;
    /// One CSV / table row.
    type Row;

    /// The quick smoke-size grid.
    fn quick() -> Self::Config;
    /// The full published grid.
    fn full() -> Self::Config;

    /// Applies the value of one of [`Sweep::OPTIONS`] to `config`,
    /// rejecting malformed input.
    fn set_option(_config: &mut Self::Config, name: &str, _value: &str) -> Result<(), String> {
        Err(format!("{} takes no option {name}", Self::NAME))
    }

    /// One line describing the run, printed above the table.
    fn title(config: &Self::Config) -> String;

    /// The work-list: one independent world per cell, in row order.
    fn cells(config: &Self::Config) -> Vec<runner::Cell<Self::Run>>;

    /// Folds the cell results (work-list order) into rows.
    fn assemble(config: &Self::Config, runs: Vec<Self::Run>) -> Vec<Self::Row>;

    /// The CSV header line, without its newline.
    fn header() -> &'static str;

    /// One CSV line, without its newline. `rows` is the whole sweep, for
    /// columns that compare a row against its curve.
    fn csv_row(rows: &[Self::Row], row: &Self::Row) -> String;

    /// The ASCII table plus the sweep's verdict lines.
    fn render(rows: &[Self::Row]) -> String;

    /// The laws rows of the quick grid must obey; `Err` names the first
    /// row that breaks one.
    fn check_quick(rows: &[Self::Row]) -> Result<(), String>;
}

/// Runs a sweep's cells on up to `jobs` worker threads and assembles the
/// rows. Cells are independent deterministic worlds collected in
/// work-list order, so the rows (and the CSV) are bit-identical at any
/// `jobs` value.
pub fn run<S: Sweep>(config: &S::Config, jobs: usize) -> Vec<S::Row> {
    S::assemble(config, runner::run_cells(jobs, S::cells(config)))
}

/// The rows as CSV: the header, then one line per row.
pub fn to_csv<S: Sweep>(rows: &[S::Row]) -> String {
    let mut out = String::from(S::header());
    out.push('\n');
    for row in rows {
        out.push_str(&S::csv_row(rows, row));
        out.push('\n');
    }
    out
}

/// Writes the CSV to `path`, creating its directory.
pub fn write_csv<S: Sweep>(rows: &[S::Row], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_csv::<S>(rows))
}

/// The distinct values of `key` over `rows`, in first-seen order.
pub(crate) fn distinct<R, K: PartialEq>(rows: &[R], key: impl Fn(&R) -> K) -> Vec<K> {
    let mut out = Vec::new();
    for r in rows {
        let k = key(r);
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// `Err` unless the sweep produced rows at all.
pub(crate) fn nonempty<R>(rows: &[R]) -> Result<(), String> {
    if rows.is_empty() {
        Err("the sweep produced no rows".into())
    } else {
        Ok(())
    }
}

/// `Err` naming `row` unless `holds`.
pub(crate) fn law(holds: bool, what: &str, row: &impl std::fmt::Debug) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("{what}: {row:?}"))
    }
}
