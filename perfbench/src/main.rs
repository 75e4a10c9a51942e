//! `nfsperf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the simulated outputs, a table of every metric (median, highest
//! supported percentile, sample count, unit) and, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. A
//! traced run also writes its spans to `traces/<workload>-<seed>.json`
//! in the package.
//!
//! An untraced run re-invokes this program as its own children: `--call`
//! sets up and makes one timed call, `--setup-only` just sets up. Both
//! print `ready` when set-up is done. `--scale smoke` shrinks every
//! workload and probe for quick checks.

use std::process::ExitCode;

use nfsperf_perfbench::bench::{self, RunConfig};
use nfsperf_perfbench::report;
use nfsperf_perfbench::workload::{Scale, Workload};

struct Args {
    run: RunConfig,
    /// Run as a child of an untraced run: `Some(true)` for set-up only,
    /// `Some(false)` for set-up plus one timed call.
    child: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" || flag == "--call" {
            child = Some(flag == "--setup-only");
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value} is not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale takes full or smoke, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        run: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            scale,
        },
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = args.run;
    if let Some(setup_only) = args.child {
        bench::child(&run, setup_only);
        return ExitCode::SUCCESS;
    }
    let result = if run.trace {
        bench::traced_run(&run)
    } else {
        std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))
            .and_then(|exe| bench::untraced_run(&run, &exe))
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = &result.tracer {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-{}.json", run.workload.name(), run.seed);
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} spans in {path}", tracer.spans().len());
    }
    if let Some(figures) = &result.cells.reference {
        println!("simulated: {figures}");
    }
    for f in &result.cells.failures {
        eprintln!("failed cell: {f}");
    }
    if let Some(m) = result.metrics.iter().find(|m| !m.value().is_finite()) {
        eprintln!("error: metric {} is not finite", m.name);
        return ExitCode::FAILURE;
    }
    print!("{}", report::table(&result.metrics));
    for m in result.metrics.iter().filter(|m| m.samples.len() > 1) {
        let shown: Vec<String> = m.samples.iter().map(|v| format!("{v:.4}")).collect();
        println!("samples {}: {}", m.name, shown.join(" "));
    }
    println!(
        "workload={} seed={} cells={} failed_frac={}",
        run.workload.name(),
        run.seed,
        result.cells.attempted,
        result.cells.failures.len() as f64 / result.cells.attempted as f64
    );
    println!(
        "{}",
        report::result_json(
            result.cells.attempted,
            result.cells.failures.len() as u64,
            &result.metrics
        )
    );
    ExitCode::SUCCESS
}
