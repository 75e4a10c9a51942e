//! One benchmark run.
//!
//! An untraced run times the workload call in fresh processes of this
//! program, one call each: a child builds its inputs, warms up, reports
//! `ready` (set-up ends there), makes the timed call and reports its
//! wall time, peak memory and simulated outputs. Process-level luck
//! (address layout, which core it lands on) then averages out in the
//! median, and every child's memory peak covers exactly one call. The
//! parent then runs the mirror world for the transport conservation
//! checks. A traced run stays in one process: a reference call, the
//! traced call, the mirror and the per-layer probes.

use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::mirror::{self, Mirror};
use crate::oracle;
use crate::probe::{self, Shape};
use crate::report::Metric;
use crate::trace::Tracer;
use crate::workload::{Figures, Inputs, Scale, Workload, DEFAULT_SEED};

/// End-to-end metrics of an untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics of a traced run, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.sleep_ns", "ns"),
    ("sim.direct_event_ns", "ns"),
    ("sim.spawn_ns", "ns"),
    ("sim.lock_ns", "ns"),
    ("sim.lock.est_share", "share"),
    ("sim.digest_ns", "ns"),
    ("kernel.bkl_acquisitions", "count"),
    ("kernel.bkl_wait_ms_sim", "ms"),
    ("kernel.peak_dirty_pages", "count"),
    ("kernel.throttle_events", "count"),
    ("core.write_rpcs", "count"),
    ("core.commit_rpcs", "count"),
    ("core.index_churn_ns", "ns"),
    ("core.index.est_share", "share"),
    ("sunrpc.encode_write3_ns", "ns"),
    ("sunrpc.decode_write3_ns", "ns"),
    ("sunrpc.record_ns", "ns"),
    ("sunrpc.calls", "count"),
    ("sunrpc.retransmits", "count"),
    ("sunrpc.est_share", "share"),
    ("tcp.segment_codec_ns", "ns"),
    ("tcp.segments_sent", "count"),
    ("tcp.est_share", "share"),
    ("net.fragments_sent", "count"),
    ("net.port_fifo_ns", "ns"),
    ("net.payload_pool_ns", "ns"),
    ("server.writes", "count"),
    ("server.write_bytes", "B"),
    ("server.commits", "count"),
    ("server.sched_ns", "ns"),
    ("server.sched.est_share", "share"),
    ("fleet.bytes_per_client", "B"),
    ("fleet.calibrate_s", "s"),
    ("fleet.calibrate.est_share", "share"),
    ("bonnie.calls", "count"),
    ("trace.overhead_s", "s"),
];

/// Minimum set-up samples behind `setup_s`; set-up-only processes make
/// up the difference when fewer calls ran.
pub const SETUP_REPS: usize = 5;

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs are built from.
    pub seed: u64,
    /// Host seconds of timed calls to aim for (at least two calls run).
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload and probe size.
    pub scale: Scale,
}

impl RunConfig {
    /// Command-line arguments selecting this run's workload, seed and
    /// scale.
    fn child_args(&self) -> Vec<String> {
        let scale = match self.scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        };
        [
            "--workload",
            self.workload.name(),
            "--seed",
            &self.seed.to_string(),
            "--scale",
            scale,
        ]
        .map(String::from)
        .to_vec()
    }
}

/// Tally of cells (warm-up, timed, traced and mirror calls) and why any
/// failed.
#[derive(Debug, Default)]
pub struct Cells {
    /// Cells run.
    pub attempted: u64,
    /// Failure reasons, one per failed cell.
    pub failures: Vec<String>,
    /// Encoded figures of the first full call; every later one must match.
    pub reference: Option<String>,
}

impl Cells {
    /// Counts one cell.
    pub fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failures.push(format!("{label}: {e}"));
        }
    }

    /// Compares encoded figures with the first call's (or records them).
    fn identical(&mut self, figures: &str) -> Result<(), String> {
        match &self.reference {
            None => {
                self.reference = Some(figures.to_string());
                Ok(())
            }
            Some(first) if first == figures => Ok(()),
            Some(_) => Err("simulated outputs differ from the first call's".into()),
        }
    }
}

/// Figures as one whitespace-free token, `name=value,...`. Each value is
/// printed in its shortest round-trip form, so equal strings mean
/// bit-identical figures.
pub fn encode_figures(figures: &Figures) -> String {
    let parts: Vec<String> = figures.iter().map(|(n, v)| format!("{n}={v:?}")).collect();
    parts.join(",")
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Builds the inputs and runs the reduced-size warm-up call: everything a
/// process does before its first timed call.
pub fn setup(config: &RunConfig, cells: &mut Cells) -> Inputs {
    let inputs = Inputs::build(config.workload, config.seed, config.scale);
    let warm = Inputs::build(config.workload, config.seed, Scale::Smoke);
    let verdict = catch_unwind(AssertUnwindSafe(|| warm.call()))
        .map_err(panic_message)
        .and_then(|out| out.conservation(&warm));
    cells.record("warm-up", verdict);
    inputs
}

/// One official call: host seconds unless it panicked, the verdict of
/// the conservation and oracle checks, and the encoded figures.
pub struct Call {
    /// Host seconds of the call (`None` if it panicked).
    pub wall_s: Option<f64>,
    /// Conservation and, at the default seed and full size, the oracle.
    pub verdict: Result<(), String>,
    /// Encoded simulated figures (`None` if it panicked).
    pub figures: Option<String>,
}

/// Makes the workload's official call and checks what it returned.
pub fn official_call(config: &RunConfig, inputs: &Inputs) -> Call {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| inputs.call()));
    let wall = t0.elapsed().as_secs_f64();
    match out {
        Err(p) => Call {
            wall_s: None,
            verdict: Err(panic_message(p)),
            figures: None,
        },
        Ok(out) => {
            let figures = out.figures();
            let verdict = out.conservation(inputs).and_then(|()| {
                if config.scale == Scale::Full && config.seed == DEFAULT_SEED {
                    oracle::check(config.workload, &figures)
                } else {
                    Ok(())
                }
            });
            Call {
                wall_s: Some(wall),
                verdict,
                figures: Some(encode_figures(&figures)),
            }
        }
    }
}

/// Runs the mirror world and checks it against the official calls.
fn mirror_call(inputs: &Inputs, cells: &mut Cells) -> Option<Mirror> {
    let out = catch_unwind(AssertUnwindSafe(|| mirror::run(inputs)));
    let mut kept = None;
    let verdict = out.map_err(panic_message).and_then(|m| {
        m.counts.conservation()?;
        cells.identical(&encode_figures(&m.figures))?;
        kept = Some(m);
        Ok(())
    });
    cells.record("mirror", verdict);
    kept
}

/// Peak resident set of this process, MB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The child side of an untraced run: set up, say `ready`, then (unless
/// `setup_only`) make one timed call and report it. Output lines:
/// `cell ok|failed <what>`, `ready`, `call <wall_s> <peak_rss_mb> <figures>`.
pub fn child(config: &RunConfig, setup_only: bool) {
    let mut cells = Cells::default();
    let inputs = setup(config, &mut cells);
    print_cells(&cells);
    println!("ready");
    if setup_only {
        return;
    }
    let call = official_call(config, &inputs);
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    let mut cells = Cells::default();
    cells.record("timed call", call.verdict);
    print_cells(&cells);
    if let (Some(wall), Some(figures)) = (call.wall_s, call.figures) {
        println!("call {wall} {rss} {figures}");
    }
}

fn print_cells(cells: &Cells) {
    for f in &cells.failures {
        println!("cell failed {}", f.replace('\n', " "));
    }
    for _ in cells.failures.len() as u64..cells.attempted {
        println!("cell ok");
    }
}

/// What one child process reported.
#[derive(Debug, Default)]
struct ChildReport {
    setup_s: Option<f64>,
    wall_s: Option<f64>,
    rss_mb: Option<f64>,
    figures: Option<String>,
}

/// Spawns a child of `exe` for `config`, tallies its cells into `cells`
/// and waits for it to exit.
fn spawn_child(exe: &Path, config: &RunConfig, setup_only: bool, cells: &mut Cells) -> ChildReport {
    let mut report = ChildReport::default();
    let mut args = config.child_args();
    args.push(if setup_only { "--setup-only" } else { "--call" }.into());
    let t0 = Instant::now();
    let mut child = match Command::new(exe).args(&args).stdout(Stdio::piped()).spawn() {
        Ok(c) => c,
        Err(e) => {
            cells.record("child", Err(format!("spawn {}: {e}", exe.display())));
            return report;
        }
    };
    let stdout = child.stdout.take().expect("child stdout is piped");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        let mut words = line.splitn(4, ' ');
        match (words.next(), words.next()) {
            (Some("ready"), _) => report.setup_s = Some(t0.elapsed().as_secs_f64()),
            (Some("cell"), Some("ok")) => cells.record("", Ok(())),
            (Some("cell"), Some("failed")) => {
                cells.record("child", Err(words.collect::<Vec<_>>().join(" ")))
            }
            (Some("call"), Some(wall)) => {
                report.wall_s = wall.parse().ok();
                report.rss_mb = words.next().and_then(|r| r.parse().ok());
                report.figures = words.next().map(String::from);
            }
            _ => {}
        }
    }
    let status = child.wait();
    let finished = matches!(&status, Ok(s) if s.success());
    let complete = report.setup_s.is_some() && (setup_only || report.wall_s.is_some());
    if !finished || !complete {
        cells.record(
            "child",
            Err(format!("child process ended early: {status:?}")),
        );
    }
    report
}

/// Everything one run measured.
pub struct RunResult {
    /// Cells and failures.
    pub cells: Cells,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The trace, in a traced run.
    pub tracer: Option<Tracer>,
}

/// An untraced run: timed calls in child processes of `exe` until
/// `config.seconds` have passed (at least two, for run-to-run identity),
/// set-up-only children up to [`SETUP_REPS`] samples, then the mirror.
pub fn untraced_run(config: &RunConfig, exe: &Path) -> Result<RunResult, String> {
    let mut cells = Cells::default();
    let (mut walls, mut rss, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut calls = 0;
    while calls < 2 || started.elapsed().as_secs_f64() < config.seconds {
        calls += 1;
        let r = spawn_child(exe, config, false, &mut cells);
        setups.extend(r.setup_s);
        if let (Some(w), Some(m), Some(f)) = (r.wall_s, r.rss_mb, r.figures) {
            walls.push(w);
            rss.push(m);
            let verdict = cells.identical(&f);
            if verdict.is_err() {
                cells.record("timed call", verdict);
            }
        }
    }
    while setups.len() < SETUP_REPS {
        let r = spawn_child(exe, config, true, &mut cells);
        setups.push(r.setup_s.ok_or("a set-up process failed")?);
    }
    if walls.is_empty() {
        return Err(format!("no timed call completed: {:?}", cells.failures));
    }
    mirror_call(
        &Inputs::build(config.workload, config.seed, config.scale),
        &mut cells,
    );
    let metrics = vec![
        Metric {
            name: "wall_s",
            unit: "s",
            samples: walls,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            samples: rss,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            samples: setups,
        },
    ];
    Ok(RunResult {
        cells,
        metrics,
        tracer: None,
    })
}

/// A traced run, in this process: set-up, one untraced reference call,
/// the traced call, the mirror world, then every probe.
pub fn traced_run(config: &RunConfig) -> Result<RunResult, String> {
    let mut cells = Cells::default();
    let inputs = setup(config, &mut cells);
    let mut tracer = Tracer::new(config.workload.name());
    let checked_call = |cells: &mut Cells, label: &str| {
        let call = official_call(config, &inputs);
        let verdict = call
            .verdict
            .and_then(|()| cells.identical(call.figures.as_deref().unwrap_or_default()));
        cells.record(label, verdict);
        call.wall_s
    };
    let wall_s = checked_call(&mut cells, "reference call").ok_or("the reference call panicked")?;
    let root = tracer.enter("run");
    let traced = tracer.enter("workload.call");
    checked_call(&mut cells, "traced call");
    tracer.exit(traced);
    let mirror = tracer
        .span("mirror", || mirror_call(&inputs, &mut cells))
        .ok_or_else(|| format!("mirror world failed: {:?}", cells.failures))?;
    let shape = Shape::of(&inputs, &mirror, config.scale);
    let traced_s = tracer.seconds(traced);
    let metrics = per_layer(&inputs, &mirror, &shape, wall_s, traced_s, &mut tracer);
    tracer.exit(root);
    Ok(RunResult {
        cells,
        metrics,
        tracer: Some(tracer),
    })
}

/// Runs every probe (each in its own span) and assembles the per-layer
/// metrics in [`PER_LAYER`] order.
fn per_layer(
    inputs: &Inputs,
    mirror: &Mirror,
    shape: &Shape,
    wall_s: f64,
    traced_s: f64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let mut probe =
        |name: &str, f: fn(&Shape) -> f64| tracer.span(format!("probe.{name}"), || f(shape));
    let sleep = probe("sim.sleep", probe::sim_sleep);
    let direct = probe("sim.direct_event", probe::sim_direct_event);
    let spawn = probe("sim.spawn", probe::sim_spawn);
    let lock = probe("sim.lock", probe::sim_lock);
    let digest = probe("sim.digest", probe::sim_digest);
    let churn = probe("core.index_churn", probe::core_index_churn);
    let encode = probe("sunrpc.encode_write3", probe::sunrpc_encode_write3);
    let decode = probe("sunrpc.decode_write3", probe::sunrpc_decode_write3);
    let record = probe("sunrpc.record", probe::sunrpc_record);
    let codec = probe("tcp.segment_codec", probe::tcp_segment_codec);
    let port = probe("net.port_fifo", probe::net_port_fifo);
    let pool = probe("net.payload_pool", probe::net_payload_pool);
    let sched = probe("server.sched", probe::server_sched);
    let calibrate = probe("fleet.calibrate", probe::fleet_calibrate);

    let c = &mirror.counts;
    let server = server_counts(&mirror.figures);
    let wall_ns = wall_s * 1e9;
    let share = |ops: u64, ns: f64| ops as f64 * ns / wall_ns;
    let pages = inputs.faithful_bytes().div_ceil(4096);
    let is_tcp = c.segments_sent > 0;
    let rpc_ns = encode + decode + if is_tcp { record } else { 0.0 };
    let calibrate_share = match inputs {
        Inputs::Mega(_) => calibrate / wall_s,
        _ => 0.0,
    };
    let values = [
        c.events as f64,
        c.events as f64 / wall_s,
        sleep,
        direct,
        spawn,
        lock,
        share(c.bkl_acquisitions, lock),
        digest,
        c.bkl_acquisitions as f64,
        c.bkl_wait.as_millis_f64(),
        c.peak_dirty_pages as f64,
        c.throttle_events as f64,
        c.write_rpcs as f64,
        c.commit_rpcs as f64,
        churn,
        share(pages, churn),
        encode,
        decode,
        record,
        c.calls as f64,
        c.retransmits as f64,
        share(c.calls, rpc_ns),
        codec,
        c.segments_sent as f64,
        share(c.segments_sent, codec),
        c.fragments_sent as f64,
        port,
        pool,
        server.0,
        server.1,
        server.2,
        sched,
        share((server.0 + server.2) as u64, sched),
        mirror.fly_bytes_per_client as f64,
        calibrate,
        calibrate_share,
        c.app_writes as f64,
        traced_s - wall_s,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::exact(name, unit, v))
        .collect()
}

/// (writes, write bytes, commits) the server counted, from the figures.
fn server_counts(figures: &Figures) -> (f64, f64, f64) {
    let get = |name: &str| {
        figures
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    (
        get("server_writes"),
        get("server_write_bytes"),
        get("server_commits"),
    )
}
