//! `nocbench` — runs one benchmark workload (or all of them) and prints every
//! metric by name with its unit.
//!
//! ```text
//! nocbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the untraced workload for `S` seconds and reports the
//! end-to-end metrics (host time at the slow tail of the repeats). `--trace 1`
//! alternates untraced and traced repeats for `S` seconds and reports the
//! per-layer metrics. Every repeat passes the correctness gate or counts as
//! failed. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when any repeat failed.

use nocbench::{gate, run_once, RunOutcome, Workload, DEFAULT_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest repeats per run, whatever `--seconds` says.
const MIN_REPEATS: u64 = 3;

/// A repeat whose set-up plus run takes longer than this counts as failed.
const REPEAT_CAP: Duration = Duration::from_secs(30);

const USAGE: &str =
    "usage: nocbench --workload <cmp_pseudo_cmesh|uniform_baseline_mesh8|lowload_pseudo_mesh32|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs repeats through the correctness gate and counts the outcomes.
struct Gatekeeper {
    workload: Workload,
    seed: u64,
    /// The hash every repeat must reproduce: pinned for the default seed,
    /// otherwise taken from the first repeat that drains.
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Gatekeeper {
    fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            expected: (seed == DEFAULT_SEED).then(|| workload.pinned_hash()),
            attempted: 0,
            failed: 0,
        }
    }

    /// One gated repeat; `None` when it failed.
    fn run(&mut self, traced: bool) -> Option<RunOutcome> {
        self.attempted += 1;
        let (workload, seed) = (self.workload, self.seed);
        let verdict = catch_unwind(AssertUnwindSafe(|| run_once(workload, seed, traced)))
            .map_err(|_| "the simulation panicked".to_string())
            .and_then(|outcome| {
                gate(&outcome, self.expected)?;
                let took = Duration::from_secs_f64(outcome.setup_s + outcome.run_s);
                if took > REPEAT_CAP {
                    return Err(format!("repeat took {took:?}, over the {REPEAT_CAP:?} cap"));
                }
                Ok(outcome)
            });
        match verdict {
            Ok(outcome) => {
                self.expected.get_or_insert(outcome.hash);
                Some(outcome)
            }
            Err(why) => {
                self.failed += 1;
                eprintln!(
                    "nocbench: {} seed {seed} repeat {} failed: {why}",
                    workload.name(),
                    self.attempted
                );
                None
            }
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (sorted in place); 0 when empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Quantile of per-repeat host time that the end-to-end timings report.
///
/// On a 2-vCPU VM whose cores are shared with other tenants, a repeat's
/// speed switches between a steady contended state and faster, erratic
/// spells lasting seconds to minutes. The median of a run lands in
/// whichever state dominated that run and moved by up to 30 % between runs
/// there; the 90th percentile of time sits in the steady state and moved by
/// about 10 %. It is also the figure a user can count on.
const TIME_QUANTILE: f64 = 0.9;

/// End-to-end metrics: untraced repeats until `seconds` elapse. Every
/// repeat of one seed simulates the same cycles, so the rate at the
/// [`TIME_QUANTILE`] of run time is the matching low quantile of the rates.
/// Peak memory is read after the first repeat: later repeats reuse freed
/// heap and creep the high-water mark up with the repeat count, which would
/// make a faster simulator look bigger.
fn end_to_end(gk: &mut Gatekeeper, seconds: u64) -> Result<Vec<Metric>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    while gk.attempted < MIN_REPEATS || Instant::now() < deadline {
        if let Some(o) = gk.run(false) {
            rates.push(o.cycles as f64 / o.run_s);
            setups.push(o.setup_s);
        }
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    let spread = |values: &mut [f64]| {
        [0.1, 0.25, 0.5, 0.75, 0.9]
            .map(|q| format!("{:.6e}", quantile(values, q)))
            .join(" ")
    };
    println!("{}: {} repeats", gk.workload.name(), rates.len());
    println!(
        "  sim_cycles_per_s p10 p25 p50 p75 p90: {}",
        spread(&mut rates)
    );
    println!(
        "  setup_s          p10 p25 p50 p75 p90: {}",
        spread(&mut setups)
    );
    Ok(vec![
        metric(
            "sim_cycles_per_s",
            quantile(&mut rates, 1.0 - TIME_QUANTILE),
            "1/s",
        ),
        metric("setup_s", quantile(&mut setups, TIME_QUANTILE), "s"),
        metric("peak_rss_mb", peak_rss.unwrap_or_default(), "MiB"),
    ])
}

/// Per-layer metrics: untraced and traced repeats alternate until `seconds`
/// elapse. Host times are medians over the traced repeats; counts are exact
/// and identical across repeats of one seed.
fn per_layer(gk: &mut Gatekeeper, seconds: u64) -> Result<Vec<Metric>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut times: [Vec<f64>; 7] = Default::default();
    let mut last = None;
    while gk.attempted < 2 * MIN_REPEATS || Instant::now() < deadline {
        if let Some(o) = gk.run(false) {
            plain_s.push(o.run_s);
        }
        let Some(o) = gk.run(true) else { continue };
        let l = o.layers.expect("traced repeats carry layer times");
        let run_ns = o.run_s * 1e9;
        let stepped = (o.cycles - o.cycles_fast_forwarded) as f64;
        let engine_ns = run_ns - l.router_step_ns as f64 - l.traffic_ns as f64;
        let sample = [
            ratio(l.router_step_ns as f64, l.router_steps as f64),
            ratio(l.router_step_ns as f64, run_ns),
            ratio(engine_ns, stepped),
            ratio(engine_ns, run_ns),
            ratio(
                l.traffic_generate_ns as f64,
                l.traffic_generate_calls as f64,
            ),
            ratio(l.traffic_deliver_ns as f64, l.packets_delivered as f64),
            ratio(l.traffic_ns as f64, run_ns),
        ];
        for (series, value) in times.iter_mut().zip(sample) {
            series.push(value);
        }
        traced_s.push(o.run_s);
        last = Some(o);
    }
    let Some(o) = last else {
        return Err("no traced repeat passed the gate".into());
    };
    let l = o.layers.expect("traced repeats carry layer times");
    let stepped = (o.cycles - o.cycles_fast_forwarded) as f64;
    let stats = o.report.router_stats;
    let [step_ns, step_share, engine_ns, engine_share, gen_ns, deliver_ns, traffic_share] =
        times.map(|mut series| median(&mut series));
    println!(
        "{}: {} untraced and {} traced repeats",
        gk.workload.name(),
        plain_s.len(),
        traced_s.len()
    );
    Ok(vec![
        metric("router.step_ns_per_call", step_ns, "ns"),
        metric("router.step_share", step_share, "fraction"),
        metric(
            "router.steps_per_cycle",
            ratio(l.router_steps as f64, stepped),
            "count",
        ),
        metric(
            "router.receive_calls_per_cycle",
            ratio(l.router_receives as f64, stepped),
            "count",
        ),
        metric("engine.self_ns_per_cycle", engine_ns, "ns"),
        metric("engine.self_share", engine_share, "fraction"),
        metric("engine.cycles_stepped", stepped, "count"),
        metric(
            "engine.cycles_fast_forwarded",
            o.cycles_fast_forwarded as f64,
            "count",
        ),
        metric("traffic.generate_ns_per_cycle", gen_ns, "ns"),
        metric("traffic.deliver_ns_per_packet", deliver_ns, "ns"),
        metric("traffic.share", traffic_share, "fraction"),
        metric(
            "traffic.packets_generated",
            l.packets_generated as f64,
            "count",
        ),
        metric(
            "traffic.packets_delivered",
            l.packets_delivered as f64,
            "count",
        ),
        metric(
            "router.flit_traversals",
            stats.flit_traversals as f64,
            "count",
        ),
        metric("router.sa_grants", stats.sa_grants as f64, "count"),
        metric("router.va_grants", stats.va_grants as f64, "count"),
        metric("router.pc_reuse_frac", stats.reusability(), "fraction"),
        metric("router.buffer_bypass_frac", stats.bypass_rate(), "fraction"),
        metric(
            "trace.overhead_frac",
            median(&mut traced_s) / median(&mut plain_s) - 1.0,
            "fraction",
        ),
    ])
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nocbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        let mut gk = Gatekeeper::new(workload, args.seed);
        let result = if args.trace {
            per_layer(&mut gk, args.seconds)
        } else {
            end_to_end(&mut gk, args.seconds)
        };
        attempted += gk.attempted;
        failed += gk.failed;
        match result {
            Ok(ms) => {
                for m in &ms {
                    println!("{} {} = {} {}", workload.name(), m.name, m.value, m.unit);
                }
                metrics = ms;
            }
            Err(e) => {
                eprintln!("nocbench: {}: {e}", workload.name());
                failed = failed.max(1);
            }
        }
    }
    let correct = failed == 0;
    // The JSON line speaks for a single workload; `--workload all` is read
    // from the lines above it.
    if args.workloads.len() == 1 {
        println!("{}", json_line(correct, attempted, failed, &metrics));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
