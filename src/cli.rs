//! Command-line experiment runner backing the `noc` binary.
//!
//! Hand-rolled argument parsing (no external dependency) exposed as a
//! library so it is unit-testable. Grammar:
//!
//! ```text
//! noc run [--topology mesh8x8|cmesh4x4|mecs4x4|fbfly4x4|mesh<W>x<H>[c<C>]
//!                     |ring<N>[c<C>]|hring<G>x<L>[c<C>]]
//!         [--traffic ur|bc|bp|tornado|neighbor|<benchmark>]
//!         [--load 0.10] [--packet 5]
//!         [--scheme baseline|pseudo|pseudo+ps|pseudo+bb|pseudo+ps+bb|evc|hybrid]
//!         [--routing xy|yx|o1turn] [--va static|dynamic]
//!         [--vcs 4] [--buffer 4]
//!         [--warmup 1000] [--measure 10000] [--drain 100000]
//!         [--seed 1] [--threads N]
//!         [--metrics off|edge|full] [--manifest PATH]
//!         [--trace PATH] [--trace-routers 0,5,12]
//! noc campaign run --spec FILE --out DIR [--threads N] [--max-points N]
//! noc campaign status --out DIR
//! noc campaign expand --spec FILE
//! noc list            # available traffic names and topologies
//! ```
//!
//! Topology, traffic and scheme vocabulary is shared with campaign spec
//! files: the spec strings here are parsed by [`noc_campaign`]'s resolvers
//! (`build_topology`, `build_traffic`, [`SchemeChoice`][RouterChoice]), so
//! a flag value and a campaign axis value mean exactly the same thing. The
//! `campaign` subcommand drives [`noc_campaign::run_campaign`]: cached,
//! resumable sweeps documented in `docs/CAMPAIGNS.md`.
//!
//! `--metrics=full` attaches per-router counters and pipeline-stage
//! histograms to the report (see `docs/METRICS.md`); `--manifest` writes the
//! machine-readable reproducibility manifest; `--trace` writes a
//! Chrome-trace-format JSON of router lifecycle events (pseudo-circuit
//! establish/terminate/hit, EVC express latches) for the routers named by
//! `--trace-routers` (default: all). All three apply to every scheme,
//! including `--scheme evc` — both router families run on the shared
//! pipeline kernel and carry the same observability plumbing.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{CampaignOptions, CampaignSpec, Checkpoint};
use noc_evc::EvcRouterFactory;
use noc_hybrid::HybridRouterFactory;
use noc_sim::{auto_threads, MetricsLevel, RunManifest, SimReport, TraceSpec};
use noc_topology::SharedTopology;
use noc_traffic::{BenchmarkProfile, TrafficModel};
use pseudo_circuit::{ExperimentBuilder, Scheme};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// The router scheme to run, including the EVC comparator — the CLI name
/// for [`noc_campaign::SchemeChoice`] (one shared vocabulary).
pub use noc_campaign::SchemeChoice as RouterChoice;

/// A fully parsed experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Topology spec string (e.g. `mesh8x8`, `cmesh4x4`).
    pub topology: String,
    /// Traffic spec: synthetic pattern name or benchmark name.
    pub traffic: String,
    /// Offered load in flits/node/cycle (synthetic traffic only).
    pub load: f64,
    /// Packet length in flits (synthetic traffic only).
    pub packet: u16,
    /// Router scheme.
    pub scheme: RouterChoice,
    /// Routing algorithm.
    pub routing: RoutingPolicy,
    /// VC allocation policy.
    pub va: VaPolicy,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer depth per VC.
    pub buffer: u32,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Drain-limit cycles.
    pub drain: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Engine thread budget (`--threads`; default: all physical cores, with
    /// a `NOC_THREADS` environment override). Never affects results — the
    /// report is byte-identical for any value. Treated as a budget, not a
    /// command: [`run`] clamps it through [`noc_sim::auto_threads`] and
    /// records the decision in the manifest.
    pub threads: usize,
    /// Observability level (`--metrics off|edge|full`).
    pub metrics: MetricsLevel,
    /// Run-manifest output path (`--manifest`), if requested.
    pub manifest: Option<String>,
    /// Chrome-trace output path (`--trace`), if requested.
    pub trace: Option<String>,
    /// Routers selected for tracing (`--trace-routers`; empty = all).
    pub trace_routers: Vec<usize>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            topology: "mesh8x8".into(),
            traffic: "ur".into(),
            load: 0.10,
            packet: 5,
            scheme: RouterChoice::Pc(Scheme::pseudo_ps_bb()),
            routing: RoutingPolicy::Xy,
            va: VaPolicy::Static,
            vcs: 4,
            buffer: 4,
            warmup: 1_000,
            measure: 10_000,
            drain: 100_000,
            seed: 1,
            threads: noc_base::pool::default_threads(),
            metrics: MetricsLevel::Off,
            manifest: None,
            trace: None,
            trace_routers: Vec::new(),
        }
    }
}

/// A CLI usage error with a human-readable message.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// Parses `run` subcommand arguments.
///
/// # Errors
///
/// Returns a [`CliError`] describing the first unknown flag, missing value,
/// or unparseable number.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, CliError> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--topology" => out.topology = value()?,
            "--traffic" => out.traffic = value()?,
            "--load" => out.load = parse_num(&value()?, flag)?,
            "--packet" => out.packet = parse_num(&value()?, flag)?,
            "--scheme" => out.scheme = parse_scheme(&value()?)?,
            "--routing" => {
                out.routing = match value()?.to_ascii_lowercase().as_str() {
                    "xy" => RoutingPolicy::Xy,
                    "yx" => RoutingPolicy::Yx,
                    "o1turn" => RoutingPolicy::O1Turn,
                    other => return Err(err(format!("unknown routing {other:?}"))),
                }
            }
            "--va" => {
                out.va = match value()?.to_ascii_lowercase().as_str() {
                    "static" => VaPolicy::Static,
                    "dynamic" => VaPolicy::Dynamic,
                    other => return Err(err(format!("unknown VA policy {other:?}"))),
                }
            }
            "--vcs" => out.vcs = parse_num(&value()?, flag)?,
            "--buffer" => out.buffer = parse_num(&value()?, flag)?,
            "--warmup" => out.warmup = parse_num(&value()?, flag)?,
            "--measure" => out.measure = parse_num(&value()?, flag)?,
            "--drain" => out.drain = parse_num(&value()?, flag)?,
            "--seed" => out.seed = parse_num(&value()?, flag)?,
            "--threads" => {
                out.threads = parse_num(&value()?, flag)?;
                if out.threads == 0 {
                    return Err(err("--threads must be at least 1"));
                }
            }
            "--metrics" => {
                let v = value()?;
                out.metrics = MetricsLevel::parse(&v)
                    .ok_or_else(|| err(format!("unknown metrics level {v:?} (off|edge|full)")))?;
            }
            "--manifest" => out.manifest = Some(value()?),
            "--trace" => out.trace = Some(value()?),
            "--trace-routers" => {
                let v = value()?;
                out.trace_routers = v
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse_num(s.trim(), flag))
                    .collect::<Result<Vec<usize>, _>>()?;
            }
            other => return Err(err(format!("unknown flag {other:?} (see `noc help`)"))),
        }
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| err(format!("{flag}: cannot parse {s:?}")))
}

fn parse_scheme(s: &str) -> Result<RouterChoice, CliError> {
    RouterChoice::parse(s).map_err(|e| CliError(e.0))
}

/// Builds the topology named by a spec string: the four named presets or the
/// general `mesh<W>x<H>[c<C>]` form. Delegates to
/// [`noc_campaign::build_topology`] — the CLI and campaign axes share one
/// resolver.
///
/// # Errors
///
/// Returns a [`CliError`] for unrecognized specs.
pub fn build_topology(spec: &str) -> Result<SharedTopology, CliError> {
    noc_campaign::build_topology(spec).map_err(|e| CliError(e.0))
}

/// Builds the traffic model named by `args.traffic` for `topo`. Delegates
/// to [`noc_campaign::build_traffic`].
///
/// # Errors
///
/// Returns a [`CliError`] if the name is neither a synthetic pattern nor a
/// benchmark profile, or if the topology cannot host the CMP layout.
pub fn build_traffic(
    args: &RunArgs,
    topo: &SharedTopology,
) -> Result<Box<dyn TrafficModel>, CliError> {
    noc_campaign::build_traffic(&args.traffic, args.load, args.packet, args.seed, topo)
        .map_err(|e| CliError(e.0))
}

/// Runs a parsed experiment to completion, writing the run manifest and
/// Chrome trace as side effects when `--manifest` / `--trace` were given.
///
/// # Errors
///
/// Returns a [`CliError`] when the topology or traffic spec is invalid, the
/// network configuration fails [`noc_sim::NetworkConfig::validate`] on the topology,
/// or a requested output file cannot be written.
pub fn run(args: &RunArgs) -> Result<SimReport, CliError> {
    let topo = build_topology(&args.topology)?;
    // `--threads` / `NOC_THREADS` is a budget, not a command: the effective
    // count is clamped to the host CPUs and to what the network is large
    // enough to shard profitably. The decision is recorded in the manifest.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = auto_threads(args.threads, host_cpus, topo.num_routers());
    let mut builder = ExperimentBuilder::new(topo.clone())
        .routing(args.routing)
        .va_policy(args.va)
        .vcs(args.vcs)
        .buffer_depth(args.buffer)
        .seed(args.seed)
        .phases(args.warmup, args.measure, args.drain)
        .threads(threads.effective)
        .metrics(args.metrics);
    if args.trace.is_some() {
        builder = builder.trace(TraceSpec::routers(args.trace_routers.clone()));
    }
    let spec = builder.spec();
    let config = builder.config();
    config
        .validate(topo.as_ref())
        .map_err(|e| err(format!("invalid network configuration: {e}")))?;
    let traffic = build_traffic(args, &topo)?;
    let scheme_label = args.scheme.label();
    let mut sim = match args.scheme {
        RouterChoice::Pc(scheme) => builder.scheme(scheme).build(traffic),
        RouterChoice::Evc => builder.build_with_factory(traffic, &EvcRouterFactory::default()),
        RouterChoice::Hybrid => {
            builder.build_with_factory(traffic, &HybridRouterFactory::default())
        }
    };
    let report = sim.run(spec);
    if let Some(path) = &args.manifest {
        RunManifest::capture(&report, &config, spec, args.seed, args.metrics)
            .with_scheme(scheme_label)
            .with_threads(threads)
            .write(Path::new(path))
            .map_err(|e| err(format!("cannot write manifest {path}: {e}")))?;
    }
    if let Some(path) = &args.trace {
        // Every scheme's routers carry the kernel tracer; the empty-document
        // fallback only covers a trace spec that selected no live router.
        let json = sim
            .chrome_trace()
            .unwrap_or_else(|| "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n".into());
        std::fs::write(path, json).map_err(|e| err(format!("cannot write trace {path}: {e}")))?;
    }
    Ok(report)
}

/// A parsed `noc campaign` invocation.
#[derive(Clone, PartialEq, Debug)]
pub enum CampaignCommand {
    /// `campaign run`: execute (or resume) a sweep.
    Run {
        /// Spec file path (`.toml` or `.json`).
        spec: String,
        /// Campaign directory (cache + checkpoint + report).
        out: String,
        /// Across-point worker budget (`0` = one sim per core).
        threads: usize,
        /// Stop after this many uncached points (deterministic interrupt).
        max_points: Option<usize>,
    },
    /// `campaign status`: report checkpoint progress without running.
    Status {
        /// Campaign directory.
        out: String,
    },
    /// `campaign expand`: print the expanded point set without running.
    Expand {
        /// Spec file path.
        spec: String,
    },
}

/// Parses `campaign` subcommand arguments.
///
/// # Errors
///
/// Returns a [`CliError`] for a missing verb, unknown flags, or missing
/// required flags (`--spec`, `--out`).
pub fn parse_campaign_args(args: &[String]) -> Result<CampaignCommand, CliError> {
    let (verb, rest) = args
        .split_first()
        .ok_or_else(|| err("campaign needs a verb: run, status or expand"))?;
    let mut spec: Option<String> = None;
    let mut out: Option<String> = None;
    let mut threads = 0usize;
    let mut max_points: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--spec" => spec = Some(value()?),
            "--out" => out = Some(value()?),
            "--threads" if verb == "run" => {
                threads = parse_num(&value()?, flag)?;
                if threads == 0 {
                    return Err(err("--threads must be at least 1"));
                }
            }
            "--max-points" if verb == "run" => max_points = Some(parse_num(&value()?, flag)?),
            other => return Err(err(format!("unknown flag {other:?} (see `noc help`)"))),
        }
    }
    let need_spec = || {
        spec.clone()
            .ok_or_else(|| err("campaign needs --spec FILE"))
    };
    let need_out = || out.clone().ok_or_else(|| err("campaign needs --out DIR"));
    match verb.as_str() {
        "run" => Ok(CampaignCommand::Run {
            spec: need_spec()?,
            out: need_out()?,
            threads,
            max_points,
        }),
        "status" => Ok(CampaignCommand::Status { out: need_out()? }),
        "expand" => Ok(CampaignCommand::Expand { spec: need_spec()? }),
        other => Err(err(format!(
            "unknown campaign verb {other:?} (run, status, expand)"
        ))),
    }
}

/// Executes a parsed `campaign` command and returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable/invalid specs and any execution
/// failure (see [`noc_campaign::run_campaign`]).
pub fn run_campaign_command(command: &CampaignCommand) -> Result<String, CliError> {
    match command {
        CampaignCommand::Run {
            spec,
            out,
            threads,
            max_points,
        } => {
            let spec = CampaignSpec::load(Path::new(spec)).map_err(|e| CliError(e.0))?;
            let options = CampaignOptions {
                threads: *threads,
                max_points: *max_points,
                git_rev: None,
            };
            let outcome = noc_campaign::run_campaign(&spec, Path::new(out), &options)
                .map_err(|e| CliError(e.0))?;
            let mut text = format!(
                "{} points | cache hits {} | executed {}",
                outcome.total, outcome.cache_hits, outcome.executed
            );
            match (&outcome.report, &outcome.report_path) {
                (Some(report), Some(path)) => {
                    let _ = write!(
                        text,
                        "\nreport: {}\n{}",
                        path.display(),
                        report.render_summary()
                    );
                }
                _ => {
                    let _ = write!(
                        text,
                        "\nstopped early (--max-points): {} point(s) still pending; \
                         re-run to resume",
                        outcome.total - outcome.cache_hits - outcome.executed
                    );
                }
            }
            Ok(text)
        }
        CampaignCommand::Status { out } => {
            let dir = Path::new(out);
            let Some(cp) = Checkpoint::load(dir) else {
                return Ok(format!("no campaign checkpoint in {out}"));
            };
            let report = if dir.join("report.json").is_file() {
                "report.json present"
            } else {
                "no report yet"
            };
            Ok(format!(
                "campaign {} @ {}: {}/{} points done | {}",
                cp.name, cp.git_rev, cp.done, cp.total, report
            ))
        }
        CampaignCommand::Expand { spec } => {
            let spec = CampaignSpec::load(Path::new(spec)).map_err(|e| CliError(e.0))?;
            let points = spec.expand();
            let mut text = format!("{}: {} point(s)", spec.name, points.len());
            for point in &points {
                let _ = write!(text, "\n  {point}");
            }
            Ok(text)
        }
    }
}

/// Renders a report as the CLI's human-readable summary.
pub fn render_report(report: &SimReport) -> String {
    let s = report.router_stats;
    let mut out = format!(
        "topology       {}\n\
         traffic        {}\n\
         cycles         {}\n\
         avg latency    {:.2} cycles (p99 <= {}), avg hops {:.2}\n\
         delivered      {} measured / {} total{}\n\
         throughput     {:.4} flits/node/cycle\n\
         reuse          {:.1}% of flits ({:.1}% of headers)\n\
         buffer bypass  {:.1}% of flits\n\
         router energy  {:.1} nJ ({})\n\
         locality       {:.1}% end-to-end, {:.1}% crossbar",
        report.topology,
        report.traffic,
        report.cycles,
        report.avg_latency,
        report.p99_latency_bound,
        report.avg_hops,
        report.measured_delivered,
        report.delivered_packets,
        if report.drained {
            ""
        } else {
            "  [NOT DRAINED]"
        },
        report.throughput,
        report.reusability() * 100.0,
        s.header_hit_rate() * 100.0,
        report.bypass_rate() * 100.0,
        report.energy_pj() / 1000.0,
        report.energy_breakdown,
        report.end_to_end_locality * 100.0,
        report.xbar_locality() * 100.0,
    );
    if let Some(obs) = &report.observability {
        out.push_str(&render_observability(obs));
    }
    out
}

/// Renders the `--metrics=full` per-router section appended to the summary.
fn render_observability(obs: &noc_sim::ObservabilityReport) -> String {
    let (conflict, credit) = obs.terminations();
    let mut out = String::new();
    let _ = write!(
        out,
        "\n\nper-router metrics (--metrics full)\n\
         network hit rate   {:.1}%\n\
         terminations       {} ({} conflict / {} credit)\n\
         stage p50/p99 <=   BW {}/{}  VA {}/{}  SA {}/{}  ST {}/{}",
        obs.hit_rate() * 100.0,
        conflict + credit,
        conflict,
        credit,
        obs.stages.bw.quantile_bound(0.5),
        obs.stages.bw.quantile_bound(0.99),
        obs.stages.va.quantile_bound(0.5),
        obs.stages.va.quantile_bound(0.99),
        obs.stages.sa.quantile_bound(0.5),
        obs.stages.sa.quantile_bound(0.99),
        obs.stages.st.quantile_bound(0.5),
        obs.stages.st.quantile_bound(0.99),
    );
    for r in &obs.routers {
        if r.total_traversals() == 0 {
            continue;
        }
        let (tc, tx) = r.terminations();
        let _ = write!(
            out,
            "\n  r{:<3} traversals {:<8} hits {:>5.1}%  bypass {:>5.1}%  \
             term {tc}c/{tx}x  restores {}",
            r.router,
            r.total_traversals(),
            r.hit_rate() * 100.0,
            r.total_bypasses() as f64 / r.total_traversals() as f64 * 100.0,
            r.restores.iter().sum::<u64>(),
        );
    }
    out
}

/// The `noc list` output: available traffic names, topology forms, and
/// schemes — rendered from the same vocabulary tables
/// ([`noc_campaign::TOPOLOGY_FORMS`], [`noc_campaign::SCHEME_NAMES`]) the
/// parsers accept, so the listing cannot drift from the grammar.
pub fn render_list() -> String {
    let mut out =
        String::from("synthetic traffic: ur, bc, bp, tornado, neighbor\nbenchmarks:        ");
    let names: Vec<&str> = BenchmarkProfile::suite().iter().map(|p| p.name).collect();
    out.push_str(&names.join(", "));
    out.push_str("\ntopologies:        ");
    out.push_str(&noc_campaign::TOPOLOGY_FORMS.join(", "));
    out.push_str("\nschemes:           ");
    out.push_str(&noc_campaign::SCHEME_NAMES.join(", "));
    out
}

/// The `noc help` text.
pub fn usage() -> &'static str {
    "noc — pseudo-circuit NoC experiment runner\n\
     \n\
     USAGE:\n\
       noc run [flags]     run one experiment and print its report\n\
       noc campaign run --spec FILE --out DIR [--threads N] [--max-points N]\n\
                           run/resume a cached sweep (docs/CAMPAIGNS.md)\n\
       noc campaign status --out DIR     checkpoint progress of a sweep\n\
       noc campaign expand --spec FILE   print the expanded point set\n\
       noc list            list traffic models, topologies and schemes\n\
       noc help            this text\n\
     \n\
     FLAGS (with defaults):\n\
       --topology mesh8x8    --traffic ur        --load 0.10    --packet 5\n\
       --scheme pseudo+ps+bb --routing xy        --va static\n\
       --vcs 4               --buffer 4\n\
       --warmup 1000         --measure 10000     --drain 100000 --seed 1\n\
       --threads <cores>     engine thread budget (results are identical for\n\
                             any value; NOC_THREADS caps it process-wide; the\n\
                             runner clamps to host CPUs and runs serially when\n\
                             the network is too small to shard profitably —\n\
                             the manifest records the decision)\n\
     \n\
     OBSERVABILITY (defaults off; see docs/METRICS.md):\n\
       --metrics off|edge|full   per-router counters + stage histograms (full)\n\
       --manifest PATH           write the machine-readable run manifest (JSON)\n\
       --trace PATH              write router lifecycle events (circuit + EVC\n\
                                 latch) as Chrome-trace JSON (chrome://tracing)\n\
       --trace-routers 0,5,12    restrict tracing to these routers (default all)"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty() {
        let parsed = parse_run_args(&[]).unwrap();
        assert_eq!(parsed, RunArgs::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let parsed = parse_run_args(&args(&[
            "--topology",
            "cmesh4x4",
            "--traffic",
            "fma3d",
            "--scheme",
            "pseudo+bb",
            "--routing",
            "o1turn",
            "--va",
            "dynamic",
            "--vcs",
            "8",
            "--buffer",
            "2",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--drain",
            "30",
            "--seed",
            "9",
            "--load",
            "0.25",
            "--packet",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.topology, "cmesh4x4");
        assert_eq!(parsed.scheme, RouterChoice::Pc(Scheme::pseudo_bb()));
        assert_eq!(parsed.routing, RoutingPolicy::O1Turn);
        assert_eq!(parsed.va, VaPolicy::Dynamic);
        assert_eq!((parsed.vcs, parsed.buffer), (8, 2));
        assert_eq!((parsed.warmup, parsed.measure, parsed.drain), (10, 20, 30));
        assert_eq!(parsed.load, 0.25);
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let parsed = parse_run_args(&args(&["--threads", "4"])).unwrap();
        assert_eq!(parsed.threads, 4);
        assert_eq!(
            RunArgs::default().threads,
            noc_base::pool::default_threads(),
            "default thread budget comes from the pool's core detection"
        );
        assert!(parse_run_args(&args(&["--threads", "0"]))
            .unwrap_err()
            .0
            .contains("at least 1"));
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse_run_args(&args(&["--bogus"]))
            .unwrap_err()
            .0
            .contains("--bogus"));
        assert!(parse_run_args(&args(&["--load"]))
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse_run_args(&args(&["--load", "abc"]))
            .unwrap_err()
            .0
            .contains("abc"));
        assert!(parse_scheme("warp").is_err());
    }

    #[test]
    fn vcs_beyond_one_mask_word_is_rejected_up_front() {
        assert_eq!(parse_run_args(&args(&["--vcs", "64"])).unwrap().vcs, 64);
        for bad in ["65", "255", "0"] {
            let parsed = parse_run_args(&args(&["--vcs", bad])).unwrap();
            let e = run(&parsed).unwrap_err().0;
            assert!(
                e.contains("VCs per port must be between 1 and 64"),
                "{bad}: {e}"
            );
        }
    }

    #[test]
    fn unbuildable_configurations_are_rejected_before_the_run() {
        let cases: &[(&[&str], &str)] = &[
            (&["--buffer", "0"], "buffer depth must be at least 1"),
            (
                &["--vcs", "3", "--routing", "o1turn"],
                "multiple of the 2 deadlock-avoidance VC classes",
            ),
            // A ring needs two dateline classes even under XY routing.
            (
                &["--topology", "ring8", "--vcs", "1", "--routing", "xy"],
                "multiple of the 2 deadlock-avoidance VC classes",
            ),
        ];
        for (flags, needle) in cases {
            let parsed = parse_run_args(&args(flags)).unwrap();
            let e = run(&parsed).unwrap_err().0;
            assert!(
                e.starts_with("invalid network configuration: "),
                "{flags:?}: {e}"
            );
            assert!(e.contains(needle), "{flags:?}: {e}");
        }
    }

    #[test]
    fn topology_specs_build() {
        assert_eq!(build_topology("mesh8x8").unwrap().num_routers(), 64);
        assert_eq!(build_topology("CMESH4x4").unwrap().num_nodes(), 64);
        assert_eq!(build_topology("mecs4x4").unwrap().num_nodes(), 64);
        assert_eq!(build_topology("fbfly4x4").unwrap().num_nodes(), 64);
        let custom = build_topology("mesh3x5c2").unwrap();
        assert_eq!(custom.num_routers(), 15);
        assert_eq!(custom.num_nodes(), 30);
        assert_eq!(build_topology("ring8").unwrap().num_routers(), 8);
        assert_eq!(build_topology("hring2x8").unwrap().num_routers(), 16);
        assert!(build_topology("torus9").is_err());
        assert!(build_topology("mesh3by5").is_err());
    }

    #[test]
    fn traffic_specs_build() {
        let run_args = RunArgs::default();
        let topo = build_topology("mesh4x4c1").unwrap();
        assert!(build_traffic(&run_args, &topo).is_ok());
        let bench = RunArgs {
            traffic: "lu".into(),
            ..RunArgs::default()
        };
        let cmesh = build_topology("cmesh4x4").unwrap();
        assert!(build_traffic(&bench, &cmesh).is_ok());
        let bad = RunArgs {
            traffic: "nonesuch".into(),
            ..RunArgs::default()
        };
        assert!(build_traffic(&bad, &cmesh).is_err());
    }

    #[test]
    fn benchmark_traffic_on_unsupported_concentration_is_an_error() {
        let args = RunArgs {
            traffic: "fma3d".into(),
            ..RunArgs::default()
        };
        let odd = build_topology("mesh3x3c2").unwrap();
        let Err(e) = build_traffic(&args, &odd) else {
            panic!("expected a concentration error");
        };
        assert!(e.0.contains("concentration"), "{e}");
        // Concentration 1 with an odd node count is also rejected cleanly.
        let odd_nodes = build_topology("mesh3x3").unwrap();
        assert!(build_traffic(&args, &odd_nodes).is_err());
    }

    #[test]
    fn tiny_experiment_runs_end_to_end() {
        let mut run_args = parse_run_args(&args(&[
            "--topology",
            "mesh2x2",
            "--traffic",
            "ur",
            "--load",
            "0.05",
            "--measure",
            "500",
            "--warmup",
            "100",
            "--drain",
            "5000",
        ]))
        .unwrap();
        run_args.packet = 2;
        let report = run(&run_args).unwrap();
        assert!(report.drained);
        let text = render_report(&report);
        assert!(text.contains("avg latency"));
        assert!(!text.contains("NOT DRAINED"));
    }

    #[test]
    fn observability_flags_parse() {
        let parsed = parse_run_args(&args(&[
            "--metrics",
            "full",
            "--manifest",
            "out/run.json",
            "--trace",
            "out/trace.json",
            "--trace-routers",
            "0, 5,12",
        ]))
        .unwrap();
        assert_eq!(parsed.metrics, MetricsLevel::Full);
        assert_eq!(parsed.manifest.as_deref(), Some("out/run.json"));
        assert_eq!(parsed.trace.as_deref(), Some("out/trace.json"));
        assert_eq!(parsed.trace_routers, vec![0, 5, 12]);
        assert!(parse_run_args(&args(&["--metrics", "loud"])).is_err());
        assert!(parse_run_args(&args(&["--trace-routers", "1,x"])).is_err());
    }

    #[test]
    fn full_metrics_run_writes_manifest_and_trace() {
        let dir = std::env::temp_dir().join(format!("noc-cli-obs-{}", std::process::id()));
        let manifest_path = dir.join("run.json");
        let trace_path = dir.join("trace.json");
        let run_args = RunArgs {
            topology: "mesh2x2".into(),
            load: 0.05,
            packet: 2,
            warmup: 100,
            measure: 500,
            drain: 5_000,
            metrics: MetricsLevel::Full,
            manifest: Some(manifest_path.to_string_lossy().into_owned()),
            trace: Some(trace_path.to_string_lossy().into_owned()),
            trace_routers: vec![0, 3],
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();

        let obs = report.observability.as_ref().expect("full metrics payload");
        assert_eq!(obs.routers.len(), 4);
        let (conflict, credit) = obs.terminations();
        assert_eq!(
            conflict + credit,
            report.router_stats.pc_terminations_conflict
                + report.router_stats.pc_terminations_credit
        );
        let text = render_report(&report);
        assert!(text.contains("per-router metrics"));
        assert!(text.contains("network hit rate"));

        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        assert!(manifest.contains("\"schema\": \"noc-run-manifest/1\""));
        assert!(manifest.contains("\"scheme\": \"Pseudo+PS+BB\""));
        // A 2x2 mesh is too small to shard: the runner's thread decision is
        // recorded and must have clamped to serial execution.
        assert!(manifest.contains("\"threads_effective\": 1"));
        assert!(manifest.contains("\"threads_reason\""));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_off_report_has_no_observability_section() {
        let run_args = RunArgs {
            topology: "mesh2x2".into(),
            load: 0.05,
            packet: 2,
            warmup: 100,
            measure: 500,
            drain: 5_000,
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(report.observability.is_none());
        assert!(!render_report(&report).contains("per-router metrics"));
    }

    #[test]
    fn evc_scheme_runs() {
        let mut run_args = RunArgs {
            topology: "mesh4x4".into(),
            scheme: RouterChoice::Evc,
            measure: 400,
            warmup: 100,
            drain: 4_000,
            ..RunArgs::default()
        };
        run_args.load = 0.05;
        let report = run(&run_args).unwrap();
        assert!(report.measured_delivered > 0);
    }

    #[test]
    fn evc_full_metrics_and_trace_work() {
        // EVC rides the shared pipeline kernel, so `--metrics=full`,
        // `--trace` and `--manifest` must produce real payloads for it —
        // per-stage histograms, express-latch trace events, router dumps.
        let dir = std::env::temp_dir().join(format!("noc-cli-evc-obs-{}", std::process::id()));
        let manifest_path = dir.join("run.json");
        let trace_path = dir.join("trace.json");
        let run_args = RunArgs {
            topology: "mesh4x4".into(),
            scheme: RouterChoice::Evc,
            load: 0.10,
            packet: 5,
            warmup: 200,
            measure: 2_000,
            drain: 20_000,
            metrics: MetricsLevel::Full,
            manifest: Some(manifest_path.to_string_lossy().into_owned()),
            trace: Some(trace_path.to_string_lossy().into_owned()),
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(
            report.router_stats.express_bypasses > 0,
            "no express traffic"
        );
        let obs = report.observability.as_ref().expect("full metrics payload");
        assert_eq!(obs.routers.len(), 16);
        assert!(obs.stages.st.count() > 0, "no ST-stage samples recorded");
        assert!(obs.stages.sa.count() > 0, "no SA-stage samples recorded");
        let text = render_report(&report);
        assert!(text.contains("per-router metrics"));

        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        assert!(manifest.contains("\"scheme\": \"EVC\""));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"express-latch\""), "no latch trace events");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hybrid_scheme_runs_on_a_ring() {
        // One flag each for the two new vocabulary entries: the profiled
        // hybrid scheme on the ring topology, end to end through `run`.
        let run_args = RunArgs {
            topology: "ring8".into(),
            scheme: RouterChoice::Hybrid,
            load: 0.05,
            warmup: 100,
            measure: 2_000,
            drain: 20_000,
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(report.drained);
        assert!(report.measured_delivered > 0);
        assert!(
            report.router_stats.pc_reuses > 0,
            "hybrid never held a circuit: {:?}",
            report.router_stats
        );
    }

    #[test]
    fn list_and_usage_mention_key_names() {
        let list = render_list();
        assert!(list.contains("fma3d") && list.contains("mecs4x4"));
        // The listing is rendered from the shared vocabulary tables, so the
        // new scheme and topology grammar must appear.
        assert!(list.contains("hybrid"), "{list}");
        assert!(list.contains("ring<N>[c<C>]"), "{list}");
        assert!(list.contains("hring<G>x<L>[c<C>]"), "{list}");
        // Everything `noc list` advertises as a scheme actually parses.
        for name in noc_campaign::SCHEME_NAMES {
            assert!(parse_scheme(name).is_ok(), "{name}");
        }
        assert!(usage().contains("noc run"));
        assert!(usage().contains("noc campaign run"));
    }

    #[test]
    fn campaign_args_parse() {
        let cmd = parse_campaign_args(&args(&[
            "run",
            "--spec",
            "sweep.toml",
            "--out",
            "out/sweep",
            "--threads",
            "2",
            "--max-points",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            CampaignCommand::Run {
                spec: "sweep.toml".into(),
                out: "out/sweep".into(),
                threads: 2,
                max_points: Some(3),
            }
        );
        assert_eq!(
            parse_campaign_args(&args(&["status", "--out", "d"])).unwrap(),
            CampaignCommand::Status { out: "d".into() }
        );
        assert_eq!(
            parse_campaign_args(&args(&["expand", "--spec", "s.json"])).unwrap(),
            CampaignCommand::Expand {
                spec: "s.json".into()
            }
        );
        assert!(parse_campaign_args(&[]).unwrap_err().0.contains("verb"));
        assert!(parse_campaign_args(&args(&["run", "--out", "d"]))
            .unwrap_err()
            .0
            .contains("--spec"));
        assert!(parse_campaign_args(&args(&["run", "--spec", "s"]))
            .unwrap_err()
            .0
            .contains("--out"));
        // --max-points belongs to `run` only.
        assert!(parse_campaign_args(&args(&["status", "--max-points", "3"])).is_err());
    }

    #[test]
    fn campaign_run_and_status_work_end_to_end() {
        let dir = std::env::temp_dir().join(format!("noc-cli-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            "name = \"smoke\"\n[phases]\nwarmup = 50\nmeasure = 200\ndrain = 2000\n\
             [axes]\ntopology = \"mesh2x2\"\npacket = 2\nload = [0.02, 0.05]\n",
        )
        .unwrap();
        let out = dir.join("out");
        let run = CampaignCommand::Run {
            spec: spec_path.to_string_lossy().into_owned(),
            out: out.to_string_lossy().into_owned(),
            threads: 1,
            max_points: None,
        };
        let text = run_campaign_command(&run).unwrap();
        assert!(
            text.contains("2 points | cache hits 0 | executed 2"),
            "{text}"
        );
        assert!(text.contains("report:"), "{text}");
        // Second run: everything cached.
        let text = run_campaign_command(&run).unwrap();
        assert!(
            text.contains("2 points | cache hits 2 | executed 0"),
            "{text}"
        );
        let status = run_campaign_command(&CampaignCommand::Status {
            out: out.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(
            status.contains("smoke") && status.contains("2/2"),
            "{status}"
        );
        let expand = run_campaign_command(&CampaignCommand::Expand {
            spec: spec_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(expand.contains("2 point(s)"), "{expand}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
