//! Hand-rolled argument parsing (no external CLI dependency).

use dslice_sim::churn::ChurnSchedule;
use dslice_sim::{AttributeDistribution, Concurrency, LatencyModel, ProtocolKind, SamplerKind};

/// Top-level command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a simulation.
    Sim(SimArgs),
    /// Evaluate one of the paper's analytic bounds.
    Analyze(AnalyzeArgs),
    /// Map a normalized rank to its slice.
    SliceOf {
        /// Number of equal slices.
        slices: usize,
        /// The normalized rank in (0, 1].
        rank: f64,
    },
    /// Run one scenario from the committed library.
    RunScenario(ScenarioArgs),
    /// Run the protocols over real sockets on loopback, with chaos knobs.
    NetRun(NetRunArgs),
    /// Print usage.
    Help,
}

/// Arguments of `dslice-cli net-run`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRunArgs {
    pub protocol: ProtocolKind,
    pub sampler: SamplerKind,
    pub n: usize,
    pub slices: usize,
    pub view: usize,
    pub period_ms: u64,
    pub duration_ms: u64,
    pub seed: u64,
    pub bootstrap: usize,
    pub distribution: AttributeDistribution,
    /// Wire-level loss probability.
    pub loss: f64,
    /// Wire-level extra delay range in milliseconds.
    pub delay_ms: Option<(u64, u64)>,
    /// Crash this fraction of the nodes at this offset: `(frac, at_ms)`.
    pub crash: Option<(f64, u64)>,
    /// Restart the crashed nodes at this offset (requires `--crash`).
    pub restart_at_ms: Option<u64>,
    /// Refuse inbound connections on a fraction of the nodes:
    /// `(frac, at_ms, window_ms)`.
    pub refuse: Option<(f64, u64, u64)>,
    /// Stall (accept but never read) inbound connections:
    /// `(frac, at_ms, window_ms)`.
    pub stall: Option<(f64, u64, u64)>,
    pub json: Option<String>,
    pub quiet: bool,
    /// Write the final scraped metrics registry here (Prometheus text).
    pub metrics_out: Option<String>,
    /// Stream the scraped registry here as JSON lines while running.
    pub metrics_stream: Option<String>,
    /// Cadence of the metrics stream in milliseconds.
    pub scrape_every_ms: u64,
}

impl Default for NetRunArgs {
    fn default() -> Self {
        NetRunArgs {
            protocol: ProtocolKind::Ranking,
            sampler: SamplerKind::Cyclon,
            n: 16,
            slices: 2,
            view: 8,
            period_ms: 20,
            duration_ms: 1000,
            seed: 0xD51CE,
            bootstrap: 4,
            distribution: AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 },
            loss: 0.0,
            delay_ms: None,
            crash: None,
            restart_at_ms: None,
            refuse: None,
            stall: None,
            json: None,
            quiet: false,
            metrics_out: None,
            metrics_stream: None,
            scrape_every_ms: 100,
        }
    }
}

/// Arguments of `dslice-cli run-scenario`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArgs {
    /// Scenario name (`--list` to see them); `None` only with `list`.
    pub name: Option<String>,
    /// Write the full JSON report here.
    pub json: Option<String>,
    /// List the library and exit.
    pub list: bool,
    /// Suppress the trajectory table.
    pub quiet: bool,
    /// Write a chrome://tracing trace of the run here.
    pub trace_out: Option<String>,
    /// Write the trace as JSON lines here.
    pub trace_jsonl: Option<String>,
    /// Trace only every Nth cycle.
    pub trace_sample: u64,
    /// Write the run's metrics registry here (Prometheus text).
    pub metrics_out: Option<String>,
}

/// Arguments of `dslice-cli sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    pub protocol: ProtocolKind,
    pub sampler: SamplerKind,
    pub n: usize,
    pub slices: usize,
    pub view: usize,
    pub cycles: usize,
    pub seed: u64,
    pub concurrency: Concurrency,
    pub latency: LatencyModel,
    pub churn: ChurnSpec,
    pub distribution: AttributeDistribution,
    pub metrics_every: usize,
    pub time_phases: bool,
    pub csv: Option<String>,
    pub json: Option<String>,
    pub quiet: bool,
    /// Write a chrome://tracing trace of the run here.
    pub trace_out: Option<String>,
    /// Write the trace as JSON lines here.
    pub trace_jsonl: Option<String>,
    /// Trace only every Nth cycle.
    pub trace_sample: u64,
    /// Write the run's metrics registry here (Prometheus text).
    pub metrics_out: Option<String>,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            protocol: ProtocolKind::Ranking,
            sampler: SamplerKind::Cyclon,
            n: 1000,
            slices: 10,
            view: 10,
            cycles: 100,
            seed: 0xD51CE,
            concurrency: Concurrency::None,
            latency: LatencyModel::Zero,
            churn: ChurnSpec::None,
            distribution: AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 },
            metrics_every: 1,
            time_phases: false,
            csv: None,
            json: None,
            quiet: false,
            trace_out: None,
            trace_jsonl: None,
            trace_sample: 1,
            metrics_out: None,
        }
    }
}

/// Churn selection for the CLI.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnSpec {
    None,
    /// Attribute-correlated churn: `rate` per event, every `period` cycles.
    Correlated {
        rate: f64,
        period: usize,
    },
    /// Uncorrelated churn with the run's base distribution.
    Uncorrelated {
        rate: f64,
        period: usize,
    },
}

impl ChurnSpec {
    pub fn schedule(rate: f64, period: usize) -> ChurnSchedule {
        ChurnSchedule {
            rate,
            period,
            stop_after: None,
        }
    }
}

/// Arguments of `dslice-cli analyze`.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeArgs {
    /// Lemma 4.1: minimal admissible slice length + probability bound.
    Lemma41 {
        beta: f64,
        epsilon: f64,
        n: usize,
        p: Option<f64>,
    },
    /// Theorem 5.1: samples required for a confident slice estimate.
    Samples { p: f64, d: f64, alpha: f64 },
    /// Slice population moments (§4.4).
    Population { n: usize, p: f64 },
}

pub const USAGE: &str = "\
dslice-cli — distributed slicing from the shell

USAGE:
  dslice-cli sim [--protocol jk|mod-jk|mod-jk-live[:<strikes>:<cooldown>]|ranking
                             |ranking-uniform|sliding:<window>|decay:<lambda>|robust:<window>
                             |trimmed:<window>:<pct>|fence-trim:<window>:<pct>]
                 [--sampler cyclon|newscast|lpbcast|uniform]
                 [--n N] [--slices K] [--view C] [--cycles T] [--seed S]
                 [--concurrency none|half|full]
                 [--latency zero|fixed:<cycles>|uniform:<min>:<max>|geometric:<p>]
                 [--churn none|correlated:<rate>:<period>|uncorrelated:<rate>:<period>]
                 [--distribution uniform|pareto:<scale>:<shape>|normal:<mean>:<std>|exp:<rate>]
                 [--metrics-every M] [--time-phases]
                 [--csv FILE] [--json FILE] [--quiet]
                 [--trace-out FILE] [--trace-jsonl FILE] [--trace-sample N]
                 [--metrics-out FILE]
             (`run` is an alias for `sim`)
  dslice-cli analyze lemma41 --beta B --epsilon E --n N [--p P]
  dslice-cli analyze samples --p P --d D [--alpha A]
  dslice-cli analyze population --n N --p P
  dslice-cli slice-of --slices K --rank R
  dslice-cli run-scenario <NAME> [--json FILE] [--quiet]
                 [--trace-out FILE] [--trace-jsonl FILE] [--trace-sample N]
                 [--metrics-out FILE]
  dslice-cli run-scenario --list
  dslice-cli net-run [--protocol P] [--sampler S] [--n N] [--slices K]
                     [--view C] [--period-ms MS] [--duration-ms MS] [--seed S]
                     [--bootstrap B] [--distribution D]
                     [--loss P] [--delay-ms MIN:MAX]
                     [--crash FRAC:AT_MS] [--restart AT_MS]
                     [--refuse FRAC:AT_MS:DUR_MS] [--stall FRAC:AT_MS:DUR_MS]
                     [--json FILE] [--quiet]
                     [--metrics-out FILE] [--metrics-stream FILE]
                     [--scrape-every-ms MS]
  dslice-cli help";

fn value(argv: &[String], i: usize) -> Result<&str, String> {
    argv.get(i + 1)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{} requires a value", argv[i]))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("invalid value for {flag}: {raw:?} ({e})"))
}

/// Default liveness knobs for a bare `mod-jk-live` (the scenario library's
/// calibration: two strikes, a 64-activation ban).
const MOD_JK_LIVE_DEFAULTS: ProtocolKind = ProtocolKind::ModJkLive {
    strike_limit: 2,
    cooldown: 64,
};

/// `<window>:<pct>` for the trimming kinds. The fraction is converted to
/// parts per million (the `Copy + Eq` representation the kind stores);
/// out-of-range fractions surface as parse errors via `validate`, not
/// panics, so the constructors are bypassed deliberately.
fn parse_trim_spec(kind: &str, spec: &str, raw: &str) -> Result<(usize, u32), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("{kind} takes <window>:<pct>, got {raw:?}"));
    }
    let window = parse_num(&format!("--protocol {kind} window"), parts[0])?;
    let pct: f64 = parse_num(&format!("--protocol {kind} fraction"), parts[1])?;
    if !pct.is_finite() || pct < 0.0 {
        return Err(format!(
            "{kind} fraction must be a fraction in (0, 0.5), got {pct}"
        ));
    }
    Ok((window, (pct * 1e6).round() as u32))
}

pub fn parse_protocol(raw: &str) -> Result<ProtocolKind, String> {
    let kind = match raw {
        "jk" => ProtocolKind::Jk,
        "mod-jk" | "modjk" => ProtocolKind::ModJk,
        "mod-jk-live" | "modjklive" => MOD_JK_LIVE_DEFAULTS,
        "ranking" => ProtocolKind::Ranking,
        "ranking-uniform" => ProtocolKind::RankingUniform,
        "sliding" => {
            return Err("sliding requires an explicit window (sliding:<window>)".into());
        }
        other => {
            if let Some(window) = other.strip_prefix("sliding:") {
                ProtocolKind::SlidingRanking {
                    window: parse_num("--protocol sliding", window)?,
                }
            } else if let Some(lambda) = other.strip_prefix("decay:") {
                let lambda: f64 = parse_num("--protocol decay", lambda)?;
                // Constructed directly (not via `ProtocolKind::decay`, which
                // panics) so out-of-range factors surface as parse errors.
                ProtocolKind::DecayRanking {
                    lambda_ppm: (lambda * 1e6).round() as u32,
                }
            } else if let Some(window) = other.strip_prefix("robust:") {
                ProtocolKind::RobustRanking {
                    window: parse_num("--protocol robust", window)?,
                }
            } else if let Some(spec) = other.strip_prefix("trimmed:") {
                let (window, trim_ppm) = parse_trim_spec("trimmed", spec, raw)?;
                ProtocolKind::TrimmedRanking { window, trim_ppm }
            } else if let Some(spec) = other.strip_prefix("fence-trim:") {
                let (window, trim_ppm) = parse_trim_spec("fence-trim", spec, raw)?;
                ProtocolKind::FencedTrimmedRanking { window, trim_ppm }
            } else if let Some(spec) = other.strip_prefix("mod-jk-live:") {
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 2 {
                    return Err(format!(
                        "mod-jk-live takes <strike-limit>:<cooldown>, got {raw:?}"
                    ));
                }
                ProtocolKind::ModJkLive {
                    strike_limit: parse_num("--protocol mod-jk-live strike limit", parts[0])?,
                    cooldown: parse_num("--protocol mod-jk-live cooldown", parts[1])?,
                }
            } else {
                return Err(format!("unknown protocol {other:?}"));
            }
        }
    };
    kind.validate()
        .map_err(|e| format!("invalid protocol {raw:?}: {e}"))?;
    Ok(kind)
}

pub fn parse_sampler(raw: &str) -> Result<SamplerKind, String> {
    match raw {
        "cyclon" => Ok(SamplerKind::Cyclon),
        "newscast" => Ok(SamplerKind::Newscast),
        "lpbcast" => Ok(SamplerKind::Lpbcast),
        "uniform" | "oracle" => Ok(SamplerKind::UniformOracle),
        other => Err(format!("unknown sampler {other:?}")),
    }
}

pub fn parse_latency(raw: &str) -> Result<LatencyModel, String> {
    if raw == "zero" {
        return Ok(LatencyModel::Zero);
    }
    let parts: Vec<&str> = raw.split(':').collect();
    match parts[0] {
        "fixed" if parts.len() == 2 => Ok(LatencyModel::Fixed {
            cycles: parse_num("--latency fixed", parts[1])?,
        }),
        "uniform" if parts.len() == 3 => Ok(LatencyModel::Uniform {
            min: parse_num("--latency uniform min", parts[1])?,
            max: parse_num("--latency uniform max", parts[2])?,
        }),
        "geometric" if parts.len() == 2 => {
            let p: f64 = parse_num("--latency geometric", parts[1])?;
            if !(0.0..1.0).contains(&p) {
                return Err(format!("geometric p must lie in [0, 1), got {p}"));
            }
            Ok(LatencyModel::Geometric { p })
        }
        _ => Err(format!("unknown latency spec {raw:?}")),
    }
}

pub fn parse_concurrency(raw: &str) -> Result<Concurrency, String> {
    match raw {
        "none" => Ok(Concurrency::None),
        "half" => Ok(Concurrency::Half),
        "full" => Ok(Concurrency::Full),
        other => Err(format!("unknown concurrency {other:?}")),
    }
}

pub fn parse_churn(raw: &str) -> Result<ChurnSpec, String> {
    if raw == "none" {
        return Ok(ChurnSpec::None);
    }
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 3 {
        return Err(format!(
            "churn spec must be none or <kind>:<rate>:<period>, got {raw:?}"
        ));
    }
    let rate: f64 = parse_num("--churn rate", parts[1])?;
    let period: usize = parse_num("--churn period", parts[2])?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("churn rate must lie in [0, 1], got {rate}"));
    }
    if period == 0 {
        return Err("churn period must be at least 1".into());
    }
    match parts[0] {
        "correlated" => Ok(ChurnSpec::Correlated { rate, period }),
        "uncorrelated" => Ok(ChurnSpec::Uncorrelated { rate, period }),
        other => Err(format!("unknown churn kind {other:?}")),
    }
}

pub fn parse_distribution(raw: &str) -> Result<AttributeDistribution, String> {
    if raw == "uniform" {
        return Ok(AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 });
    }
    let parts: Vec<&str> = raw.split(':').collect();
    let dist = match parts[0] {
        "pareto" if parts.len() == 3 => AttributeDistribution::Pareto {
            scale: parse_num("--distribution pareto scale", parts[1])?,
            shape: parse_num("--distribution pareto shape", parts[2])?,
        },
        "normal" if parts.len() == 3 => AttributeDistribution::Normal {
            mean: parse_num("--distribution normal mean", parts[1])?,
            std_dev: parse_num("--distribution normal std", parts[2])?,
        },
        "exp" if parts.len() == 2 => AttributeDistribution::Exponential {
            rate: parse_num("--distribution exp rate", parts[1])?,
        },
        _ => return Err(format!("unknown distribution spec {raw:?}")),
    };
    dist.validate().map_err(|e| e.to_string())?;
    Ok(dist)
}

/// `<frac>` in (0, 1] — the node fraction a chaos flag targets.
fn parse_frac(flag: &str, raw: &str) -> Result<f64, String> {
    let frac: f64 = parse_num(flag, raw)?;
    if !frac.is_finite() || !(0.0..=1.0).contains(&frac) || frac == 0.0 {
        return Err(format!("{flag} fraction must lie in (0, 1], got {frac}"));
    }
    Ok(frac)
}

/// `<frac>:<at-ms>` for `--crash`.
fn parse_crash_spec(raw: &str) -> Result<(f64, u64), String> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("--crash takes <frac>:<at-ms>, got {raw:?}"));
    }
    Ok((
        parse_frac("--crash", parts[0])?,
        parse_num("--crash at-ms", parts[1])?,
    ))
}

/// `<frac>:<at-ms>:<dur-ms>` for `--refuse` / `--stall`.
fn parse_gate_spec(flag: &str, raw: &str) -> Result<(f64, u64, u64), String> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("{flag} takes <frac>:<at-ms>:<dur-ms>, got {raw:?}"));
    }
    let window: u64 = parse_num(&format!("{flag} dur-ms"), parts[2])?;
    if window == 0 {
        return Err(format!("{flag} window must be positive"));
    }
    Ok((
        parse_frac(flag, parts[0])?,
        parse_num(&format!("{flag} at-ms"), parts[1])?,
        window,
    ))
}

/// `<min>:<max>` milliseconds for `--delay-ms`.
fn parse_delay_spec(raw: &str) -> Result<(u64, u64), String> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("--delay-ms takes <min>:<max>, got {raw:?}"));
    }
    let min: u64 = parse_num("--delay-ms min", parts[0])?;
    let max: u64 = parse_num("--delay-ms max", parts[1])?;
    if min > max {
        return Err(format!("--delay-ms range inverted: {min} > {max}"));
    }
    Ok((min, max))
}

fn parse_net_run(argv: &[String]) -> Result<NetRunArgs, String> {
    let mut args = NetRunArgs::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--protocol" => {
                args.protocol = parse_protocol(value(argv, i)?)?;
                i += 2;
            }
            "--sampler" => {
                args.sampler = parse_sampler(value(argv, i)?)?;
                i += 2;
            }
            "--n" => {
                args.n = parse_num("--n", value(argv, i)?)?;
                i += 2;
            }
            "--slices" => {
                args.slices = parse_num("--slices", value(argv, i)?)?;
                i += 2;
            }
            "--view" => {
                args.view = parse_num("--view", value(argv, i)?)?;
                i += 2;
            }
            "--period-ms" => {
                args.period_ms = parse_num("--period-ms", value(argv, i)?)?;
                i += 2;
            }
            "--duration-ms" => {
                args.duration_ms = parse_num("--duration-ms", value(argv, i)?)?;
                i += 2;
            }
            "--seed" => {
                args.seed = parse_num("--seed", value(argv, i)?)?;
                i += 2;
            }
            "--bootstrap" => {
                args.bootstrap = parse_num("--bootstrap", value(argv, i)?)?;
                i += 2;
            }
            "--distribution" => {
                args.distribution = parse_distribution(value(argv, i)?)?;
                i += 2;
            }
            "--loss" => {
                let loss: f64 = parse_num("--loss", value(argv, i)?)?;
                if !loss.is_finite() || !(0.0..=1.0).contains(&loss) {
                    return Err(format!("--loss must lie in [0, 1], got {loss}"));
                }
                args.loss = loss;
                i += 2;
            }
            "--delay-ms" => {
                args.delay_ms = Some(parse_delay_spec(value(argv, i)?)?);
                i += 2;
            }
            "--crash" => {
                args.crash = Some(parse_crash_spec(value(argv, i)?)?);
                i += 2;
            }
            "--restart" => {
                args.restart_at_ms = Some(parse_num("--restart", value(argv, i)?)?);
                i += 2;
            }
            "--refuse" => {
                args.refuse = Some(parse_gate_spec("--refuse", value(argv, i)?)?);
                i += 2;
            }
            "--stall" => {
                args.stall = Some(parse_gate_spec("--stall", value(argv, i)?)?);
                i += 2;
            }
            "--json" => {
                args.json = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--quiet" => {
                args.quiet = true;
                i += 1;
            }
            "--metrics-out" => {
                args.metrics_out = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--metrics-stream" => {
                args.metrics_stream = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--scrape-every-ms" => {
                args.scrape_every_ms = parse_num("--scrape-every-ms", value(argv, i)?)?;
                if args.scrape_every_ms == 0 {
                    return Err("--scrape-every-ms must be positive".into());
                }
                i += 2;
            }
            other => return Err(format!("unknown net-run argument {other:?}\n\n{USAGE}")),
        }
    }
    if args.n == 0 {
        return Err("net-run needs at least one node (--n)".into());
    }
    // One OS thread per task in the vendored runtime: keep localhost
    // clusters small enough that parked threads don't dominate the box.
    if args.n > 128 {
        return Err(format!(
            "net-run is a localhost harness; --n must be at most 128, got {}",
            args.n
        ));
    }
    if args.period_ms == 0 {
        return Err("--period-ms must be positive".into());
    }
    if args.restart_at_ms.is_some() && args.crash.is_none() {
        return Err("--restart requires --crash (nothing would be down)".into());
    }
    if let (Some((_, crash_at)), Some(restart_at)) = (args.crash, args.restart_at_ms) {
        if restart_at <= crash_at {
            return Err(format!(
                "--restart at {restart_at} ms must come after the crash at {crash_at} ms"
            ));
        }
    }
    Ok(args)
}

fn parse_sim(argv: &[String]) -> Result<SimArgs, String> {
    let mut args = SimArgs::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--latency" => {
                args.latency = parse_latency(value(argv, i)?)?;
                i += 2;
            }
            "--sampler" => {
                args.sampler = parse_sampler(value(argv, i)?)?;
                i += 2;
            }
            "--protocol" => {
                args.protocol = parse_protocol(value(argv, i)?)?;
                i += 2;
            }
            "--n" => {
                args.n = parse_num("--n", value(argv, i)?)?;
                i += 2;
            }
            "--slices" => {
                args.slices = parse_num("--slices", value(argv, i)?)?;
                i += 2;
            }
            "--view" => {
                args.view = parse_num("--view", value(argv, i)?)?;
                i += 2;
            }
            "--cycles" => {
                args.cycles = parse_num("--cycles", value(argv, i)?)?;
                if args.cycles == 0 {
                    return Err("--cycles must be at least 1".into());
                }
                i += 2;
            }
            "--seed" => {
                args.seed = parse_num("--seed", value(argv, i)?)?;
                i += 2;
            }
            "--concurrency" => {
                args.concurrency = parse_concurrency(value(argv, i)?)?;
                i += 2;
            }
            "--churn" => {
                args.churn = parse_churn(value(argv, i)?)?;
                i += 2;
            }
            "--distribution" => {
                args.distribution = parse_distribution(value(argv, i)?)?;
                i += 2;
            }
            "--metrics-every" => {
                args.metrics_every = parse_num("--metrics-every", value(argv, i)?)?;
                if args.metrics_every == 0 {
                    return Err("--metrics-every must be at least 1".into());
                }
                i += 2;
            }
            "--time-phases" => {
                args.time_phases = true;
                i += 1;
            }
            "--csv" => {
                args.csv = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--json" => {
                args.json = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--quiet" => {
                args.quiet = true;
                i += 1;
            }
            "--trace-out" => {
                args.trace_out = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--trace-jsonl" => {
                args.trace_jsonl = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--trace-sample" => {
                args.trace_sample = parse_num("--trace-sample", value(argv, i)?)?;
                if args.trace_sample == 0 {
                    return Err("--trace-sample must be at least 1".into());
                }
                i += 2;
            }
            "--metrics-out" => {
                args.metrics_out = Some(value(argv, i)?.to_string());
                i += 2;
            }
            other => return Err(format!("unknown sim argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_analyze(argv: &[String]) -> Result<AnalyzeArgs, String> {
    let Some(kind) = argv.first() else {
        return Err(format!("analyze requires a sub-command\n\n{USAGE}"));
    };
    let mut flags = std::collections::HashMap::new();
    let rest = &argv[1..];
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].clone();
        let val = value(rest, i)?.to_string();
        flags.insert(key, val);
        i += 2;
    }
    let get = |name: &str| -> Result<&String, String> {
        flags
            .get(name)
            .ok_or_else(|| format!("analyze {kind} requires {name}"))
    };
    match kind.as_str() {
        "lemma41" => Ok(AnalyzeArgs::Lemma41 {
            beta: parse_num("--beta", get("--beta")?)?,
            epsilon: parse_num("--epsilon", get("--epsilon")?)?,
            n: parse_num("--n", get("--n")?)?,
            p: flags.get("--p").map(|v| parse_num("--p", v)).transpose()?,
        }),
        "samples" => Ok(AnalyzeArgs::Samples {
            p: parse_num("--p", get("--p")?)?,
            d: parse_num("--d", get("--d")?)?,
            alpha: flags
                .get("--alpha")
                .map(|v| parse_num("--alpha", v))
                .transpose()?
                .unwrap_or(0.05),
        }),
        "population" => Ok(AnalyzeArgs::Population {
            n: parse_num("--n", get("--n")?)?,
            p: parse_num("--p", get("--p")?)?,
        }),
        other => Err(format!("unknown analyze sub-command {other:?}\n\n{USAGE}")),
    }
}

fn parse_scenario(argv: &[String]) -> Result<ScenarioArgs, String> {
    let mut args = ScenarioArgs {
        name: None,
        json: None,
        list: false,
        quiet: false,
        trace_out: None,
        trace_jsonl: None,
        trace_sample: 1,
        metrics_out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--list" => {
                args.list = true;
                i += 1;
            }
            "--quiet" => {
                args.quiet = true;
                i += 1;
            }
            "--json" => {
                args.json = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--trace-out" => {
                args.trace_out = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--trace-jsonl" => {
                args.trace_jsonl = Some(value(argv, i)?.to_string());
                i += 2;
            }
            "--trace-sample" => {
                args.trace_sample = parse_num("--trace-sample", value(argv, i)?)?;
                if args.trace_sample == 0 {
                    return Err("--trace-sample must be at least 1".into());
                }
                i += 2;
            }
            "--metrics-out" => {
                args.metrics_out = Some(value(argv, i)?.to_string());
                i += 2;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown run-scenario argument {flag:?}\n\n{USAGE}"));
            }
            name => {
                if args.name.is_some() {
                    return Err(format!(
                        "run-scenario takes one scenario name, got {name:?} too"
                    ));
                }
                args.name = Some(name.to_string());
                i += 1;
            }
        }
    }
    if args.name.is_none() && !args.list {
        return Err(format!(
            "run-scenario requires a scenario name or --list\n\n{USAGE}"
        ));
    }
    Ok(args)
}

/// Parses the full command line.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    match argv.first().map(|s| s.as_str()) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("sim") | Some("run") => Ok(Command::Sim(parse_sim(&argv[1..])?)),
        Some("analyze") => Ok(Command::Analyze(parse_analyze(&argv[1..])?)),
        Some("slice-of") => {
            let rest = &argv[1..];
            let mut slices = None;
            let mut rank = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--slices" => {
                        slices = Some(parse_num("--slices", value(rest, i)?)?);
                        i += 2;
                    }
                    "--rank" => {
                        rank = Some(parse_num("--rank", value(rest, i)?)?);
                        i += 2;
                    }
                    other => return Err(format!("unknown slice-of argument {other:?}")),
                }
            }
            Ok(Command::SliceOf {
                slices: slices.ok_or("slice-of requires --slices")?,
                rank: rank.ok_or("slice-of requires --rank")?,
            })
        }
        Some("run-scenario") => Ok(Command::RunScenario(parse_scenario(&argv[1..])?)),
        Some("net-run") => Ok(Command::NetRun(parse_net_run(&argv[1..])?)),
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_full_sim_command() {
        let cmd = parse(&argv(
            "sim --protocol mod-jk --n 500 --slices 20 --view 15 --cycles 50 \
             --seed 9 --concurrency full --churn correlated:0.01:5 \
             --distribution pareto:1:1.5 --quiet",
        ))
        .unwrap();
        let Command::Sim(a) = cmd else {
            panic!("not sim")
        };
        assert_eq!(a.protocol, ProtocolKind::ModJk);
        assert_eq!(a.n, 500);
        assert_eq!(a.slices, 20);
        assert_eq!(a.view, 15);
        assert_eq!(a.cycles, 50);
        assert_eq!(a.seed, 9);
        assert_eq!(a.concurrency, Concurrency::Full);
        assert_eq!(
            a.churn,
            ChurnSpec::Correlated {
                rate: 0.01,
                period: 5
            }
        );
        assert!(matches!(
            a.distribution,
            AttributeDistribution::Pareto { .. }
        ));
        assert!(a.quiet);
    }

    #[test]
    fn protocol_specs() {
        assert_eq!(parse_protocol("jk").unwrap(), ProtocolKind::Jk);
        assert_eq!(parse_protocol("modjk").unwrap(), ProtocolKind::ModJk);
        assert_eq!(
            parse_protocol("sliding:512").unwrap(),
            ProtocolKind::SlidingRanking { window: 512 }
        );
        assert!(
            parse_protocol("sliding").is_err(),
            "a silent 10k default window hid the aging behavior entirely"
        );
        assert!(parse_protocol("sliding:0").is_err(), "degenerate window");
        assert!(parse_protocol("raft").is_err());
        assert!(parse_protocol("sliding:x").is_err());
    }

    #[test]
    fn defended_protocol_specs() {
        assert_eq!(
            parse_protocol("decay:0.998").unwrap(),
            ProtocolKind::DecayRanking {
                lambda_ppm: 998_000
            }
        );
        assert!(parse_protocol("decay:0").is_err(), "λ must exceed 0");
        assert!(parse_protocol("decay:1").is_err(), "λ must stay below 1");
        assert!(parse_protocol("decay:-3").is_err());
        assert!(parse_protocol("decay:x").is_err());
        assert_eq!(
            parse_protocol("robust:64").unwrap(),
            ProtocolKind::RobustRanking { window: 64 }
        );
        assert!(
            parse_protocol("robust:2").is_err(),
            "window below quartiles"
        );
        assert_eq!(
            parse_protocol("trimmed:128:0.1").unwrap(),
            ProtocolKind::TrimmedRanking {
                window: 128,
                trim_ppm: 100_000
            }
        );
        assert_eq!(
            parse_protocol("fence-trim:128:0.1").unwrap(),
            ProtocolKind::FencedTrimmedRanking {
                window: 128,
                trim_ppm: 100_000
            }
        );
        assert!(parse_protocol("trimmed:128").is_err(), "missing fraction");
        assert!(parse_protocol("trimmed:128:0.5").is_err(), "pct at 0.5");
        assert!(parse_protocol("trimmed:128:0").is_err(), "pct at 0");
        assert!(parse_protocol("trimmed:128:-0.1").is_err());
        assert!(parse_protocol("fence-trim:0:0.1").is_err(), "zero window");
        assert!(parse_protocol("fence-trim:128:x").is_err());
        assert_eq!(parse_protocol("mod-jk-live").unwrap(), MOD_JK_LIVE_DEFAULTS);
        assert_eq!(
            parse_protocol("mod-jk-live:3:128").unwrap(),
            ProtocolKind::ModJkLive {
                strike_limit: 3,
                cooldown: 128
            }
        );
        assert!(parse_protocol("mod-jk-live:0:16").is_err(), "zero strikes");
        assert!(parse_protocol("mod-jk-live:2").is_err(), "missing cooldown");
        assert!(parse_protocol("mod-jk-live:2:16:9").is_err());
    }

    #[test]
    fn ranking_uniform_and_sampler_specs() {
        assert_eq!(
            parse_protocol("ranking-uniform").unwrap(),
            ProtocolKind::RankingUniform
        );
        assert_eq!(parse_sampler("cyclon").unwrap(), SamplerKind::Cyclon);
        assert_eq!(parse_sampler("newscast").unwrap(), SamplerKind::Newscast);
        assert_eq!(parse_sampler("lpbcast").unwrap(), SamplerKind::Lpbcast);
        assert_eq!(
            parse_sampler("uniform").unwrap(),
            SamplerKind::UniformOracle
        );
        assert_eq!(parse_sampler("oracle").unwrap(), SamplerKind::UniformOracle);
        assert!(parse_sampler("chord").is_err());
    }

    #[test]
    fn latency_specs() {
        assert_eq!(parse_latency("zero").unwrap(), LatencyModel::Zero);
        assert_eq!(
            parse_latency("fixed:3").unwrap(),
            LatencyModel::Fixed { cycles: 3 }
        );
        assert_eq!(
            parse_latency("uniform:1:4").unwrap(),
            LatencyModel::Uniform { min: 1, max: 4 }
        );
        assert_eq!(
            parse_latency("geometric:0.5").unwrap(),
            LatencyModel::Geometric { p: 0.5 }
        );
        assert!(parse_latency("geometric:1.5").is_err(), "p out of range");
        assert!(parse_latency("fixed").is_err());
        assert!(parse_latency("warp:9").is_err());
    }

    #[test]
    fn sim_accepts_new_flags_together() {
        let cmd = parse(&argv(
            "sim --protocol ranking-uniform --sampler lpbcast --latency uniform:1:3 --n 100",
        ))
        .unwrap();
        let Command::Sim(a) = cmd else {
            panic!("not sim")
        };
        assert_eq!(a.protocol, ProtocolKind::RankingUniform);
        assert_eq!(a.sampler, SamplerKind::Lpbcast);
        assert_eq!(a.latency, LatencyModel::Uniform { min: 1, max: 3 });
        assert_eq!(a.n, 100);
    }

    #[test]
    fn churn_specs() {
        assert_eq!(parse_churn("none").unwrap(), ChurnSpec::None);
        assert!(matches!(
            parse_churn("uncorrelated:0.001:10").unwrap(),
            ChurnSpec::Uncorrelated { .. }
        ));
        assert!(parse_churn("correlated:2.0:10").is_err(), "rate > 1");
        assert!(parse_churn("correlated:0.1:0").is_err(), "period 0");
        assert!(parse_churn("correlated:0.1").is_err(), "missing field");
        assert!(parse_churn("bogus:0.1:1").is_err());
    }

    #[test]
    fn distribution_specs() {
        assert!(matches!(
            parse_distribution("uniform").unwrap(),
            AttributeDistribution::Uniform { .. }
        ));
        assert!(matches!(
            parse_distribution("normal:170:10").unwrap(),
            AttributeDistribution::Normal { .. }
        ));
        assert!(matches!(
            parse_distribution("exp:0.5").unwrap(),
            AttributeDistribution::Exponential { .. }
        ));
        assert!(parse_distribution("pareto:0:1").is_err(), "invalid scale");
        assert!(parse_distribution("pareto:1").is_err(), "missing shape");
        assert!(parse_distribution("zipf:1").is_err());
    }

    #[test]
    fn analyze_commands() {
        let cmd = parse(&argv("analyze lemma41 --beta 0.5 --epsilon 0.05 --n 10000")).unwrap();
        assert!(matches!(
            cmd,
            Command::Analyze(AnalyzeArgs::Lemma41 { p: None, .. })
        ));
        let cmd = parse(&argv("analyze samples --p 0.45 --d 0.05")).unwrap();
        let Command::Analyze(AnalyzeArgs::Samples { alpha, .. }) = cmd else {
            panic!("not samples")
        };
        assert_eq!(alpha, 0.05);
        assert!(parse(&argv("analyze samples --p 0.45")).is_err());
        assert!(parse(&argv("analyze nothing")).is_err());
    }

    #[test]
    fn slice_of_command() {
        let cmd = parse(&argv("slice-of --slices 100 --rank 0.423")).unwrap();
        assert_eq!(
            cmd,
            Command::SliceOf {
                slices: 100,
                rank: 0.423
            }
        );
        assert!(parse(&argv("slice-of --slices 100")).is_err());
    }

    #[test]
    fn scale_flags() {
        let cmd = parse(&argv(
            "sim --n 100000 --metrics-every 10 --protocol ranking",
        ))
        .unwrap();
        let Command::Sim(a) = cmd else {
            panic!("not sim")
        };
        assert_eq!(a.metrics_every, 10);
        let Command::Sim(t) = parse(&argv("sim --time-phases")).unwrap() else {
            panic!("not sim")
        };
        assert!(t.time_phases);
        // Defaults: every-cycle metrics, no timing breakdown.
        let Command::Sim(d) = parse(&argv("sim")).unwrap() else {
            panic!("not sim")
        };
        assert_eq!(d.metrics_every, 1);
        assert!(!d.time_phases);
        assert!(parse(&argv("sim --metrics-every 0")).is_err());
        // The engine runs on one thread: there is no worker-count flag.
        let err = parse(&argv("sim --shards 2")).unwrap_err();
        assert!(
            err.starts_with("unknown sim argument \"--shards\""),
            "{err}"
        );
    }

    #[test]
    fn zero_cycles_is_rejected() {
        assert_eq!(
            parse(&argv("sim --cycles 0")).unwrap_err(),
            "--cycles must be at least 1"
        );
        assert_eq!(
            parse(&argv("sim --quiet --cycles 0")).unwrap_err(),
            "--cycles must be at least 1"
        );
        let Command::Sim(one) = parse(&argv("sim --cycles 1")).unwrap() else {
            panic!("not sim")
        };
        assert_eq!(one.cycles, 1);
    }

    #[test]
    fn run_scenario_command() {
        let cmd = parse(&argv("run-scenario lying-nodes --json out.json")).unwrap();
        assert_eq!(
            cmd,
            Command::RunScenario(ScenarioArgs {
                name: Some("lying-nodes".into()),
                json: Some("out.json".into()),
                list: false,
                quiet: false,
                trace_out: None,
                trace_jsonl: None,
                trace_sample: 1,
                metrics_out: None,
            })
        );
        let Command::RunScenario(l) = parse(&argv("run-scenario --list")).unwrap() else {
            panic!("not run-scenario")
        };
        assert!(l.list);
        assert_eq!(l.name, None);
        assert!(
            parse(&argv("run-scenario")).is_err(),
            "name or --list required"
        );
        assert!(parse(&argv("run-scenario a b")).is_err(), "one name only");
        assert!(parse(&argv("run-scenario a --frob")).is_err());
    }

    #[test]
    fn net_run_command() {
        let cmd = parse(&argv(
            "net-run --protocol mod-jk --sampler newscast --n 24 --slices 3 \
             --view 6 --period-ms 15 --duration-ms 600 --seed 11 --bootstrap 5 \
             --loss 0.1 --delay-ms 1:4 --crash 0.25:200 --restart 400 \
             --refuse 0.2:100:150 --stall 0.1:300:80 --json out.json --quiet",
        ))
        .unwrap();
        let Command::NetRun(a) = cmd else {
            panic!("not net-run")
        };
        assert_eq!(a.protocol, ProtocolKind::ModJk);
        assert_eq!(a.sampler, SamplerKind::Newscast);
        assert_eq!(a.n, 24);
        assert_eq!(a.slices, 3);
        assert_eq!(a.view, 6);
        assert_eq!(a.period_ms, 15);
        assert_eq!(a.duration_ms, 600);
        assert_eq!(a.seed, 11);
        assert_eq!(a.bootstrap, 5);
        assert_eq!(a.loss, 0.1);
        assert_eq!(a.delay_ms, Some((1, 4)));
        assert_eq!(a.crash, Some((0.25, 200)));
        assert_eq!(a.restart_at_ms, Some(400));
        assert_eq!(a.refuse, Some((0.2, 100, 150)));
        assert_eq!(a.stall, Some((0.1, 300, 80)));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert!(a.quiet);
    }

    #[test]
    fn net_run_defaults() {
        let Command::NetRun(a) = parse(&argv("net-run")).unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(a, NetRunArgs::default());
        assert_eq!(a.n, 16);
        assert!(a.crash.is_none());
    }

    #[test]
    fn net_run_rejects_bad_chaos_specs() {
        assert!(
            parse(&argv("net-run --crash 0.5")).is_err(),
            "missing at-ms"
        );
        assert!(parse(&argv("net-run --crash 0:100")).is_err(), "zero frac");
        assert!(parse(&argv("net-run --crash 1.5:100")).is_err(), "frac > 1");
        assert!(
            parse(&argv("net-run --restart 400")).is_err(),
            "restart without crash"
        );
        assert!(
            parse(&argv("net-run --crash 0.5:400 --restart 200")).is_err(),
            "restart before crash"
        );
        assert!(
            parse(&argv("net-run --refuse 0.5:100:0")).is_err(),
            "zero window"
        );
        assert!(
            parse(&argv("net-run --stall 0.5:100")).is_err(),
            "missing window"
        );
        assert!(parse(&argv("net-run --delay-ms 5:2")).is_err(), "inverted");
        assert!(parse(&argv("net-run --loss 1.2")).is_err(), "loss > 1");
        assert!(parse(&argv("net-run --n 0")).is_err(), "no nodes");
        assert!(parse(&argv("net-run --n 500")).is_err(), "thread budget");
        assert!(
            parse(&argv("net-run --period-ms 0")).is_err(),
            "zero period"
        );
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&argv("sim --frobnicate 3")).is_err());
        assert!(parse(&argv("teleport")).is_err());
    }

    #[test]
    fn run_is_an_alias_for_sim() {
        assert_eq!(
            parse(&argv("run --n 64 --cycles 10")).unwrap(),
            parse(&argv("sim --n 64 --cycles 10")).unwrap()
        );
    }

    #[test]
    fn observability_flags_parse_on_sim_and_run_scenario() {
        let Command::Sim(a) = parse(&argv(
            "run --n 100 --trace-out t.json --trace-jsonl t.jsonl \
             --trace-sample 8 --metrics-out m.prom",
        ))
        .unwrap() else {
            panic!("not sim")
        };
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.trace_jsonl.as_deref(), Some("t.jsonl"));
        assert_eq!(a.trace_sample, 8);
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert!(parse(&argv("sim --trace-sample 0")).is_err());

        let Command::RunScenario(s) = parse(&argv(
            "run-scenario baseline-static --trace-out t.json --metrics-out m.prom",
        ))
        .unwrap() else {
            panic!("not run-scenario")
        };
        assert_eq!(s.trace_out.as_deref(), Some("t.json"));
        assert_eq!(s.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(s.trace_sample, 1, "default stride traces every cycle");
    }

    #[test]
    fn net_run_metrics_flags_parse() {
        let Command::NetRun(a) = parse(&argv(
            "net-run --n 8 --metrics-out m.prom --metrics-stream s.jsonl \
             --scrape-every-ms 50",
        ))
        .unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(a.metrics_stream.as_deref(), Some("s.jsonl"));
        assert_eq!(a.scrape_every_ms, 50);
        assert!(parse(&argv("net-run --scrape-every-ms 0")).is_err());
        // The cadence default is sane without the flag.
        let Command::NetRun(d) = parse(&argv("net-run")).unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(d.scrape_every_ms, 100);
    }
}
