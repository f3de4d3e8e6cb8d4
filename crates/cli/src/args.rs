//! Hand-rolled argument parsing (no external CLI dependency).
//!
//! One argv walk ([`walk`]) fetches each flag's value, steps past switches
//! and rejects unknown arguments; each command only supplies a `match` with
//! one arm per flag it takes. The flags `sim` and `net-run` share are
//! parsed by [`RunSetup`], the output flags by [`Outputs`].

use dslice_sim::churn::ChurnSchedule;
use dslice_sim::{AttributeDistribution, Concurrency, LatencyModel, ProtocolKind, SamplerKind};
use std::fmt::Display;
use std::str::FromStr;

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

/// The run setup `sim` and `net-run` share; each command keeps its own
/// population, slice count and view size defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSetup {
    pub protocol: ProtocolKind,
    pub sampler: SamplerKind,
    pub n: usize,
    pub slices: usize,
    pub view: usize,
    pub seed: u64,
    pub distribution: AttributeDistribution,
}

impl RunSetup {
    /// Ranking over Cyclon with uniform attributes and the default seed.
    fn new(n: usize, slices: usize, view: usize) -> Self {
        RunSetup {
            protocol: ProtocolKind::Ranking,
            sampler: SamplerKind::Cyclon,
            n,
            slices,
            view,
            seed: 0xD51CE,
            distribution: AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 },
        }
    }

    fn arm(&mut self, arg: &mut Arg) -> Result<bool, String> {
        match arg.flag {
            "--protocol" => self.protocol = parse_protocol(arg.value()?)?,
            "--sampler" => self.sampler = parse_sampler(arg.value()?)?,
            "--n" => self.n = arg.num()?,
            "--slices" => self.slices = arg.num()?,
            "--view" => self.view = arg.num()?,
            "--seed" => self.seed = arg.num()?,
            "--distribution" => self.distribution = parse_distribution(arg.value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The output flags: `--json`, `--quiet` and `--metrics-out` on every run
/// command, the trace flags only on those that trace (`sim`,
/// `run-scenario`).
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Write the run's JSON report here.
    pub json: Option<String>,
    /// Suppress progress lines and tables.
    pub quiet: bool,
    /// Write the run's metrics registry here (Prometheus text).
    pub metrics_out: Option<String>,
    /// Write a chrome://tracing trace of the run here.
    pub trace_out: Option<String>,
    /// Write the trace as JSON lines here.
    pub trace_jsonl: Option<String>,
    /// Trace only every Nth cycle.
    pub trace_sample: u64,
}

impl Default for Outputs {
    fn default() -> Self {
        Outputs {
            json: None,
            quiet: false,
            metrics_out: None,
            trace_out: None,
            trace_jsonl: None,
            trace_sample: 1,
        }
    }
}

impl Outputs {
    fn arm(&mut self, arg: &mut Arg, traced: bool) -> Result<bool, String> {
        match arg.flag {
            "--json" => self.json = Some(arg.value()?.into()),
            "--quiet" => self.quiet = true,
            "--metrics-out" => self.metrics_out = Some(arg.value()?.into()),
            "--trace-out" if traced => self.trace_out = Some(arg.value()?.into()),
            "--trace-jsonl" if traced => self.trace_jsonl = Some(arg.value()?.into()),
            "--trace-sample" if traced => self.trace_sample = arg.nonzero("at least 1")?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Arguments of `dslice-cli net-run`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRunArgs {
    pub run: RunSetup,
    pub period_ms: u64,
    pub duration_ms: u64,
    pub bootstrap: usize,
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
    /// The output flags, without the trace ones.
    pub out: Outputs,
    /// Stream the scraped registry here as JSON lines while running.
    pub metrics_stream: Option<String>,
    /// Cadence of the metrics stream in milliseconds.
    pub scrape_every_ms: u64,
}

impl Default for NetRunArgs {
    fn default() -> Self {
        NetRunArgs {
            run: RunSetup::new(16, 2, 8),
            period_ms: 20,
            duration_ms: 1000,
            bootstrap: 4,
            loss: 0.0,
            delay_ms: None,
            crash: None,
            restart_at_ms: None,
            refuse: None,
            stall: None,
            out: Outputs::default(),
            metrics_stream: None,
            scrape_every_ms: 100,
        }
    }
}

/// Arguments of `dslice-cli run-scenario`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioArgs {
    /// Scenario name (`--list` to see them); `None` only with `list`.
    pub name: Option<String>,
    /// List the library and exit.
    pub list: bool,
    pub out: Outputs,
}

/// Arguments of `dslice-cli sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    pub run: RunSetup,
    pub cycles: usize,
    pub concurrency: Concurrency,
    pub latency: LatencyModel,
    pub churn: ChurnSpec,
    pub metrics_every: usize,
    pub time_phases: bool,
    pub csv: Option<String>,
    pub out: Outputs,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            run: RunSetup::new(1000, 10, 10),
            cycles: 100,
            concurrency: Concurrency::None,
            latency: LatencyModel::Zero,
            churn: ChurnSpec::None,
            metrics_every: 1,
            time_phases: false,
            csv: None,
            out: Outputs::default(),
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
  dslice-cli net-run [--protocol P] [--sampler cyclon|newscast|lpbcast]
                     [--n N] [--slices K] [--view C]
                     [--period-ms MS] [--duration-ms MS] [--seed S]
                     [--bootstrap B] [--distribution D]
                     [--loss P] [--delay-ms MIN:MAX]
                     [--crash FRAC:AT_MS] [--restart AT_MS]
                     [--refuse FRAC:AT_MS:DUR_MS] [--stall FRAC:AT_MS:DUR_MS]
                     [--json FILE] [--quiet]
                     [--metrics-out FILE] [--metrics-stream FILE]
                     [--scrape-every-ms MS]
  dslice-cli help";

/// The argument a parse arm is looking at, and the one after it, which a
/// valued flag takes as its value.
struct Arg<'a> {
    flag: &'a str,
    next: Option<&'a str>,
    took_value: bool,
}

impl<'a> Arg<'a> {
    /// The flag's value: the next argument, whatever it looks like.
    fn value(&mut self) -> Result<&'a str, String> {
        self.took_value = true;
        self.next
            .ok_or_else(|| format!("{} requires a value", self.flag))
    }

    fn num<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = self.value()?;
        parse_num(self.flag, raw)
    }

    /// A number that may not be zero: "`<flag>` must be `<what>`" if it is.
    fn nonzero<T: FromStr + Default + PartialEq>(&mut self, what: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v: T = self.num()?;
        if v == T::default() {
            return Err(format!("{} must be {what}", self.flag));
        }
        Ok(v)
    }
}

/// The one argv walk. Hands each argument to `arm`, which parses it and
/// returns `true`, or returns `false` for an argument `command` does not
/// take; that is rejected, followed by the usage text if `usage`.
fn walk<'a>(
    command: &str,
    usage: bool,
    argv: &'a [String],
    mut arm: impl FnMut(&mut Arg<'a>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut i = 0;
    while let Some(flag) = argv.get(i) {
        let mut arg = Arg {
            flag,
            next: argv.get(i + 1).map(String::as_str),
            took_value: false,
        };
        if !arm(&mut arg)? {
            let (gap, usage) = if usage { ("\n\n", USAGE) } else { ("", "") };
            return Err(format!("unknown {command} argument {flag:?}{gap}{usage}"));
        }
        i += 1 + usize::from(arg.took_value);
    }
    Ok(())
}

fn parse_num<T: FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
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
    let mut a = NetRunArgs::default();
    walk("net-run", true, argv, |arg| {
        match arg.flag {
            "--period-ms" => a.period_ms = arg.num()?,
            "--duration-ms" => a.duration_ms = arg.num()?,
            "--bootstrap" => a.bootstrap = arg.num()?,
            "--loss" => {
                let loss: f64 = arg.num()?;
                if !loss.is_finite() || !(0.0..=1.0).contains(&loss) {
                    return Err(format!("--loss must lie in [0, 1], got {loss}"));
                }
                a.loss = loss;
            }
            "--delay-ms" => a.delay_ms = Some(parse_delay_spec(arg.value()?)?),
            "--crash" => a.crash = Some(parse_crash_spec(arg.value()?)?),
            "--restart" => a.restart_at_ms = Some(arg.num()?),
            "--refuse" => a.refuse = Some(parse_gate_spec("--refuse", arg.value()?)?),
            "--stall" => a.stall = Some(parse_gate_spec("--stall", arg.value()?)?),
            "--metrics-stream" => a.metrics_stream = Some(arg.value()?.into()),
            "--scrape-every-ms" => a.scrape_every_ms = arg.nonzero("positive")?,
            _ => return Ok(a.run.arm(arg)? || a.out.arm(arg, false)?),
        }
        Ok(true)
    })?;
    if a.run.n == 0 {
        return Err("net-run needs at least one node (--n)".into());
    }
    // Nothing on the network refills an oracle's view, so its nodes would
    // never gain a neighbor.
    if a.run.sampler == SamplerKind::UniformOracle {
        return Err(
            "net-run cannot use the uniform oracle: it is a simulator-only substrate \
             (use cyclon, newscast or lpbcast)"
                .into(),
        );
    }
    // One OS thread per task in the vendored runtime: keep localhost
    // clusters small enough that parked threads don't dominate the box.
    if a.run.n > 128 {
        return Err(format!(
            "net-run is a localhost harness; --n must be at most 128, got {}",
            a.run.n
        ));
    }
    if a.period_ms == 0 {
        return Err("--period-ms must be positive".into());
    }
    if a.restart_at_ms.is_some() && a.crash.is_none() {
        return Err("--restart requires --crash (nothing would be down)".into());
    }
    if let (Some((_, crash_at)), Some(restart_at)) = (a.crash, a.restart_at_ms) {
        if restart_at <= crash_at {
            return Err(format!(
                "--restart at {restart_at} ms must come after the crash at {crash_at} ms"
            ));
        }
    }
    Ok(a)
}

fn parse_sim(argv: &[String]) -> Result<SimArgs, String> {
    let mut a = SimArgs::default();
    walk("sim", true, argv, |arg| {
        match arg.flag {
            "--cycles" => a.cycles = arg.nonzero("at least 1")?,
            "--concurrency" => a.concurrency = parse_concurrency(arg.value()?)?,
            "--latency" => a.latency = parse_latency(arg.value()?)?,
            "--churn" => a.churn = parse_churn(arg.value()?)?,
            "--metrics-every" => a.metrics_every = arg.nonzero("at least 1")?,
            "--time-phases" => a.time_phases = true,
            "--csv" => a.csv = Some(arg.value()?.into()),
            _ => return Ok(a.run.arm(arg)? || a.out.arm(arg, true)?),
        }
        Ok(true)
    })?;
    Ok(a)
}

fn parse_analyze(argv: &[String]) -> Result<AnalyzeArgs, String> {
    let Some(kind) = argv.first() else {
        return Err(format!("analyze requires a sub-command\n\n{USAGE}"));
    };
    // Each sub-command's flag table; the arms below parse their union.
    let takes: &[&str] = match kind.as_str() {
        "lemma41" => &["--beta", "--epsilon", "--n", "--p"],
        "samples" => &["--p", "--d", "--alpha"],
        "population" => &["--n", "--p"],
        other => return Err(format!("unknown analyze sub-command {other:?}\n\n{USAGE}")),
    };
    let (mut beta, mut epsilon, mut n, mut p, mut d, mut alpha) =
        (None, None, None, None, None, None);
    walk("analyze", true, &argv[1..], |arg| {
        match arg.flag {
            flag if !takes.contains(&flag) => return Ok(false),
            "--beta" => beta = Some(arg.num()?),
            "--epsilon" => epsilon = Some(arg.num()?),
            "--n" => n = Some(arg.num()?),
            "--p" => p = Some(arg.num()?),
            "--d" => d = Some(arg.num()?),
            "--alpha" => alpha = Some(arg.num()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let need = |flag: &str| format!("analyze {kind} requires {flag}");
    Ok(match kind.as_str() {
        "lemma41" => AnalyzeArgs::Lemma41 {
            beta: beta.ok_or_else(|| need("--beta"))?,
            epsilon: epsilon.ok_or_else(|| need("--epsilon"))?,
            n: n.ok_or_else(|| need("--n"))?,
            p,
        },
        "samples" => AnalyzeArgs::Samples {
            p: p.ok_or_else(|| need("--p"))?,
            d: d.ok_or_else(|| need("--d"))?,
            alpha: alpha.unwrap_or(0.05),
        },
        _ => AnalyzeArgs::Population {
            n: n.ok_or_else(|| need("--n"))?,
            p: p.ok_or_else(|| need("--p"))?,
        },
    })
}

fn parse_slice_of(argv: &[String]) -> Result<Command, String> {
    let (mut slices, mut rank) = (None, None);
    walk("slice-of", false, argv, |arg| {
        match arg.flag {
            "--slices" => slices = Some(arg.num()?),
            "--rank" => rank = Some(arg.num()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::SliceOf {
        slices: slices.ok_or("slice-of requires --slices")?,
        rank: rank.ok_or("slice-of requires --rank")?,
    })
}

fn parse_scenario(argv: &[String]) -> Result<ScenarioArgs, String> {
    let mut a = ScenarioArgs::default();
    walk("run-scenario", true, argv, |arg| {
        match arg.flag {
            "--list" => a.list = true,
            flag if flag.starts_with("--") => return a.out.arm(arg, true),
            name if a.name.is_some() => {
                return Err(format!(
                    "run-scenario takes one scenario name, got {name:?} too"
                ));
            }
            name => a.name = Some(name.into()),
        }
        Ok(true)
    })?;
    if a.name.is_none() && !a.list {
        return Err(format!(
            "run-scenario requires a scenario name or --list\n\n{USAGE}"
        ));
    }
    Ok(a)
}

/// Parses the full command line.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Ok(Command::Help),
        Some("sim" | "run") => parse_sim(rest).map(Command::Sim),
        Some("analyze") => parse_analyze(rest).map(Command::Analyze),
        Some("slice-of") => parse_slice_of(rest),
        Some("run-scenario") => parse_scenario(rest).map(Command::RunScenario),
        Some("net-run") => parse_net_run(rest).map(Command::NetRun),
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
        assert_eq!(a.run.protocol, ProtocolKind::ModJk);
        assert_eq!(a.run.n, 500);
        assert_eq!(a.run.slices, 20);
        assert_eq!(a.run.view, 15);
        assert_eq!(a.cycles, 50);
        assert_eq!(a.run.seed, 9);
        assert_eq!(a.concurrency, Concurrency::Full);
        assert_eq!(
            a.churn,
            ChurnSpec::Correlated {
                rate: 0.01,
                period: 5
            }
        );
        assert!(matches!(
            a.run.distribution,
            AttributeDistribution::Pareto { .. }
        ));
        assert!(a.out.quiet);
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
        assert_eq!(a.run.protocol, ProtocolKind::RankingUniform);
        assert_eq!(a.run.sampler, SamplerKind::Lpbcast);
        assert_eq!(a.latency, LatencyModel::Uniform { min: 1, max: 3 });
        assert_eq!(a.run.n, 100);
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
                list: false,
                out: Outputs {
                    json: Some("out.json".into()),
                    quiet: false,
                    trace_out: None,
                    trace_jsonl: None,
                    trace_sample: 1,
                    metrics_out: None,
                },
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
        assert_eq!(a.run.protocol, ProtocolKind::ModJk);
        assert_eq!(a.run.sampler, SamplerKind::Newscast);
        assert_eq!(a.run.n, 24);
        assert_eq!(a.run.slices, 3);
        assert_eq!(a.run.view, 6);
        assert_eq!(a.period_ms, 15);
        assert_eq!(a.duration_ms, 600);
        assert_eq!(a.run.seed, 11);
        assert_eq!(a.bootstrap, 5);
        assert_eq!(a.loss, 0.1);
        assert_eq!(a.delay_ms, Some((1, 4)));
        assert_eq!(a.crash, Some((0.25, 200)));
        assert_eq!(a.restart_at_ms, Some(400));
        assert_eq!(a.refuse, Some((0.2, 100, 150)));
        assert_eq!(a.stall, Some((0.1, 300, 80)));
        assert_eq!(a.out.json.as_deref(), Some("out.json"));
        assert!(a.out.quiet);
    }

    #[test]
    fn net_run_defaults() {
        let Command::NetRun(a) = parse(&argv("net-run")).unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(a, NetRunArgs::default());
        assert_eq!(a.run.n, 16);
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
        assert_eq!(a.out.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.out.trace_jsonl.as_deref(), Some("t.jsonl"));
        assert_eq!(a.out.trace_sample, 8);
        assert_eq!(a.out.metrics_out.as_deref(), Some("m.prom"));
        assert!(parse(&argv("sim --trace-sample 0")).is_err());

        let Command::RunScenario(s) = parse(&argv(
            "run-scenario baseline-static --trace-out t.json --metrics-out m.prom",
        ))
        .unwrap() else {
            panic!("not run-scenario")
        };
        assert_eq!(s.out.trace_out.as_deref(), Some("t.json"));
        assert_eq!(s.out.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(s.out.trace_sample, 1, "default stride traces every cycle");
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
        assert_eq!(a.out.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(a.metrics_stream.as_deref(), Some("s.jsonl"));
        assert_eq!(a.scrape_every_ms, 50);
        assert!(parse(&argv("net-run --scrape-every-ms 0")).is_err());
        // The cadence default is sane without the flag.
        let Command::NetRun(d) = parse(&argv("net-run")).unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(d.scrape_every_ms, 100);
    }

    // ---- Pins: every flag, every documented line, every error message ----

    fn err(line: &str) -> String {
        parse(&argv(line)).unwrap_err()
    }

    fn with_usage(msg: &str) -> String {
        format!("{msg}\n\n{USAGE}")
    }

    fn sim(edit: impl FnOnce(&mut SimArgs)) -> Command {
        let mut a = SimArgs::default();
        edit(&mut a);
        Command::Sim(a)
    }

    fn net_run(edit: impl FnOnce(&mut NetRunArgs)) -> Command {
        let mut a = NetRunArgs::default();
        edit(&mut a);
        Command::NetRun(a)
    }

    fn scenario(name: &str, edit: impl FnOnce(&mut ScenarioArgs)) -> Command {
        let mut a = ScenarioArgs {
            name: Some(name.into()),
            list: false,
            out: Outputs {
                json: None,
                quiet: false,
                trace_out: None,
                trace_jsonl: None,
                trace_sample: 1,
                metrics_out: None,
            },
        };
        edit(&mut a);
        Command::RunScenario(a)
    }

    #[test]
    fn pin_every_sim_flag() {
        let Command::Sim(a) = parse(&argv(
            "sim --protocol sliding:64 --sampler newscast --n 300 --slices 6 --view 7 \
             --cycles 12 --seed 5 --concurrency half --latency fixed:2 \
             --churn uncorrelated:0.02:3 --distribution normal:170:10 --metrics-every 4 \
             --time-phases --csv r.csv --json r.json --quiet --trace-out t.json \
             --trace-jsonl t.jsonl --trace-sample 3 --metrics-out m.prom",
        ))
        .unwrap() else {
            panic!("not sim")
        };
        assert_eq!(a.run.protocol, ProtocolKind::SlidingRanking { window: 64 });
        assert_eq!(a.run.sampler, SamplerKind::Newscast);
        assert_eq!(a.run.n, 300);
        assert_eq!(a.run.slices, 6);
        assert_eq!(a.run.view, 7);
        assert_eq!(a.cycles, 12);
        assert_eq!(a.run.seed, 5);
        assert_eq!(a.concurrency, Concurrency::Half);
        assert_eq!(a.latency, LatencyModel::Fixed { cycles: 2 });
        assert_eq!(
            a.churn,
            ChurnSpec::Uncorrelated {
                rate: 0.02,
                period: 3
            }
        );
        assert_eq!(
            a.run.distribution,
            AttributeDistribution::Normal {
                mean: 170.0,
                std_dev: 10.0
            }
        );
        assert_eq!(a.metrics_every, 4);
        assert!(a.time_phases);
        assert_eq!(a.csv.as_deref(), Some("r.csv"));
        assert_eq!(a.out.json.as_deref(), Some("r.json"));
        assert!(a.out.quiet);
        assert_eq!(a.out.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.out.trace_jsonl.as_deref(), Some("t.jsonl"));
        assert_eq!(a.out.trace_sample, 3);
        assert_eq!(a.out.metrics_out.as_deref(), Some("m.prom"));
    }

    #[test]
    fn pin_sim_defaults() {
        let Command::Sim(a) = parse(&argv("sim")).unwrap() else {
            panic!("not sim")
        };
        assert_eq!(a.run.protocol, ProtocolKind::Ranking);
        assert_eq!(a.run.sampler, SamplerKind::Cyclon);
        assert_eq!(
            (a.run.n, a.run.slices, a.run.view, a.cycles),
            (1000, 10, 10, 100)
        );
        assert_eq!(a.run.seed, 0xD51CE);
        assert_eq!(a.concurrency, Concurrency::None);
        assert_eq!(a.latency, LatencyModel::Zero);
        assert_eq!(a.churn, ChurnSpec::None);
        assert_eq!(
            a.run.distribution,
            AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 }
        );
        assert_eq!(a.metrics_every, 1);
        assert!(!a.time_phases && !a.out.quiet);
        assert_eq!(a.csv, None);
        assert_eq!(a.out.json, None);
        assert_eq!(a.out.trace_out, None);
        assert_eq!(a.out.trace_jsonl, None);
        assert_eq!(a.out.trace_sample, 1);
        assert_eq!(a.out.metrics_out, None);
    }

    #[test]
    fn pin_every_net_run_flag() {
        let Command::NetRun(a) = parse(&argv(
            "net-run --protocol jk --sampler lpbcast --n 20 --slices 4 --view 5 \
             --period-ms 12 --duration-ms 900 --seed 3 --bootstrap 2 --distribution exp:0.5 \
             --loss 0.05 --delay-ms 2:6 --crash 0.5:100 --restart 300 \
             --refuse 0.25:50:60 --stall 0.125:70:80 --json n.json --quiet \
             --metrics-out n.prom --metrics-stream n.jsonl --scrape-every-ms 40",
        ))
        .unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(a.run.protocol, ProtocolKind::Jk);
        assert_eq!(a.run.sampler, SamplerKind::Lpbcast);
        assert_eq!(a.run.n, 20);
        assert_eq!(a.run.slices, 4);
        assert_eq!(a.run.view, 5);
        assert_eq!(a.period_ms, 12);
        assert_eq!(a.duration_ms, 900);
        assert_eq!(a.run.seed, 3);
        assert_eq!(a.bootstrap, 2);
        assert_eq!(
            a.run.distribution,
            AttributeDistribution::Exponential { rate: 0.5 }
        );
        assert_eq!(a.loss, 0.05);
        assert_eq!(a.delay_ms, Some((2, 6)));
        assert_eq!(a.crash, Some((0.5, 100)));
        assert_eq!(a.restart_at_ms, Some(300));
        assert_eq!(a.refuse, Some((0.25, 50, 60)));
        assert_eq!(a.stall, Some((0.125, 70, 80)));
        assert_eq!(a.out.json.as_deref(), Some("n.json"));
        assert!(a.out.quiet);
        assert_eq!(a.out.metrics_out.as_deref(), Some("n.prom"));
        assert_eq!(a.metrics_stream.as_deref(), Some("n.jsonl"));
        assert_eq!(a.scrape_every_ms, 40);
    }

    #[test]
    fn pin_net_run_defaults() {
        let Command::NetRun(a) = parse(&argv("net-run")).unwrap() else {
            panic!("not net-run")
        };
        assert_eq!(a.run.protocol, ProtocolKind::Ranking);
        assert_eq!(a.run.sampler, SamplerKind::Cyclon);
        assert_eq!((a.run.n, a.run.slices, a.run.view), (16, 2, 8));
        assert_eq!((a.period_ms, a.duration_ms), (20, 1000));
        assert_eq!(a.run.seed, 0xD51CE);
        assert_eq!(a.bootstrap, 4);
        assert_eq!(
            a.run.distribution,
            AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 }
        );
        assert_eq!(a.loss, 0.0);
        assert_eq!(a.delay_ms, None);
        assert_eq!(a.crash, None);
        assert_eq!(a.restart_at_ms, None);
        assert_eq!(a.refuse, None);
        assert_eq!(a.stall, None);
        assert_eq!(a.out.json, None);
        assert!(!a.out.quiet);
        assert_eq!(a.out.metrics_out, None);
        assert_eq!(a.metrics_stream, None);
        assert_eq!(a.scrape_every_ms, 100);
    }

    #[test]
    fn pin_every_run_scenario_flag() {
        assert_eq!(
            parse(&argv(
                "run-scenario --json s.json --quiet --trace-out t.json --trace-jsonl t.jsonl \
                 --trace-sample 6 --metrics-out s.prom churn-wave",
            ))
            .unwrap(),
            scenario("churn-wave", |a| {
                a.out.json = Some("s.json".into());
                a.out.quiet = true;
                a.out.trace_out = Some("t.json".into());
                a.out.trace_jsonl = Some("t.jsonl".into());
                a.out.trace_sample = 6;
                a.out.metrics_out = Some("s.prom".into());
            })
        );
        assert_eq!(
            parse(&argv("run-scenario --list")).unwrap(),
            scenario("", |a| {
                a.name = None;
                a.list = true;
            })
        );
    }

    #[test]
    fn pin_analyze_and_slice_of_flags() {
        assert_eq!(
            parse(&argv(
                "analyze lemma41 --p 0.02 --n 500 --epsilon 0.1 --beta 0.25"
            ))
            .unwrap(),
            Command::Analyze(AnalyzeArgs::Lemma41 {
                beta: 0.25,
                epsilon: 0.1,
                n: 500,
                p: Some(0.02)
            })
        );
        assert_eq!(
            parse(&argv("analyze samples --alpha 0.01 --d 0.02 --p 0.3")).unwrap(),
            Command::Analyze(AnalyzeArgs::Samples {
                p: 0.3,
                d: 0.02,
                alpha: 0.01
            })
        );
        assert_eq!(
            parse(&argv("analyze population --p 0.1 --n 100")).unwrap(),
            Command::Analyze(AnalyzeArgs::Population { n: 100, p: 0.1 })
        );
        assert_eq!(
            parse(&argv("slice-of --rank 0.5 --slices 4")).unwrap(),
            Command::SliceOf {
                slices: 4,
                rank: 0.5
            }
        );
        // A repeated flag keeps its last value.
        assert_eq!(
            parse(&argv("slice-of --rank 0.5 --slices 4 --rank 0.75")).unwrap(),
            Command::SliceOf {
                slices: 4,
                rank: 0.75
            }
        );
    }

    #[test]
    fn pin_documented_command_lines() {
        // README.md, docs/OBSERVABILITY.md, docs/SCENARIOS.md,
        // .github/workflows/ci.yml and the binary's module doc.
        let cases: Vec<(&str, Command)> = vec![
            (
                "sim --protocol ranking --n 2000 --slices 10 --cycles 200",
                sim(|a| {
                    a.run.n = 2000;
                    a.run.slices = 10;
                    a.cycles = 200;
                }),
            ),
            (
                "sim --n 100000 --metrics-every 10 --time-phases",
                sim(|a| {
                    a.run.n = 100_000;
                    a.metrics_every = 10;
                    a.time_phases = true;
                }),
            ),
            (
                "run --n 10000 --cycles 100 --trace-out trace.json --trace-sample 10 \
                 --metrics-out metrics.prom",
                sim(|a| {
                    a.run.n = 10_000;
                    a.cycles = 100;
                    a.out.trace_out = Some("trace.json".into());
                    a.out.trace_sample = 10;
                    a.out.metrics_out = Some("metrics.prom".into());
                }),
            ),
            (
                "run --n 10000 --cycles 100 --trace-out trace.json --trace-jsonl trace.jsonl \
                 --trace-sample 10 --metrics-out metrics.prom",
                sim(|a| {
                    a.run.n = 10_000;
                    a.cycles = 100;
                    a.out.trace_out = Some("trace.json".into());
                    a.out.trace_jsonl = Some("trace.jsonl".into());
                    a.out.trace_sample = 10;
                    a.out.metrics_out = Some("metrics.prom".into());
                }),
            ),
            (
                "run --n 10000 --cycles 30 --metrics-every 10 \
                 --trace-out obs-artifacts/sim-trace.json \
                 --trace-jsonl obs-artifacts/sim-trace.jsonl --trace-sample 5 \
                 --metrics-out obs-artifacts/sim-metrics.prom",
                sim(|a| {
                    a.run.n = 10_000;
                    a.cycles = 30;
                    a.metrics_every = 10;
                    a.out.trace_out = Some("obs-artifacts/sim-trace.json".into());
                    a.out.trace_jsonl = Some("obs-artifacts/sim-trace.jsonl".into());
                    a.out.trace_sample = 5;
                    a.out.metrics_out = Some("obs-artifacts/sim-metrics.prom".into());
                }),
            ),
            (
                "sim --protocol mod-jk --concurrency full --csv run.csv",
                sim(|a| {
                    a.run.protocol = ProtocolKind::ModJk;
                    a.concurrency = Concurrency::Full;
                    a.csv = Some("run.csv".into());
                }),
            ),
            (
                "sim --protocol ranking --n 500 --slices 5 --cycles 40",
                sim(|a| {
                    a.run.n = 500;
                    a.run.slices = 5;
                    a.cycles = 40;
                }),
            ),
            (
                "run-scenario lying-nodes --trace-jsonl events.jsonl",
                scenario("lying-nodes", |a| {
                    a.out.trace_jsonl = Some("events.jsonl".into())
                }),
            ),
            (
                "run-scenario lying-nodes --json report.json",
                scenario("lying-nodes", |a| a.out.json = Some("report.json".into())),
            ),
            (
                "run-scenario lying-nodes --trace-out trace.json --metrics-out m.prom",
                scenario("lying-nodes", |a| {
                    a.out.trace_out = Some("trace.json".into());
                    a.out.metrics_out = Some("m.prom".into());
                }),
            ),
            ("run-scenario lying-nodes", scenario("lying-nodes", |_| {})),
            (
                "run-scenario lying-nodes-robust --quiet \
                 --metrics-out obs-artifacts/scenario-metrics.prom",
                scenario("lying-nodes-robust", |a| {
                    a.out.quiet = true;
                    a.out.metrics_out = Some("obs-artifacts/scenario-metrics.prom".into());
                }),
            ),
            (
                "net-run --n 16 --duration-ms 2000 --metrics-out metrics.prom \
                 --metrics-stream metrics.jsonl",
                net_run(|a| {
                    a.run.n = 16;
                    a.duration_ms = 2000;
                    a.out.metrics_out = Some("metrics.prom".into());
                    a.metrics_stream = Some("metrics.jsonl".into());
                }),
            ),
            (
                "net-run --n 16 --duration-ms 2000 --metrics-out metrics.prom \
                 --metrics-stream metrics.jsonl --scrape-every-ms 100",
                net_run(|a| {
                    a.run.n = 16;
                    a.duration_ms = 2000;
                    a.out.metrics_out = Some("metrics.prom".into());
                    a.metrics_stream = Some("metrics.jsonl".into());
                    a.scrape_every_ms = 100;
                }),
            ),
            (
                "net-run --n 24 --slices 3 --duration-ms 2000",
                net_run(|a| {
                    a.run.n = 24;
                    a.run.slices = 3;
                    a.duration_ms = 2000;
                }),
            ),
            (
                "net-run --loss 0.1 --crash 0.25:800 --restart 1600 --json report.json",
                net_run(|a| {
                    a.loss = 0.1;
                    a.crash = Some((0.25, 800));
                    a.restart_at_ms = Some(1600);
                    a.out.json = Some("report.json".into());
                }),
            ),
            (
                "net-run --n 12 --duration-ms 1500 \
                 --metrics-out obs-artifacts/net-metrics.prom \
                 --metrics-stream obs-artifacts/net-metrics.jsonl \
                 --json obs-artifacts/net-report.json",
                net_run(|a| {
                    a.run.n = 12;
                    a.duration_ms = 1500;
                    a.out.metrics_out = Some("obs-artifacts/net-metrics.prom".into());
                    a.metrics_stream = Some("obs-artifacts/net-metrics.jsonl".into());
                    a.out.json = Some("obs-artifacts/net-report.json".into());
                }),
            ),
            (
                "analyze lemma41 --beta 0.5 --epsilon 0.05 --n 10000",
                Command::Analyze(AnalyzeArgs::Lemma41 {
                    beta: 0.5,
                    epsilon: 0.05,
                    n: 10_000,
                    p: None,
                }),
            ),
            (
                "analyze samples --p 0.45 --d 0.05 --alpha 0.05",
                Command::Analyze(AnalyzeArgs::Samples {
                    p: 0.45,
                    d: 0.05,
                    alpha: 0.05,
                }),
            ),
            (
                "analyze population --n 10000 --p 0.1",
                Command::Analyze(AnalyzeArgs::Population { n: 10_000, p: 0.1 }),
            ),
            ("help", Command::Help),
            (
                "slice-of --slices 100 --rank 0.423",
                Command::SliceOf {
                    slices: 100,
                    rank: 0.423,
                },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(&argv(line)).unwrap(), want, "{line}");
        }
        assert_eq!(
            parse(&argv("run-scenario --list")).unwrap(),
            scenario("", |a| {
                a.name = None;
                a.list = true;
            })
        );
    }

    #[test]
    fn pin_command_line_errors() {
        let cases: &[(&str, &str)] = &[
            // A valued flag with nothing after it.
            ("sim --n", "--n requires a value"),
            ("sim --trace-sample", "--trace-sample requires a value"),
            ("net-run --loss", "--loss requires a value"),
            ("net-run --protocol", "--protocol requires a value"),
            ("run-scenario lying-nodes --json", "--json requires a value"),
            ("analyze lemma41 --beta", "--beta requires a value"),
            ("slice-of --rank", "--rank requires a value"),
            // Missing operands.
            ("analyze samples --p 0.45", "analyze samples requires --d"),
            (
                "analyze lemma41 --beta 0.5 --n 10",
                "analyze lemma41 requires --epsilon",
            ),
            (
                "analyze population --p 0.1",
                "analyze population requires --n",
            ),
            ("slice-of --slices 100", "slice-of requires --rank"),
            ("slice-of --rank 0.5", "slice-of requires --slices"),
            ("slice-of --frob 3", "unknown slice-of argument \"--frob\""),
            (
                "run-scenario a b",
                "run-scenario takes one scenario name, got \"b\" too",
            ),
            // Numbers and ranges.
            (
                "sim --n x",
                "invalid value for --n: \"x\" (invalid digit found in string)",
            ),
            ("sim --cycles 0", "--cycles must be at least 1"),
            (
                "sim --metrics-every 0",
                "--metrics-every must be at least 1",
            ),
            ("sim --trace-sample 0", "--trace-sample must be at least 1"),
            (
                "run-scenario a --trace-sample 0",
                "--trace-sample must be at least 1",
            ),
            (
                "net-run --scrape-every-ms 0",
                "--scrape-every-ms must be positive",
            ),
            ("net-run --n 0", "net-run needs at least one node (--n)"),
            (
                "net-run --n 500",
                "net-run is a localhost harness; --n must be at most 128, got 500",
            ),
            ("net-run --period-ms 0", "--period-ms must be positive"),
            (
                "net-run --restart 400",
                "--restart requires --crash (nothing would be down)",
            ),
            (
                "net-run --crash 0.5:400 --restart 200",
                "--restart at 200 ms must come after the crash at 400 ms",
            ),
            ("net-run --loss 1.2", "--loss must lie in [0, 1], got 1.2"),
            // Protocol specs.
            (
                "sim --protocol sliding",
                "sliding requires an explicit window (sliding:<window>)",
            ),
            ("sim --protocol raft", "unknown protocol \"raft\""),
            (
                "sim --protocol sliding:x",
                "invalid value for --protocol sliding: \"x\" (invalid digit found in string)",
            ),
            (
                "sim --protocol sliding:0",
                "invalid protocol \"sliding:0\": invalid protocol configuration: \
                 sliding-ranking window must be at least 1",
            ),
            (
                "sim --protocol decay:1",
                "invalid protocol \"decay:1\": invalid protocol configuration: \
                 decay factor must lie strictly between 0 and 1, got 1000000 ppm",
            ),
            (
                "sim --protocol decay:x",
                "invalid value for --protocol decay: \"x\" (invalid float literal)",
            ),
            (
                "sim --protocol robust:2",
                "invalid protocol \"robust:2\": invalid protocol configuration: \
                 robust-ranking window must be at least 4 (quartiles need spread), got 2",
            ),
            (
                "sim --protocol trimmed:128",
                "trimmed takes <window>:<pct>, got \"trimmed:128\"",
            ),
            (
                "sim --protocol trimmed:128:0.5",
                "invalid protocol \"trimmed:128:0.5\": invalid protocol configuration: \
                 trim fraction must lie strictly between 0 and 0.5, got 500000 ppm",
            ),
            (
                "sim --protocol trimmed:128:-0.1",
                "trimmed fraction must be a fraction in (0, 0.5), got -0.1",
            ),
            (
                "sim --protocol fence-trim:128:x",
                "invalid value for --protocol fence-trim fraction: \"x\" (invalid float literal)",
            ),
            (
                "net-run --protocol mod-jk-live:2",
                "mod-jk-live takes <strike-limit>:<cooldown>, got \"mod-jk-live:2\"",
            ),
            (
                "sim --protocol mod-jk-live:0:16",
                "invalid protocol \"mod-jk-live:0:16\": invalid protocol configuration: \
                 mod-jk-live strike limit and cooldown must be at least 1",
            ),
            // Sampler, concurrency, churn, latency and distribution specs.
            ("net-run --sampler chord", "unknown sampler \"chord\""),
            (
                "net-run --sampler uniform",
                "net-run cannot use the uniform oracle: it is a simulator-only substrate \
                 (use cyclon, newscast or lpbcast)",
            ),
            (
                "net-run --sampler oracle",
                "net-run cannot use the uniform oracle: it is a simulator-only substrate \
                 (use cyclon, newscast or lpbcast)",
            ),
            ("sim --concurrency most", "unknown concurrency \"most\""),
            (
                "sim --churn correlated:2.0:10",
                "churn rate must lie in [0, 1], got 2",
            ),
            (
                "sim --churn correlated:0.1:0",
                "churn period must be at least 1",
            ),
            (
                "sim --churn correlated:0.1",
                "churn spec must be none or <kind>:<rate>:<period>, got \"correlated:0.1\"",
            ),
            ("sim --churn bogus:0.1:1", "unknown churn kind \"bogus\""),
            (
                "sim --churn correlated:x:1",
                "invalid value for --churn rate: \"x\" (invalid float literal)",
            ),
            (
                "sim --latency geometric:1.5",
                "geometric p must lie in [0, 1), got 1.5",
            ),
            ("sim --latency warp:9", "unknown latency spec \"warp:9\""),
            ("sim --latency fixed", "unknown latency spec \"fixed\""),
            (
                "sim --distribution pareto:0:1",
                "invalid configuration: invalid distribution parameters: \
                 Pareto { scale: 0.0, shape: 1.0 }",
            ),
            (
                "sim --distribution zipf:1",
                "unknown distribution spec \"zipf:1\"",
            ),
            (
                "net-run --distribution normal:0:-1",
                "invalid configuration: invalid distribution parameters: \
                 Normal { mean: 0.0, std_dev: -1.0 }",
            ),
            // Chaos specs.
            (
                "net-run --crash 0.5",
                "--crash takes <frac>:<at-ms>, got \"0.5\"",
            ),
            (
                "net-run --crash 0:100",
                "--crash fraction must lie in (0, 1], got 0",
            ),
            (
                "net-run --crash 1.5:100",
                "--crash fraction must lie in (0, 1], got 1.5",
            ),
            (
                "net-run --refuse 0.5:100:0",
                "--refuse window must be positive",
            ),
            (
                "net-run --stall 0.5:100",
                "--stall takes <frac>:<at-ms>:<dur-ms>, got \"0.5:100\"",
            ),
            ("net-run --delay-ms 5:2", "--delay-ms range inverted: 5 > 2"),
            (
                "net-run --delay-ms 5",
                "--delay-ms takes <min>:<max>, got \"5\"",
            ),
        ];
        for (line, msg) in cases {
            assert_eq!(err(line), *msg, "{line}");
        }
        // Errors that end in the usage text.
        let usage_cases: &[(&str, &str)] = &[
            ("sim --frob 3", "unknown sim argument \"--frob\""),
            ("sim stray", "unknown sim argument \"stray\""),
            ("sim --list", "unknown sim argument \"--list\""),
            (
                "sim --metrics-stream s.jsonl",
                "unknown sim argument \"--metrics-stream\"",
            ),
            ("net-run --frob 3", "unknown net-run argument \"--frob\""),
            (
                "net-run --trace-out t.json",
                "unknown net-run argument \"--trace-out\"",
            ),
            (
                "net-run --cycles 3",
                "unknown net-run argument \"--cycles\"",
            ),
            (
                "run-scenario lying-nodes --frob",
                "unknown run-scenario argument \"--frob\"",
            ),
            (
                "run-scenario a --n 3",
                "unknown run-scenario argument \"--n\"",
            ),
            (
                "run-scenario",
                "run-scenario requires a scenario name or --list",
            ),
            ("teleport", "unknown command \"teleport\""),
            ("analyze", "analyze requires a sub-command"),
            ("analyze nothing", "unknown analyze sub-command \"nothing\""),
            // Each analyze sub-command takes only its own flags.
            (
                "analyze samples --p 0.45 --d 0.05 --bogus 3",
                "unknown analyze argument \"--bogus\"",
            ),
            (
                "analyze population --n 100 --p 0.1 --frob x",
                "unknown analyze argument \"--frob\"",
            ),
            (
                "analyze samples --n 5 --p 0.45 --d 0.05",
                "unknown analyze argument \"--n\"",
            ),
        ];
        for (line, msg) in usage_cases {
            assert_eq!(err(line), with_usage(msg), "{line}");
        }
    }
}
