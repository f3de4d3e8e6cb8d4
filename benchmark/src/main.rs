//! Command line of the repo benchmark.
//!
//! ```text
//! dslice-benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! dslice-benchmark run --all [--seed N] [--seconds S] [--traced] [--smoke] [--repeat K]
//! dslice-benchmark compare BASE.json NEW.json
//! ```
//!
//! A single-workload run prints every metric by name with its unit and, as
//! the last line of standard output, the driver's JSON object. `run --all`
//! runs each workload in a child process of its own (so peak memory and CPU
//! time are per workload) and gathers the artifacts into one file.

use dslice_benchmark::{
    compare, host, repo_root, report, run_workload, spec, write_artifacts, RunArgs,
};
use serde_json::{json, Value};
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  dslice-benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  dslice-benchmark run --all [--seed N] [--seconds S] [--traced] [--smoke] [--repeat K]
  dslice-benchmark compare BASE.json NEW.json";

/// Seconds measured when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

struct Cli {
    run: RunArgs,
    all: bool,
    repeat: u64,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: 42,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        },
        all: false,
        repeat: 1,
    };
    let mut it = argv.iter().skip_while(|a| *a == "run");
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let whole = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.run.workload = value("a workload name")?,
            "--seed" => cli.run.seed = whole(value("a number")?)?,
            "--seconds" => cli.run.seconds = whole(value("a number")?)?,
            "--trace" => {
                cli.run.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => cli.run.traced = true,
            "--smoke" => cli.run.smoke = true,
            "--all" => cli.all = true,
            "--repeat" => cli.repeat = whole(value("a number")?)?.max(1),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.all != cli.run.workload.is_empty() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    Ok(cli)
}

/// One workload, in this process. The driver reads correctness from the
/// printed line: a run that produced its line has done its job.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let root = repo_root();
    let (out, spans) = run_workload(args, &root)?;
    let path = write_artifacts(&root, &out, spans.as_ref())
        .map_err(|e| format!("cannot write artifacts: {e}"))?;
    print!("{}", out.table());
    println!("artifact: {}", path.display());
    println!("{}", out.driver_line());
    Ok(true)
}

/// Every workload, each in a child process; the artifacts the children
/// wrote are gathered into `benchmark/out/all.json` (`all.layers.json` for
/// a traced run).
fn run_all(cli: &Cli) -> Result<bool, String> {
    let root = repo_root();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let suffix = if cli.run.traced {
        "layers.json"
    } else {
        "json"
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..cli.repeat {
        for (workload, _) in spec::WORKLOADS {
            let mut child = Command::new(&exe);
            child
                .current_dir(&root)
                .args(["--workload", workload])
                .args(["--seed", &(cli.run.seed + repeat).to_string()])
                .args(["--seconds", &cli.run.seconds.to_string()])
                .args(["--trace", if cli.run.traced { "1" } else { "0" }]);
            if cli.run.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} ended with {status}"));
            }
            let path = root.join(format!("benchmark/out/{workload}.{suffix}"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let run: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            all_correct &= report::get(&run, "correct") == Some(&Value::Bool(true));
            runs.push(run);
        }
    }
    let combined = json!({
        "host": host::host_block(),
        "toolchain": host::toolchain_block(),
        "runs": runs
    });
    let path = root.join(format!("benchmark/out/all.{suffix}"));
    let text = serde_json::to_string_pretty(&combined).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| e.to_string())?;
    println!("combined artifact: {}", path.display());
    Ok(all_correct)
}

fn run_compare(base: &str, new: &str) -> Result<bool, String> {
    let side = |path: &str| {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        compare::parse_side(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, more_failures) = compare::compare(&side(base)?, &side(new)?);
    print!("{}", compare::table(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    println!(
        "{} rows, {worse} worse, failed share higher: {more_failures}",
        rows.len()
    );
    Ok(worse == 0 && !more_failures)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [cmd, base, new] if cmd == "compare" => run_compare(base, new),
        _ => match parse(&argv) {
            Ok(cli) if cli.all => run_all(&cli),
            Ok(cli) => run_one(&cli.run),
            Err(msg) => Err(format!("{msg}\n{USAGE}")),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("dslice-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
