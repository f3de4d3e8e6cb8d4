//! Runs the committed scenario library and writes one JSON report per
//! scenario.
//!
//! ```text
//! scenario_matrix [--out DIR] [--check | --update] [--goldens DIR] [--list]
//! ```
//!
//! * default: run every scenario, write `<name>.json` under `--out`
//!   (default `scenario-reports/`), print a summary table. Every run also
//!   writes `timings.tsv` there: one `name<TAB>seconds` row per scenario, in
//!   library order, so a defence whose cost explodes shows up as a row.
//! * `--check`: additionally compare each report **byte-for-byte** against
//!   the committed golden under `--goldens` (default
//!   `docs/scenarios/goldens/`); exit non-zero on any mismatch, missing
//!   golden, or orphaned golden (a `.json` on disk no library scenario
//!   produces). This is the CI mode — reports are deterministic, so a diff
//!   means behavior actually changed.
//! * `--update`: rewrite the goldens from this run (then commit the diff
//!   alongside the change that caused it).
//! * `--list`: print the scenario names and exit.

use dslice_scenario::library;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    out: PathBuf,
    goldens: PathBuf,
    check: bool,
    update: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("scenario-reports"),
        goldens: PathBuf::from("docs/scenarios/goldens"),
        check: false,
        update: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--goldens" => {
                args.goldens = PathBuf::from(it.next().ok_or("--goldens needs a directory")?)
            }
            "--check" => args.check = true,
            "--update" => args.update = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.check && args.update {
        return Err("--check and --update are mutually exclusive".into());
    }
    Ok(args)
}

/// First line where the two texts differ: 1-based line number plus the
/// expected and actual line contents (`None` past the shorter text).
fn first_divergence<'a>(
    golden: &'a str,
    actual: &'a str,
) -> (usize, Option<&'a str>, Option<&'a str>) {
    let mut golden_lines = golden.lines();
    let mut actual_lines = actual.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (golden_lines.next(), actual_lines.next()) {
            (Some(g), Some(a)) if g == a => continue,
            (g, a) => return (line, g, a),
        }
    }
}

/// Minimal diff artifact for CI upload: the divergence point plus a few
/// lines of context from each side. Not a unified diff — the reports are
/// line-stable JSON, so the first divergent line plus context is enough to
/// read the change without rerunning locally.
fn diff_artifact(name: &str, golden: &str, actual: &str) -> String {
    const CONTEXT: usize = 3;
    let (line, _, _) = first_divergence(golden, actual);
    let start = line.saturating_sub(CONTEXT + 1);
    let mut out = format!("scenario `{name}` diverged at line {line}\n");
    for (marker, text) in [("expected", golden), ("actual", actual)] {
        out.push_str(&format!(
            "--- {marker} (lines {}..{}) ---\n",
            start + 1,
            line + CONTEXT
        ));
        for l in text.lines().skip(start).take(2 * CONTEXT + 1) {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("scenario_matrix: {msg}");
            eprintln!(
                "usage: scenario_matrix [--out DIR] [--check | --update] [--goldens DIR] [--list]"
            );
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for name in library::names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("scenario_matrix: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if args.update {
        if let Err(e) = fs::create_dir_all(&args.goldens) {
            eprintln!(
                "scenario_matrix: cannot create {}: {e}",
                args.goldens.display()
            );
            return ExitCode::FAILURE;
        }
    }

    println!(
        "{:<24} {:>8} {:>7} {:>6} {:>10} {:>9} {:>9}",
        "scenario", "protocol", "cycles", "n", "final-sdm", "accuracy", "honest"
    );
    let mut failures = Vec::new();
    let mut timings = String::new();
    for scenario in library::all() {
        let name = scenario.name().to_string();
        let started = Instant::now();
        let outcome = scenario.run();
        timings.push_str(&format!("{name}\t{:.3}\n", started.elapsed().as_secs_f64()));
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                eprintln!("scenario_matrix: `{name}` failed: {e}");
                failures.push(name);
                continue;
            }
        };
        println!("{}", report.summary_line());
        let json = report.to_json();
        let out_path = args.out.join(format!("{name}.json"));
        if let Err(e) = fs::write(&out_path, &json) {
            eprintln!("scenario_matrix: cannot write {}: {e}", out_path.display());
            failures.push(name.clone());
            continue;
        }
        let golden_path = args.goldens.join(format!("{name}.json"));
        if args.update {
            if let Err(e) = fs::write(&golden_path, &json) {
                eprintln!(
                    "scenario_matrix: cannot write {}: {e}",
                    golden_path.display()
                );
                failures.push(name);
            }
        } else if args.check {
            match fs::read_to_string(&golden_path) {
                Ok(golden) if golden == json => {}
                Ok(golden) => {
                    let (line, expected, actual) = first_divergence(&golden, &json);
                    eprintln!(
                        "scenario_matrix: `{name}` diverged from {} at line {line}:\n\
                         \x20 expected: {}\n\
                         \x20 actual:   {}\n\
                         \x20 (run with --update to accept the new behavior)",
                        golden_path.display(),
                        expected.unwrap_or("<end of file>"),
                        actual.unwrap_or("<end of file>"),
                    );
                    let diff_path = args.out.join(format!("{name}.diff"));
                    if let Err(e) = fs::write(&diff_path, diff_artifact(&name, &golden, &json)) {
                        eprintln!("scenario_matrix: cannot write {}: {e}", diff_path.display());
                    }
                    failures.push(name);
                }
                Err(e) => {
                    eprintln!(
                        "scenario_matrix: `{name}` has no golden at {}: {e}",
                        golden_path.display()
                    );
                    failures.push(name);
                }
            }
        }
    }

    let timings_path = args.out.join("timings.tsv");
    if let Err(e) = fs::write(&timings_path, timings) {
        eprintln!(
            "scenario_matrix: cannot write {}: {e}",
            timings_path.display()
        );
        failures.push("timings.tsv".into());
    }

    if args.check {
        // Orphaned goldens pin nothing: a scenario renamed or removed
        // without its golden leaves CI green while the file rots.
        let expected: std::collections::HashSet<String> = library::names()
            .into_iter()
            .map(|name| format!("{name}.json"))
            .collect();
        match fs::read_dir(&args.goldens) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let file_name = entry.file_name().to_string_lossy().into_owned();
                    if file_name.ends_with(".json") && !expected.contains(&file_name) {
                        eprintln!(
                            "scenario_matrix: orphaned golden {} (no library scenario \
                             produces it — delete it or restore the scenario)",
                            entry.path().display()
                        );
                        failures.push(file_name);
                    }
                }
            }
            Err(e) => {
                eprintln!(
                    "scenario_matrix: cannot list {}: {e}",
                    args.goldens.display()
                );
                failures.push("goldens-dir".into());
            }
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "scenario_matrix: {} scenario(s) failed: {failures:?}",
            failures.len()
        );
        ExitCode::FAILURE
    }
}
