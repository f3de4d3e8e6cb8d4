//! Regenerates the paper's figures as CSV files.
//!
//! ```text
//! figures [--fig <id>] [--scale paper|small|tiny] [--seed N] [--out DIR]
//! ```
//!
//! `--fig all` (the default) runs every figure of the library's table
//! (`dslice_bench::experiments::FIGURES`); `--help` prints this usage and
//! the figure ids to stdout. Repeated ids run once, and an unknown id is
//! rejected before anything runs. CSVs land in `--out` (default
//! `target/figures`), next to a `manifest.json` recording the exact
//! parameters of the run.

use dslice_bench::experiments::FIGURES;
use dslice_bench::{Figure, Scale};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    figs: Vec<&'static Figure>,
    scale: Scale,
    seed: u64,
    out: PathBuf,
}

/// Parses the arguments after the program name; `None` asks for the usage.
/// Figure ids are resolved here, so a typo fails before any experiment
/// runs, and each figure is kept once, at its first mention.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        figs: Vec::new(),
        scale: Scale::Small,
        seed: 0xD51CE,
        out: PathBuf::from("target/figures"),
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--fig" => {
                let v = value()?;
                let picked: Vec<&'static Figure> = FIGURES
                    .iter()
                    .filter(|fig| v == "all" || fig.id() == v)
                    .collect();
                if picked.is_empty() {
                    return Err(format!("unknown figure id {v:?} (try --help)"));
                }
                for fig in picked {
                    if !args.figs.iter().any(|f| f.id() == fig.id()) {
                        args.figs.push(fig);
                    }
                }
            }
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale {v:?}"))?;
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if args.figs.is_empty() {
        args.figs = FIGURES.iter().collect();
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Some(args)) => run(&args),
        Ok(None) => {
            let ids: Vec<&str> = FIGURES.iter().map(Figure::id).collect();
            println!(
                "usage: figures [--fig <id>|all] [--scale paper|small|tiny] [--seed N] [--out DIR]\n  \
                 figure ids: {}",
                ids.join(" ")
            );
            Ok(())
        }
        Err(msg) => Err(msg),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Writes each figure's CSV, then the manifest, into `args.out`.
fn run(args: &Args) -> Result<(), String> {
    fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let mut manifest = Vec::new();
    for fig in &args.figs {
        let id = fig.id();
        let started = Instant::now();
        eprint!("fig {id} ({:?}, seed {}) … ", args.scale, args.seed);
        let table = fig.table(args.scale, args.seed);
        let path = args.out.join(format!("{}.csv", table.name));
        fs::File::create(&path)
            .and_then(|file| table.write_csv(file))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let (elapsed, rows) = (started.elapsed(), table.rows.len());
        eprintln!("{rows} rows -> {} ({elapsed:.2?})", path.display());
        manifest.push(serde_json::json!({
            "fig": id,
            "csv": path.display().to_string(),
            "rows": rows,
            "columns": table.columns,
            "scale": format!("{:?}", args.scale),
            "seed": args.seed,
            "elapsed_ms": elapsed.as_millis() as u64,
        }));
    }

    let manifest_path = args.out.join("manifest.json");
    let json = serde_json::to_string_pretty(&manifest)
        .map_err(|e| format!("cannot serialize manifest: {e}"))?;
    fs::write(&manifest_path, json).map_err(|e| format!("cannot write manifest: {e}"))?;
    eprintln!("manifest -> {}", manifest_path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(argv: &[&str]) -> Result<Vec<&'static str>, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let args = parse_args(&argv)?.expect("not a usage request");
        Ok(args.figs.iter().map(|fig| fig.id()).collect())
    }

    #[test]
    fn unknown_figure_id_is_rejected_before_anything_runs() {
        let err = ids(&["--fig", "4a", "--fig", "nope"]).unwrap_err();
        assert!(err.contains("\"nope\""), "got: {err}");
    }

    #[test]
    fn repeated_figures_run_once_in_order_of_first_mention() {
        assert_eq!(
            ids(&["--fig", "6a", "--fig", "4a", "--fig", "6a"]).unwrap(),
            ["6a", "4a"]
        );
        let all = ids(&["--fig", "4b", "--fig", "all"]).unwrap();
        assert_eq!(all.len(), FIGURES.len());
        assert_eq!(all[..2], ["4b", "4a"]);
        assert_eq!(ids(&[]).unwrap(), ids(&["--fig", "all"]).unwrap());
    }
}
