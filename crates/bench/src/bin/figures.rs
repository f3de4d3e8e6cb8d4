//! Regenerates the paper's figures as CSV files.
//!
//! ```text
//! figures [--fig <id>] [--scale paper|small|tiny] [--seed N] [--out DIR]
//! ```
//!
//! `--fig all` (the default) runs every experiment; `--help` lists the
//! figure ids. Repeated ids run once, and an unknown id is rejected before
//! anything runs. CSVs land in `--out` (default `target/figures`), next to a
//! `manifest.json` recording the exact parameters of the run.

use dslice_bench::ablations;
use dslice_bench::experiments::{self, Scale};
use dslice_bench::Table;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One experiment: its figure id and the function that computes its table.
type Figure = (&'static str, fn(Scale, u64) -> Table);

/// Every figure id, in `--fig all` order.
const FIGURES: &[Figure] = &[
    ("4a", experiments::fig4a),
    ("4b", experiments::fig4b),
    ("4b-banded", |scale, seed| {
        experiments::fig4b_banded(scale, &[seed, seed + 1, seed + 2])
    }),
    ("4c", experiments::fig4c),
    ("4d", experiments::fig4d),
    ("6a", experiments::fig6a),
    ("6b", experiments::fig6b),
    ("6c", experiments::fig6c),
    ("6d", experiments::fig6d),
    ("lemma41", |_, seed| experiments::lemma41(seed)),
    ("thm51", |_, seed| experiments::thm51(seed)),
    ("ablation-sampler", experiments::ablation_sampler),
    ("ablation-dist", experiments::ablation_distribution),
    ("ablation-view-size", ablations::ablation_view_size),
    ("ablation-slice-count", ablations::ablation_slice_count),
    ("ablation-loss", ablations::ablation_loss),
    ("ablation-targeting", ablations::ablation_targeting),
    (
        "ablation-sampler-ranking",
        ablations::ablation_sampler_ranking,
    ),
    ("ablation-window", ablations::ablation_window),
    ("ablation-latency", ablations::ablation_latency),
    ("baseline-quantile", ablations::baseline_quantile),
];

struct Args {
    figs: Vec<&'static Figure>,
    scale: Scale,
    seed: u64,
    out: PathBuf,
}

/// Parses the arguments after the program name. Figure ids are resolved
/// here, so a typo fails before any experiment runs, and each figure is
/// kept once, at its first mention.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut figs: Vec<&'static Figure> = Vec::new();
    let mut scale = Scale::Small;
    let mut seed = 0xD51CE;
    let mut out = PathBuf::from("target/figures");

    let mut i = 0;
    while i < argv.len() {
        let need_value = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} requires a value", argv[i]))
        };
        match argv[i].as_str() {
            "--fig" => {
                let v = need_value(i)?;
                let picked: &'static [Figure] = if v == "all" {
                    FIGURES
                } else {
                    std::slice::from_ref(
                        FIGURES
                            .iter()
                            .find(|(id, _)| id == v)
                            .ok_or_else(|| format!("unknown figure id {v:?} (try --help)"))?,
                    )
                };
                for fig in picked {
                    if !figs.iter().any(|f| f.0 == fig.0) {
                        figs.push(fig);
                    }
                }
                i += 2;
            }
            "--scale" => {
                let v = need_value(i)?;
                scale = Scale::parse(v).ok_or_else(|| format!("unknown scale {v:?}"))?;
                i += 2;
            }
            "--seed" => {
                let v = need_value(i)?;
                seed = v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?;
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(need_value(i)?);
                i += 2;
            }
            "--help" | "-h" => {
                let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
                return Err(format!(
                    "usage: figures [--fig <id>|all] [--scale paper|small|tiny] \
                     [--seed N] [--out DIR]\n  figure ids: {}",
                    ids.join(" ")
                ));
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if figs.is_empty() {
        figs = FIGURES.iter().collect();
    }
    Ok(Args {
        figs,
        scale,
        seed,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let mut manifest = Vec::new();
    for (id, run) in args.figs {
        let started = Instant::now();
        eprint!("fig {id} ({:?}, seed {}) … ", args.scale, args.seed);
        let table = run(args.scale, args.seed);
        let path = args.out.join(format!("{}.csv", table.name));
        let file = match fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = table.write_csv(file) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let elapsed = started.elapsed();
        eprintln!(
            "{} rows -> {} ({elapsed:.2?})",
            table.rows.len(),
            path.display()
        );
        manifest.push(serde_json::json!({
            "fig": id,
            "csv": path.display().to_string(),
            "rows": table.rows.len(),
            "columns": table.columns,
            "scale": format!("{:?}", args.scale),
            "seed": args.seed,
            "elapsed_ms": elapsed.as_millis() as u64,
        }));
    }

    let manifest_path = args.out.join("manifest.json");
    match serde_json::to_string_pretty(&manifest) {
        Ok(json) => {
            if let Err(e) = fs::write(&manifest_path, json) {
                eprintln!("cannot write manifest: {e}");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("cannot serialize manifest: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("manifest -> {}", manifest_path.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(argv: &[&str]) -> Result<Vec<&'static str>, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse_args(&argv).map(|args| args.figs.iter().map(|(id, _)| *id).collect())
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
