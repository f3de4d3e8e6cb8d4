//! The `figures` binary's command line: `--help` succeeds with the usage on
//! stdout, and an unknown figure id fails before anything is written.

use std::path::Path;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    let mut figures = Command::new(env!("CARGO_BIN_EXE_figures"));
    figures.args(args).output().expect("figures starts")
}

#[test]
fn help_prints_usage_and_every_figure_id_to_stdout() {
    let out = figures(&["--help"]);
    assert!(out.status.success(), "--help exits 0: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ids = "figure ids: 4a 4b 4b-banded 4c 4d 6a 6b 6c 6d lemma41 thm51 ablation-sampler \
               ablation-dist ablation-view-size ablation-slice-count ablation-loss \
               ablation-targeting ablation-sampler-ranking ablation-window ablation-latency \
               baseline-quantile\n";
    assert!(stdout.starts_with("usage: figures"), "got: {stdout}");
    assert!(stdout.ends_with(ids), "got: {stdout}");
}

#[test]
fn unknown_figure_id_fails_before_any_csv_is_written() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-unknown-id");
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.to_str().unwrap();
    let out = figures(&["--fig", "4a", "--fig", "nope", "--out", out_dir]);
    assert!(!out.status.success(), "an unknown id fails");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("\"nope\""), "got: {stderr}");
    assert!(!dir.exists(), "nothing was written to {}", dir.display());
}
