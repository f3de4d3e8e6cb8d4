//! `dslice-cli` — run distributed-slicing simulations from the shell.
//!
//! ```text
//! dslice-cli sim --protocol ranking --n 2000 --slices 10 --cycles 200
//! dslice-cli sim --protocol mod-jk --concurrency full --csv run.csv
//! dslice-cli analyze lemma41 --beta 0.5 --epsilon 0.05 --n 10000
//! dslice-cli analyze samples --p 0.45 --d 0.05 --alpha 0.05
//! dslice-cli analyze population --n 10000 --p 0.1
//! dslice-cli slice-of --slices 100 --rank 0.423
//! dslice-cli run-scenario --list
//! dslice-cli run-scenario lying-nodes --json report.json
//! dslice-cli net-run --n 24 --slices 3 --duration-ms 2000
//! dslice-cli help
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv).and_then(commands::run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
