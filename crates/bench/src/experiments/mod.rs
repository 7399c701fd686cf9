//! One module per table/figure of the paper's evaluation — the list below is
//! the index; `run_all <report-name>` runs one of them.
//!
//! Every experiment returns its rendered report as a `String` (`run_all`
//! prints it and writes it to `target/cdl-results/`).

pub mod ablation;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table12;
pub mod table3;
pub mod table4;

use crate::pipeline::BenchError;
use std::path::PathBuf;

/// Directory where `run_all` stores rendered experiment reports.
pub fn results_dir() -> PathBuf {
    std::env::var("CDL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/cdl-results"))
}

/// Writes a rendered report under [`results_dir`] (best effort) and returns
/// the rendered text unchanged for printing.
///
/// # Errors
///
/// Propagates only directory-creation failures when the directory is
/// explicitly configured; otherwise best-effort.
pub fn save_report(name: &str, rendered: &str) -> Result<(), BenchError> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{name}.txt")), rendered)?;
    Ok(())
}
