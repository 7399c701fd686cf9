//! Fig. 10: efficiency vs accuracy tradeoff under the δ knob.

use cdl_bench::experiments::fig10;
use cdl_bench::pipeline::{prepare_pair, ExperimentConfig};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let pair = prepare_pair(&ExperimentConfig::from_env())?;
    print!("{}", fig10::render(&fig10::run(&pair)?));
    Ok(())
}
