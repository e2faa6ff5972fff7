//! The experiment registry: one module per table/figure of the
//! reconstructed evaluation (see DESIGN.md for the mapping).

pub mod e01_distributions;
pub mod e02_overhead;
pub mod e03_headline;
pub mod e04_convergence;
pub mod e05_zone_size;
pub mod e06_selectivity;
pub mod e07_shift;
pub mod e08_footprint;
pub mod e09_appends;
pub mod e10_ablation;
pub mod e11_multicolumn;
pub mod e12_activation;
pub mod e13_strings;
pub mod e14_masks;
pub mod e15_parallel;
pub mod e16_server;
pub mod e17_sharding;
pub mod e18_plans;
pub mod e19_reorg;
pub mod e20_mutations;
pub mod e21_sketches;
pub mod e22_stationarity;

use crate::report::Report;
use crate::runner::Scale;

/// Experiment ids in execution order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22",
];

/// Runs one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<Report> {
    match id {
        "e1" => Some(e01_distributions::run(scale)),
        "e2" => Some(e02_overhead::run(scale)),
        "e3" => Some(e03_headline::run(scale)),
        "e4" => Some(e04_convergence::run(scale)),
        "e5" => Some(e05_zone_size::run(scale)),
        "e6" => Some(e06_selectivity::run(scale)),
        "e7" => Some(e07_shift::run(scale)),
        "e8" => Some(e08_footprint::run(scale)),
        "e9" => Some(e09_appends::run(scale)),
        "e10" => Some(e10_ablation::run(scale)),
        "e11" => Some(e11_multicolumn::run(scale)),
        "e12" => Some(e12_activation::run(scale)),
        "e13" => Some(e13_strings::run(scale)),
        "e14" => Some(e14_masks::run(scale)),
        "e15" => Some(e15_parallel::run(scale)),
        "e16" => Some(e16_server::run(scale)),
        "e17" => Some(e17_sharding::run(scale)),
        "e18" => Some(e18_plans::run(scale)),
        "e19" => Some(e19_reorg::run(scale)),
        "e20" => Some(e20_mutations::run(scale)),
        "e21" => Some(e21_sketches::run(scale)),
        "e22" => Some(e22_stationarity::run(scale)),
        _ => None,
    }
}
