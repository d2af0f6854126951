//! E13 — empirical cluster energy and the diversification ablation: runs
//! [`sdrad_bench::scenarios::e13`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e13");
}
