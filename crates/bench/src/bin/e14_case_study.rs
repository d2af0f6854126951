//! E14 — telecom and smart-grid fleet case study: runs
//! [`sdrad_bench::scenarios::e14`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e14");
}
