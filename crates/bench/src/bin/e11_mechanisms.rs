//! E11 — isolation-mechanism ablation: runs
//! [`sdrad_bench::scenarios::e11`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e11");
}
