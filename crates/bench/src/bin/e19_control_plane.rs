//! E19 — static reflexes vs the adaptive control plane: runs
//! [`sdrad_bench::scenarios::e19`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e19");
}
