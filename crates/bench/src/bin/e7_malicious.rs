//! E7 — malicious-client impact on benign clients: runs
//! [`sdrad_bench::scenarios::e7`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e7");
}
