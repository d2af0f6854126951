//! E6 — cross-domain argument serialization formats: runs
//! [`sdrad_bench::scenarios::e6`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e6");
}
