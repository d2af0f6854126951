//! E9 — developer effort of the SDRaD retrofit: runs
//! [`sdrad_bench::scenarios::e9`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e9");
}
