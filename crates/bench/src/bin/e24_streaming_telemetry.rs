//! E24 — streaming telemetry: runs
//! [`sdrad_bench::scenarios::e24`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e24");
}
