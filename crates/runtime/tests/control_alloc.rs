//! The control plane's per-request cost, pinned: once its books are
//! warm, admitting a request and observing its outcome allocates
//! nothing. `ControlHub` makes these calls under the one mutex the
//! submitting thread and every worker share, so an allocation here is
//! an allocation per request with every other thread queued behind it.

use sdrad_control::{Admission, ControlConfig, ControlPlane};
use sdrad_nolock::arena::{count_allocs_on_this_thread, counted_allocs};

#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

const GOOD_CLIENTS: u64 = 16;
const OFFENDER: u64 = 666;
const STEP_NS: u64 = 1_000;
/// Under the default 50 ms benign target: nothing is ever shed.
const OK_LATENCY_NS: u64 = 50_000;

fn serve_one_benign(plane: &mut ControlPlane, i: u64) {
    let now = i * STEP_NS;
    let client = i % GOOD_CLIENTS;
    assert_eq!(plane.admit(client, now), Admission::Admit);
    plane.observe_ok((client % 2) as usize, client, OK_LATENCY_NS, now);
}

fn fault_the_offender(plane: &mut ControlPlane, i: u64) {
    let _ = plane.observe_fault(0, OFFENDER, 200_000, i * STEP_NS, 1 << 20, 8);
}

#[test]
fn a_warm_plane_admits_and_observes_without_allocating() {
    let mut plane = ControlPlane::new(ControlConfig::default());
    // Warm-up: both latency windows (256 samples) fill and wrap, the
    // offender's reputation and ladder records exist, and the decision
    // log (65 536 retained) is past its retention, so it evicts on
    // every further decision.
    let warm = 70_000;
    for i in 0..warm {
        serve_one_benign(&mut plane, i);
        if i % 64 == 0 {
            fault_the_offender(&mut plane, i);
        }
    }

    count_allocs_on_this_thread(true);
    let before = counted_allocs();
    for i in warm..warm + 10_000 {
        serve_one_benign(&mut plane, i);
        fault_the_offender(&mut plane, i);
    }
    let allocs = counted_allocs() - before;
    count_allocs_on_this_thread(false);
    assert_eq!(
        allocs, 0,
        "10 000 x (admit + observe_ok + observe_fault) on a warm plane must not allocate"
    );
}
