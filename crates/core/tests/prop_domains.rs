//! Property tests for the domain runtime: whatever a domain does, the
//! process survives and isolation invariants hold.

use std::cell::Cell;
use std::sync::Once;

use proptest::prelude::*;
use sdrad::{DomainConfig, DomainEnv, DomainError, DomainManager, Fault, VirtAddr};

/// One attack/benign action a domain may perform.
#[derive(Debug, Clone)]
enum Action {
    PushBytes(Vec<u8>),
    FreeLive(usize),
    DoubleFree(usize),
    OverflowBlock(usize),
    WildRead(u64),
    WildWrite(u64),
    Abort(String),
    HugeAlloc,
}

/// The actions that build, free and overflow heap blocks.
fn arb_heap_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Action::PushBytes),
        (0usize..8).prop_map(Action::FreeLive),
        (0usize..8).prop_map(Action::DoubleFree),
        (0usize..8).prop_map(Action::OverflowBlock),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_heap_action(),
        arb_heap_action(),
        arb_heap_action(),
        arb_heap_action(),
        (0u64..0x10_0000).prop_map(Action::WildRead),
        (0u64..0x10_0000).prop_map(Action::WildWrite),
        "[a-z]{1,12}".prop_map(Action::Abort),
        Just(Action::HugeAlloc),
    ]
}

/// Runs `script` with the trapping methods: the first fault unwinds to
/// the domain boundary.
fn run_trapping(env: &mut DomainEnv<'_>, script: &[Action]) {
    let mut live: Vec<VirtAddr> = Vec::new();
    let mut freed: Vec<VirtAddr> = Vec::new();
    for action in script {
        match action {
            Action::PushBytes(data) => live.push(env.push_bytes(data)),
            Action::FreeLive(i) => {
                if !live.is_empty() {
                    let addr = live.remove(i % live.len());
                    env.free(addr);
                    freed.push(addr);
                }
            }
            Action::DoubleFree(i) => {
                if !freed.is_empty() {
                    env.free(freed[i % freed.len()]); // traps
                }
            }
            Action::OverflowBlock(i) => {
                if !live.is_empty() {
                    let addr = live[i % live.len()];
                    let size = env.block_size(addr).unwrap_or(0);
                    // Write well past the payload: smashes the canary or
                    // leaves the region (both fault paths are valid
                    // detections).
                    env.write(addr.offset(size), &[0x41; 24]);
                }
            }
            Action::WildRead(a) => env.read(VirtAddr::new(*a), &mut [0u8; 4]), // traps
            Action::WildWrite(a) => env.write(VirtAddr::new(*a), &[0xFF; 4]),  // traps
            Action::Abort(reason) => env.abort(reason.as_str()),
            Action::HugeAlloc => {
                let _ = env.alloc(1 << 30); // quota trap
            }
        }
    }
}

/// [`run_trapping`] with the `try_*` methods: each fault goes to the
/// boundary as a value, through `?`.
fn run_try(env: &mut DomainEnv<'_>, script: &[Action]) -> Result<(), Fault> {
    let mut live: Vec<VirtAddr> = Vec::new();
    let mut freed: Vec<VirtAddr> = Vec::new();
    for action in script {
        match action {
            Action::PushBytes(data) => live.push(env.try_push_bytes(data)?),
            Action::FreeLive(i) => {
                if !live.is_empty() {
                    let addr = live.remove(i % live.len());
                    env.try_free(addr)?;
                    freed.push(addr);
                }
            }
            Action::DoubleFree(i) => {
                if !freed.is_empty() {
                    env.try_free(freed[i % freed.len()])?;
                }
            }
            Action::OverflowBlock(i) => {
                if !live.is_empty() {
                    let addr = live[i % live.len()];
                    let size = env.block_size(addr).unwrap_or(0);
                    env.try_write(addr.offset(size), &[0x41; 24])?;
                }
            }
            Action::WildRead(a) => env.try_read(VirtAddr::new(*a), &mut [0u8; 4])?,
            Action::WildWrite(a) => env.try_write(VirtAddr::new(*a), &[0xFF; 4])?,
            Action::Abort(reason) => {
                return Err(Fault::ExplicitAbort {
                    reason: reason.clone(),
                })
            }
            Action::HugeAlloc => {
                env.try_alloc(1 << 30)?;
            }
        }
    }
    Ok(())
}

thread_local! {
    /// Whether this thread's panics are being counted (and silenced).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Panics raised on this thread while counting.
    static PANICS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f`, returning its value and the panics it raised on this
/// thread — caught ones included. Other threads' panics, and this
/// thread's outside `f`, reach the previous hook untouched.
fn count_panics<R>(f: impl FnOnce() -> R) -> (R, u64) {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if COUNTING.with(Cell::get) {
                PANICS.with(|p| p.set(p.get() + 1));
            } else {
                previous(info);
            }
        }));
    });
    let before = PANICS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (value, PANICS.with(Cell::get) - before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The resilience property at the heart of the paper: *no sequence of
    /// domain-internal actions, malicious or benign, can prevent the next
    /// call from succeeding*. Every fault is contained, rewound, and the
    /// domain is reusable.
    #[test]
    fn process_survives_any_domain_behaviour(
        scripts in proptest::collection::vec(
            proptest::collection::vec(arb_action(), 1..12),
            1..8,
        )
    ) {
        let mut mgr = DomainManager::new();
        let id = mgr
            .create_domain(DomainConfig::new("fuzzed").heap_capacity(32 * 1024))
            .unwrap();

        for script in &scripts {
            let _ = mgr.call(id, |env| run_trapping(env, script));

            // THE invariant: after any outcome, a fresh benign call works.
            let probe = mgr.call(id, |env| {
                let addr = env.push_bytes(b"probe");
                env.read_bytes(addr, 5)
            });
            prop_assert_eq!(probe.unwrap(), b"probe".to_vec());
        }
    }

    /// Faults travel as values: a script run through `call` with the
    /// trapping methods and through `try_call` with `try_*` + `?` ends in
    /// the same fault, the same domain counters and the same heap. Only
    /// the trapping run panics — once per fault raised inside the
    /// closure (a corruption the exit sweep finds raises none on
    /// either path). Scripts lean on heap actions, so most build and
    /// free blocks before they fault, or reach the exit sweep.
    #[test]
    fn returned_faults_match_trapped_faults(
        scripts in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![arb_heap_action(), arb_heap_action(), arb_heap_action(), arb_action()],
                1..12,
            ),
            1..8,
        )
    ) {
        let config = DomainConfig::new("fuzzed").heap_capacity(32 * 1024);
        let mut trapping = DomainManager::new();
        let mut valued = DomainManager::new();
        let trapping_id = trapping.create_domain(config.clone()).unwrap();
        let valued_id = valued.create_domain(config).unwrap();

        for script in &scripts {
            let mut closure_faulted = false;
            let (valued_result, valued_panics) = count_panics(|| {
                valued.try_call(valued_id, |env| {
                    let outcome = run_try(env, script);
                    closure_faulted = outcome.is_err();
                    outcome
                })
            });
            let (trapped_result, trapped_panics) =
                count_panics(|| trapping.call(trapping_id, |env| run_trapping(env, script)));

            prop_assert_eq!(valued_panics, 0);
            prop_assert_eq!(trapped_panics, u64::from(closure_faulted));
            prop_assert_eq!(
                valued_result.as_ref().err().and_then(DomainError::fault),
                trapped_result.as_ref().err().and_then(DomainError::fault)
            );
            let valued_info = valued.domain_info(valued_id).unwrap();
            let trapped_info = trapping.domain_info(trapping_id).unwrap();
            prop_assert_eq!(valued_info.calls, trapped_info.calls);
            prop_assert_eq!(valued_info.violations, trapped_info.violations);
            prop_assert_eq!(valued_info.last_fault, trapped_info.last_fault);
            prop_assert_eq!(valued_info.heap, trapped_info.heap);
        }
    }

    /// A faulting domain never perturbs data held by *another* domain.
    #[test]
    fn sibling_domain_data_survives_attacks(
        secret in proptest::collection::vec(any::<u8>(), 1..128),
        attacks in proptest::collection::vec(arb_action(), 1..16),
    ) {
        let mut mgr = DomainManager::new();
        let victim = mgr.create_domain(DomainConfig::new("victim")).unwrap();
        let attacker = mgr.create_domain(DomainConfig::new("attacker")).unwrap();

        let secret_cloned = secret.clone();
        let addr = mgr
            .call(victim, move |env| env.push_bytes(&secret_cloned))
            .unwrap();

        let attacks = attacks.clone();
        let _ = mgr.call(attacker, move |env| {
            for action in attacks {
                match action {
                    Action::PushBytes(data) => {
                        env.push_bytes(&data);
                    }
                    Action::WildWrite(_) | Action::OverflowBlock(_) => {
                        // Aim directly at the victim's secret.
                        env.write(addr, &[0x66; 8]);
                    }
                    Action::WildRead(_) => {
                        env.read(addr, &mut [0u8; 1]);
                    }
                    _ => {}
                }
            }
        });

        let len = secret.len();
        let back = mgr.call(victim, move |env| env.read_bytes(addr, len)).unwrap();
        prop_assert_eq!(back, secret);
    }

    /// Rewind counters equal the number of faulting calls, and every
    /// violation carries a fault classified as such.
    #[test]
    fn accounting_matches_outcomes(outcomes in proptest::collection::vec(any::<bool>(), 1..40)) {
        let mut mgr = DomainManager::new();
        let id = mgr.create_domain(DomainConfig::new("counted")).unwrap();
        let mut expected_faults = 0u64;
        for should_fault in &outcomes {
            let should_fault = *should_fault;
            let result = mgr.call(id, move |env| {
                let a = env.push_bytes(b"data");
                if should_fault {
                    env.free(a);
                    env.free(a);
                }
            });
            if should_fault {
                expected_faults += 1;
                let err = result.unwrap_err();
                let is_double_free = matches!(err.fault(), Some(Fault::DoubleFree { .. }));
                prop_assert!(is_double_free);
            } else {
                prop_assert!(result.is_ok());
            }
        }
        let info = mgr.domain_info(id).unwrap();
        prop_assert_eq!(info.violations, expected_faults);
        prop_assert_eq!(info.calls, outcomes.len() as u64);
        prop_assert_eq!(mgr.total_rewinds(), expected_faults);
    }
}
