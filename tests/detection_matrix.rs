//! The detection matrix: every attack class × every policy, with fault
//! history checked, plus the boundary's own guarantees: the caller's
//! rights restored after every call, escapes contained with the domain
//! still serving, a sibling's heap unreadable, and a rewound domain's
//! bytes discarded.

use sdrad_repro::core::{DomainConfig, DomainManager, DomainPolicy, Fault};
use sdrad_repro::faultsim::{inject, Attack, StackFrame};
use sdrad_repro::mpk::current_pkru;

#[test]
fn every_attack_is_contained_under_every_policy() {
    sdrad_repro::quiet_fault_traps();
    for policy in [DomainPolicy::Integrity, DomainPolicy::Confidential] {
        let mut mgr = DomainManager::new();
        let _victim = mgr
            .create_domain(DomainConfig::new("victim").heap_capacity(16 * 1024))
            .unwrap();
        let attacker = mgr
            .create_domain(
                DomainConfig::new("attacker")
                    .heap_capacity(512 * 1024)
                    .policy(policy),
            )
            .unwrap();
        for attack in Attack::ALL {
            let result = mgr.call(attacker, move |env| inject(env, attack));
            assert!(result.is_err(), "{attack} undetected under {policy} policy");
        }
        let info = mgr.domain_info(attacker).unwrap();
        assert_eq!(info.violations, Attack::ALL.len() as u64);
        assert_eq!(info.calls, Attack::ALL.len() as u64);
    }
}

#[test]
fn event_log_reconstructs_the_attack_history() {
    sdrad_repro::quiet_fault_traps();
    let mut mgr = DomainManager::new();
    let _victim = mgr.create_domain(DomainConfig::new("victim")).unwrap();
    let attacker = mgr.create_domain(DomainConfig::new("attacker")).unwrap();

    // The history is what the boundary returned, in order, plus the
    // domain's own counters.
    let kinds: Vec<&str> = [Attack::HeapOverflow, Attack::WildRead, Attack::DoubleFree]
        .into_iter()
        .map(|attack| {
            let err = mgr
                .call(attacker, move |env| inject(env, attack))
                .unwrap_err();
            err.fault().expect("a contained violation").kind()
        })
        .collect();
    assert_eq!(kinds, vec!["canary-corruption", "unmapped", "double-free"]);

    let info = mgr.domain_info(attacker).unwrap();
    assert_eq!(info.violations, 3);
    assert_eq!(
        info.calls, 3,
        "every call ended in a rewind, none in a crash"
    );
    assert_eq!(
        info.last_fault.as_ref().map(Fault::kind),
        Some("double-free")
    );
}

#[test]
fn every_call_restores_the_callers_rights_whatever_its_outcome() {
    sdrad_repro::quiet_fault_traps();
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("counted")).unwrap();
    let caller = current_pkru();
    for i in 0..10 {
        let _ = mgr.call(domain, move |env| {
            let block = env.push_bytes(b"data");
            env.free(block);
            if i % 2 == 0 {
                env.free(block); // fault on even calls
            }
        });
        assert_eq!(current_pkru(), caller, "call {i} left the domain's rights");
    }
    // Each call is one switch in and one out, so the switch count is
    // twice `calls`, faulting or not.
    let info = mgr.domain_info(domain).unwrap();
    assert_eq!((info.calls, info.violations), (10, 5));
}

#[test]
fn stack_frames_compose_with_other_detections() {
    sdrad_repro::quiet_fault_traps();
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("frames")).unwrap();

    // Clean nested frames with heap traffic in between.
    mgr.call(domain, |env| {
        let outer = StackFrame::enter(env, "outer", 64);
        let heap_block = env.push_bytes(b"heap-data");
        let inner = StackFrame::enter(env, "inner", 32);
        inner.exit(env);
        assert_eq!(env.read_bytes(heap_block, 9), b"heap-data");
        env.free(heap_block);
        outer.exit(env);
    })
    .unwrap();

    // A smashed inner frame unwinds through the outer frame safely.
    let err = mgr
        .call(domain, |env| {
            let _outer = StackFrame::enter(env, "outer", 64);
            let inner = StackFrame::enter(env, "inner", 8);
            inner.unchecked_write(env, 0, &[0u8; 32]);
            inner.exit(env);
        })
        .unwrap_err();
    assert!(matches!(
        err.fault(),
        Some(sdrad_repro::Fault::StackSmash { frame }) if *frame == "inner"
    ));
    // Reusable afterwards.
    assert!(mgr.call(domain, |env| env.push_bytes(b"ok")).is_ok());
}

#[test]
fn fifteen_domain_limit_is_enforced_and_recyclable() {
    sdrad_repro::quiet_fault_traps();
    let mut mgr = DomainManager::new();
    let domains: Vec<_> = (0..15)
        .map(|i| {
            mgr.create_domain(DomainConfig::new(format!("d{i}")).heap_capacity(4096))
                .unwrap()
        })
        .collect();
    assert!(mgr.create_domain(DomainConfig::new("overflow")).is_err());
    // Destroying any domain frees its key for a new one.
    mgr.destroy_domain(domains[7]).unwrap();
    assert!(mgr.create_domain(DomainConfig::new("replacement")).is_ok());
}

/// The escape classes an isolation boundary must contain: a write past
/// the end of the domain heap, a read past it, and a runaway request the
/// watchdog aborts (MPK has no fuel meter, so the abort is the model).
#[derive(Debug, Clone, Copy)]
enum Escape {
    LinearOverflow,
    OverRead,
    RunawayLoop,
}

#[test]
fn mpk_contains_every_attack_class_and_keeps_serving() {
    let mut mgr = DomainManager::new();
    let domain = mgr
        .create_domain(DomainConfig::new("victim").heap_capacity(64 * 1024))
        .unwrap();

    let escapes = [
        Escape::LinearOverflow,
        Escape::OverRead,
        Escape::RunawayLoop,
    ];
    for escape in escapes {
        let result = mgr.try_call(domain, |env| match escape {
            Escape::LinearOverflow => {
                let buf = env.try_alloc(16)?;
                env.try_write(buf.offset(env.heap_region().len()), &[0x41])
            }
            Escape::OverRead => {
                let buf = env.try_push_bytes(b"rec")?;
                env.try_read_bytes(buf, env.heap_region().len() + 64)
                    .map(drop)
            }
            Escape::RunawayLoop => Err(Fault::ExplicitAbort {
                reason: "watchdog: request deadline exceeded".into(),
            }),
        });
        assert!(result.is_err(), "{escape:?} must be contained");
        // Service continues after every containment.
        let ok = mgr
            .try_call(domain, |env| {
                let buf = env.try_push_bytes(b"alive")?;
                env.try_read_bytes(buf, 5)
            })
            .unwrap();
        assert_eq!(ok, b"alive");
    }
    assert_eq!(mgr.total_rewinds() as usize, escapes.len());
}

#[test]
fn confidential_sibling_heap_is_unreadable_from_another_domain() {
    let mut mgr = DomainManager::new();
    let secrets = mgr
        .create_domain(DomainConfig::new("secrets").policy(DomainPolicy::Confidential))
        .unwrap();
    let attacker = mgr.create_domain(DomainConfig::new("attacker")).unwrap();
    let secret = mgr
        .try_call(secrets, |env| env.try_push_bytes(b"tls-master-key"))
        .unwrap();

    let theft = mgr.try_call(attacker, |env| env.try_read_bytes(secret, 14));
    assert!(theft.is_err(), "cross-domain read must fault");
    // The attacker's rewind discards the attacker only.
    let kept = mgr
        .try_call(secrets, |env| env.try_read_bytes(secret, 14))
        .unwrap();
    assert_eq!(kept, b"tls-master-key");
}

#[test]
fn rewind_discards_the_pre_fault_bytes() {
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("victim")).unwrap();
    let addr = mgr
        .try_call(domain, |env| env.try_push_bytes(b"pre-fault-secret"))
        .unwrap();
    let wild = mgr.try_call(domain, |env| {
        env.try_write(env.heap_region().base().offset(1 << 30), &[1])
    });
    assert!(wild.is_err(), "a wild write must fault");

    // Either the address is gone (fresh heap) or its contents are wiped;
    // both prove the discard. It must NOT return the secret.
    if let Ok(bytes) = mgr.try_call(domain, |env| env.try_read_bytes(addr, 16)) {
        assert_ne!(bytes, b"pre-fault-secret");
    }
}
