//! Per-layer timings, taken from outside: each metric times calls into
//! one crate's public functions over the workload's own generated
//! bytes. A value is the median of [`BATCHES`] batch means.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdrad::{ClientId, DomainConfig, DomainManager, DomainPolicy, DomainPool};
use sdrad_control::ControlPlane;
use sdrad_kvstore::{apply_op, parse_command, process_unprotected_command, stage_command, Command};
use sdrad_nolock::{Bounded, FrameBuf, HazardDomain, MpscQueue, Shared, SpscRing, WaitSlot};
use sdrad_runtime::{
    HttpHandler, IsolationMode, KvHandler, LatencyHistogram, Request, Runtime, RuntimeConfig,
    SessionHandler, ShardQueue, SubmitOutcome, WorkerIsolation,
};
use sdrad_telemetry::{EventKind, LogicalClock, Recorder, Source, TraceRing};

use crate::hist::median;
use crate::report::Metric;
use crate::workloads::{
    hostile_control, http_handler, page_for, preload, preloaded_kv_handler, Tape, KEY_SPACE,
    WORKERS,
};

pub const BATCHES: usize = 5;
/// Iterations per metric, over all batches.
pub const ITERATIONS: usize = 100_000;
/// Cross-thread hand-offs cost tens of microseconds each and need a
/// settling pause before each so the waiter is really parked: a fifth of
/// the iterations keeps the traced run inside its time budget.
pub const SLOW_ITERATIONS: usize = 20_000;

const PER_BATCH: usize = ITERATIONS / BATCHES;

/// Median over the batches of what `batch` returns (ns per operation).
fn batches(mut batch: impl FnMut(usize) -> f64) -> f64 {
    let values: Vec<f64> = (0..BATCHES).map(&mut batch).collect();
    median(&values)
}

/// Times `op` in a loop; `op` gets a running index.
fn looped(mut op: impl FnMut(usize)) -> f64 {
    batches(|batch| {
        let started = Instant::now();
        for i in 0..PER_BATCH {
            op(batch * PER_BATCH + i);
        }
        started.elapsed().as_nanos() as f64 / PER_BATCH as f64
    })
}

fn ns(duration: Duration) -> f64 {
    duration.as_nanos() as f64
}

struct Out(Vec<Metric>);

impl Out {
    fn ns(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.push(Metric::new(name, value, "ns", samples as u64));
    }
}

/// Runs every timed per-layer metric. Runs on a thread of its own so the
/// frame arena it arms (as a worker would) and every other thread-local
/// die with it.
pub fn timed_layers(seed: u64) -> Vec<Metric> {
    std::thread::Builder::new()
        .name("bench-layers".into())
        .spawn(move || {
            sdrad::quiet_fault_traps();
            sdrad_nolock::arena::set_thread_pooling(true);
            let kv = Tape::kv(seed, KEY_SPACE);
            let http = Tape::http(seed);
            let page = page_for(seed);
            let mut out = Out(Vec::new());
            net(&kv, &mut out);
            nolock(&mut out);
            core(&mut out);
            kvstore(&kv, &mut out);
            httpd(&http, &page, &mut out);
            runtime(&kv, &http, &page, &mut out);
            control(&mut out);
            telemetry(&mut out);
            out.0
        })
        .expect("spawn layer thread")
        .join()
        .expect("layer timings panicked")
}

fn net(kv: &Tape, out: &mut Out) {
    // Writes and reads are timed in runs of LANES calls over LANES
    // connections, so one timer pair is amortised over 64 operations
    // and every read finds exactly one request pending.
    const LANES: usize = 64;
    let rounds = PER_BATCH / LANES;
    let mut sink = Vec::with_capacity(1 << 15);
    let mut phases = |ready: bool| -> (f64, f64) {
        let mut pairs: Vec<_> = (0..LANES).map(|_| sdrad_net::duplex()).collect();
        let fired = Arc::new(AtomicU64::new(0));
        if ready {
            for (_, reader) in &mut pairs {
                let fired = Arc::clone(&fired);
                reader.set_ready_callback(Arc::new(move || {
                    fired.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        for batch in 0..BATCHES {
            let (mut write, mut read) = (Duration::ZERO, Duration::ZERO);
            for round in 0..rounds {
                let (request, _) = kv.get(batch * rounds + round);
                let t0 = Instant::now();
                for (writer, _) in &mut pairs {
                    writer.write(request);
                }
                let t1 = Instant::now();
                for (_, reader) in &mut pairs {
                    sink.clear();
                    black_box(reader.read_available_into(&mut sink));
                }
                write += t1 - t0;
                read += t1.elapsed();
            }
            let ops = (rounds * LANES) as f64;
            writes.push(ns(write) / ops);
            reads.push(ns(read) / ops);
        }
        (median(&writes), median(&reads))
    };
    let (write, read) = phases(false);
    let (write_ready, _) = phases(true);
    out.ns("net.write_ns", write, ITERATIONS);
    out.ns("net.write_ready_ns", write_ready, ITERATIONS);
    out.ns("net.read_ns", read, ITERATIONS);

    const KIB: usize = 16;
    let payload = vec![0x5Au8; KIB * 1024];
    let (mut writer, mut reader) = sdrad_net::duplex();
    let copy = looped(|_| {
        writer.write(&payload);
        sink.clear();
        black_box(reader.read_available_into(&mut sink));
    });
    out.ns("net.copy_ns_per_kib", copy / KIB as f64, ITERATIONS);
}

fn nolock(out: &mut Out) {
    let mpsc = MpscQueue::new();
    out.ns(
        "nolock.mpsc_push_pop_ns",
        looped(|i| {
            let _ = mpsc.push(i);
            black_box(mpsc.pop());
        }),
        ITERATIONS,
    );
    let spsc = SpscRing::new(64);
    out.ns(
        "nolock.spsc_push_pop_ns",
        looped(|i| {
            let _ = spsc.push(i);
            black_box(spsc.pop());
        }),
        ITERATIONS,
    );
    let mpmc = Bounded::new(64);
    out.ns(
        "nolock.mpmc_push_pop_ns",
        looped(|i| {
            let _ = mpmc.push(i);
            black_box(mpmc.pop());
        }),
        ITERATIONS,
    );
    out.ns(
        "nolock.arena_acquire_drop_ns",
        looped(|_| drop(black_box(FrameBuf::acquire(64)))),
        ITERATIONS,
    );
    out.ns(
        "nolock.arena_acquire_drop_16k_ns",
        looped(|_| drop(black_box(FrameBuf::acquire(16 * 1024)))),
        ITERATIONS,
    );
    out.ns("nolock.waitslot_wake_ns", waitslot_wake(), SLOW_ITERATIONS);

    let domain = Arc::new(HazardDomain::new());
    let shared = Shared::new(Box::new(0usize), &domain);
    let mut guard = domain.guard();
    out.ns(
        "nolock.hazard_load_ns",
        looped(|_| {
            guard.reset();
            black_box(*shared.load(&mut guard));
        }),
        ITERATIONS,
    );
    drop(guard);
    // Each store retires the value it replaces; every 64th retire runs
    // the reclamation scan, so this is retire plus its share of a scan.
    out.ns(
        "nolock.hazard_retire_reclaim_ns",
        looped(|i| shared.store(Box::new(i))),
        ITERATIONS,
    );
}

/// Cross-thread `notify` to `wait_until` returning, with the waiter
/// given time to really park first (an unparked waiter would only
/// measure a flag check). Per-batch medians, not means: a preempted
/// waiter is the host's cost, not `WaitSlot`'s.
fn waitslot_wake() -> f64 {
    const SETTLE: Duration = Duration::from_micros(30);
    let slot = WaitSlot::new();
    let round = AtomicU64::new(0); // bumped by the notifier
    let waiting = AtomicU64::new(0); // round the waiter is about to wait for
    let woke_at = AtomicU64::new(0); // ns on the shared clock
    let clock = Instant::now();
    let total = SLOW_ITERATIONS as u64;
    let mut wakes = Vec::with_capacity(SLOW_ITERATIONS);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for target in 1..=total {
                waiting.store(target, Ordering::Release);
                slot.wait_until(None, || round.load(Ordering::Acquire) >= target);
                woke_at.store(ns(clock.elapsed()) as u64, Ordering::Release);
            }
        });
        for target in 1..=total {
            while waiting.load(Ordering::Acquire) < target {
                std::hint::spin_loop();
            }
            let settle = Instant::now();
            while settle.elapsed() < SETTLE {
                std::hint::spin_loop();
            }
            woke_at.store(0, Ordering::Release);
            let notified = ns(clock.elapsed()) as u64;
            round.store(target, Ordering::Release);
            slot.notify();
            let woke = loop {
                match woke_at.load(Ordering::Acquire) {
                    0 => std::hint::spin_loop(),
                    at => break at,
                }
            };
            wakes.push(woke.saturating_sub(notified) as f64);
        }
    });
    let per_batch = SLOW_ITERATIONS / BATCHES;
    batches(|batch| median(&wakes[batch * per_batch..(batch + 1) * per_batch]))
}

fn bench_domain(mgr: &mut DomainManager) -> sdrad::DomainId {
    mgr.create_domain(
        DomainConfig::new("bench")
            .heap_capacity(1 << 20)
            .policy(DomainPolicy::Integrity),
    )
    .expect("a fresh manager has keys")
}

fn core(out: &mut Out) {
    let mut mgr = DomainManager::new();
    let domain = bench_domain(&mut mgr);
    out.ns(
        "core.domain_call_ns",
        looped(|_| {
            let _ = black_box(mgr.call(domain, |_| ()));
        }),
        ITERATIONS,
    );
    let mut pool = DomainPool::new(DomainConfig::new("bench-pool"), 8);
    out.ns(
        "core.pool_lookup_ns",
        looped(|i| {
            let _ = black_box(pool.domain_for(&mut mgr, ClientId(i as u64 % 8)));
        }),
        ITERATIONS,
    );
    // Heap operations need a `DomainEnv`: one domain call per batch, the
    // loop inside it, so enter/exit is paid once per 20 000 operations.
    let in_domain = |mgr: &mut DomainManager, op: &mut dyn FnMut(&mut sdrad::DomainEnv<'_>)| {
        batches(|_| {
            let started = Instant::now();
            mgr.call(domain, |env| {
                for _ in 0..PER_BATCH {
                    op(env);
                }
            })
            .expect("benign heap traffic does not fault");
            ns(started.elapsed()) / PER_BATCH as f64
        })
    };
    out.ns(
        "core.alloc_free_ns",
        in_domain(&mut mgr, &mut |env| {
            let block = env.alloc(64);
            env.free(black_box(block));
        }),
        ITERATIONS,
    );
    const KIB: usize = 4;
    let payload = vec![0xA5u8; KIB * 1024];
    let copy = in_domain(&mut mgr, &mut |env| {
        let staged = env.push_bytes(&payload);
        black_box(env.read_bytes(staged, payload.len()));
        env.free(staged);
    });
    out.ns("core.copy_in_out_ns_per_kib", copy / KIB as f64, ITERATIONS);
    // The whole faulting call: enter, trap, unwind to the boundary,
    // discard the heap, restore rights.
    out.ns(
        "core.rewind_ns",
        looped(|_| {
            let result = mgr.call(domain, |env| -> () { env.abort("bench") });
            assert!(black_box(result).is_err());
        }),
        ITERATIONS,
    );
}

fn kv_commands(kv: &Tape, batch: usize) -> Vec<Command<'_>> {
    (0..PER_BATCH)
        .map(|i| {
            parse_command(kv.get(batch * PER_BATCH + i).0)
                .expect("tape parses")
                .0
        })
        .collect()
}

fn kvstore(kv: &Tape, out: &mut Out) {
    out.ns(
        "kvstore.parse_ns",
        looped(|i| {
            let _ = black_box(parse_command(kv.get(i).0));
        }),
        ITERATIONS,
    );
    let mut mgr = DomainManager::new();
    let domain = bench_domain(&mut mgr);
    let stage = batches(|batch| {
        let commands = kv_commands(kv, batch);
        let started = Instant::now();
        mgr.call(domain, |env| {
            for &command in &commands {
                black_box(stage_command(env, command));
            }
        })
        .expect("benign commands do not fault");
        ns(started.elapsed()) / PER_BATCH as f64
    });
    out.ns("kvstore.stage_ns", stage, ITERATIONS);
    let mut store = sdrad_kvstore::Store::new(sdrad_kvstore::StoreConfig::default());
    preload(&mut store, KEY_SPACE);
    let apply = batches(|batch| {
        let ops: Vec<_> = kv_commands(kv, batch)
            .into_iter()
            .map(|command| process_unprotected_command(command).expect("benign"))
            .collect();
        let started = Instant::now();
        for op in ops {
            black_box(apply_op(&mut store, op));
        }
        ns(started.elapsed()) / PER_BATCH as f64
    });
    out.ns("kvstore.apply_ns", apply, ITERATIONS);
}

fn httpd(http: &Tape, page: &[u8], out: &mut Out) {
    use sdrad_httpd::{decode_chunked_in_domain, parse_request, HttpServer, Isolation};
    out.ns(
        "httpd.parse_ns",
        looped(|i| {
            let _ = black_box(parse_request(http.get(i).0));
        }),
        ITERATIONS,
    );
    let mut server = HttpServer::new(Isolation::None).expect("no-isolation server");
    server.publish("/", "text/html", page.to_vec());
    let (get, _) = parse_request(&sdrad_faultsim::workload::http_get_request("/")).expect("get");
    out.ns(
        "httpd.respond_ns",
        looped(|_| {
            black_box(server.respond(&get));
        }),
        ITERATIONS,
    );
    let upload = sdrad_faultsim::workload::http_upload_request(4, 1024);
    let (upload, _) = parse_request(&upload).expect("upload");
    let mut mgr = DomainManager::new();
    let domain = bench_domain(&mut mgr);
    let decode = batches(|_| {
        let started = Instant::now();
        mgr.call(domain, |env| {
            for _ in 0..PER_BATCH {
                black_box(decode_chunked_in_domain(env, &upload.body));
            }
        })
        .expect("benign upload does not fault");
        ns(started.elapsed()) / PER_BATCH as f64
    });
    out.ns("httpd.decode_chunked_ns_per_kib", decode / 4.0, ITERATIONS);
}

fn runtime(kv: &Tape, http: &Tape, page: &[u8], out: &mut Out) {
    let mut handler = preloaded_kv_handler(KEY_SPACE);
    out.ns(
        "runtime.frame_ns",
        looped(|i| {
            black_box(handler.frame(kv.get(i).0));
        }),
        ITERATIONS,
    );
    out.ns(
        "runtime.steal_class_ns",
        looped(|i| {
            black_box(handler.steal_class(kv.get(i).0));
        }),
        ITERATIONS,
    );
    let client = ClientId(1);
    let mut isolated = WorkerIsolation::new(IsolationMode::PerClientDomain, 8, 1 << 20);
    out.ns(
        "runtime.handle_ns",
        looped(|i| {
            black_box(handler.handle(&mut isolated, client, kv.get(i).0));
        }),
        ITERATIONS,
    );
    let mut baseline = WorkerIsolation::new(IsolationMode::Baseline, 8, 1 << 20);
    out.ns(
        "runtime.handle_baseline_ns",
        looped(|i| {
            black_box(handler.handle(&mut baseline, client, kv.get(i).0));
        }),
        ITERATIONS,
    );
    let mut pages: HttpHandler = http_handler(page);
    out.ns(
        "runtime.http_frame_ns",
        looped(|i| {
            black_box(pages.frame(http.get(i).0));
        }),
        ITERATIONS,
    );
    out.ns(
        "runtime.http_handle_ns",
        looped(|i| {
            black_box(pages.handle(&mut isolated, client, http.get(i).0));
        }),
        ITERATIONS,
    );

    const BURST: usize = 32;
    let queue = ShardQueue::new(1024);
    let push_pop = batches(|batch| {
        let started = Instant::now();
        for burst in 0..PER_BATCH / BURST {
            for i in 0..BURST {
                let (request, _) = kv.get(batch * PER_BATCH + burst * BURST + i);
                assert!(queue.try_push(Request::new(client, request.to_vec(), None)));
            }
            black_box(queue.pop_batch(BURST));
        }
        ns(started.elapsed()) / (PER_BATCH / BURST * BURST) as f64
    });
    out.ns("runtime.queue_push_pop_ns", push_pop, ITERATIONS);

    // Submit to an idle runtime and wait: queue push, worker wake,
    // handler, completion ring, submitter wake.
    let idle = Runtime::start(
        RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain),
        |_| KvHandler::default(),
    );
    let per_batch = SLOW_ITERATIONS / BATCHES;
    let submit_wait = batches(|_| {
        let mut round_trips = Vec::with_capacity(per_batch);
        for i in 0..per_batch {
            let started = Instant::now();
            let SubmitOutcome::Enqueued(ticket) =
                idle.submit(ClientId(i as u64 % 2), b"get key-1\r\n".to_vec())
            else {
                panic!("an idle runtime shed a request");
            };
            black_box(ticket.wait());
            round_trips.push(ns(started.elapsed()));
        }
        median(&round_trips)
    });
    let _ = idle.shutdown();
    out.ns("runtime.submit_wait_ns", submit_wait, SLOW_ITERATIONS);
}

fn control(out: &mut Out) {
    let mut plane = ControlPlane::new(hostile_control());
    // The plane is clock-injected: 10 µs of logical time per decision.
    let tick = |i: usize| i as u64 * 10_000;
    out.ns(
        "control.admit_ns",
        looped(|i| {
            black_box(plane.admit(i as u64 % 64, tick(i)));
        }),
        ITERATIONS,
    );
    out.ns(
        "control.observe_ok_ns",
        looped(|i| plane.observe_ok(i % WORKERS, i as u64 % 64, 20_000, tick(ITERATIONS + i))),
        ITERATIONS,
    );
    out.ns(
        "control.observe_fault_ns",
        looped(|i| {
            let offender = 1_000_000 + i as u64 % 16_384;
            let now = tick(2 * ITERATIONS + i);
            black_box(plane.observe_fault(i % WORKERS, offender, 20_000, now, 1 << 20, 8));
        }),
        ITERATIONS,
    );
}

fn telemetry(out: &mut Out) {
    let off = Recorder::Off;
    out.ns(
        "telemetry.emit_off_ns",
        looped(|i| black_box(&off).emit(EventKind::Submit, 0, i as u64, 64)),
        ITERATIONS,
    );
    // One batch fits the ring; it is drained between batches, untimed,
    // so the emit path never sees overflow or the sampler's pressure arm.
    let ring = Arc::new(TraceRing::new(PER_BATCH.next_power_of_two() * 2));
    let on = Recorder::on(Arc::clone(&ring), LogicalClock::new(), Source::Dispatcher);
    let emit_on = batches(|_| {
        let started = Instant::now();
        for i in 0..PER_BATCH {
            on.emit(EventKind::Submit, 0, i as u64, 64);
        }
        let elapsed = started.elapsed();
        black_box(ring.drain());
        ns(elapsed) / PER_BATCH as f64
    });
    out.ns("telemetry.emit_on_ns", emit_on, ITERATIONS);
    let mut histogram = LatencyHistogram::new();
    out.ns(
        "telemetry.hist_record_ns",
        looped(|i| histogram.record(black_box(i as u64 * 37 % 1_000_000))),
        ITERATIONS,
    );
    black_box(histogram.len());
}
