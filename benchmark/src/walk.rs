//! The layer walk: one thread drives a seeded sample of a workload's
//! requests through the public functions of each layer in request
//! order, with a span around every call. The runtime's pump, queue
//! hand-off and scheduling are *not* walked — they are not public — and
//! that gap is what `trace.coverage` measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use sdrad::{ClientId, DomainError};
use sdrad_control::ControlPlane;
use sdrad_faultsim::workload::kv_exploit_request;
use sdrad_faultsim::{HostileMix, TrafficKind};
use sdrad_kvstore::{apply_op, parse_command, stage_command, Response};
use sdrad_nolock::FrameBuf;
use sdrad_runtime::{
    Framing, IsolationMode, KvHandler, Request, SessionHandler, ShardQueue, WorkerIsolation,
};
use sdrad_telemetry::{EventKind, LogicalClock, Recorder, Source, TraceRing};

use crate::validate::{split_http, split_kv, Split};
use crate::workloads::{
    hostile_control, hostile_mix, http_handler, page_for, preloaded_kv_handler, Expect, Tape,
    Workload, EXPLOIT_DECLARED, HOSTILE_KEY_SPACE, KEY_SPACE, VALUE_LEN,
};

/// Requests walked per workload.
pub const SAMPLE: usize = 2_000;
const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a request's root.
    pub parent: u32,
    pub request: u32,
}

/// In-memory span recorder: nothing is written until the walk is over.
pub struct Spans {
    clock: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Spans {
    fn new() -> Self {
        Spans {
            clock: Instant::now(),
            spans: Vec::with_capacity(SAMPLE * 16),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
    }

    fn end(&mut self) {
        self.end_to(self.open.len().saturating_sub(1));
    }

    /// Ends every span opened above `depth`. A contained fault unwinds
    /// out of the spans inside the domain call without ending them; they
    /// end with the span that caught the unwind.
    fn end_to(&mut self, depth: usize) {
        let now = self.now();
        while self.open.len() > depth {
            let index = self.open.pop().expect("length checked");
            self.spans[index as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let depth = self.open.len();
        self.begin(name);
        let result = f(self);
        self.end_to(depth);
        result
    }
}

/// A finished walk.
pub struct Walk {
    pub workload: Workload,
    pub seed: u64,
    pub requests: usize,
    pub spans: Vec<Span>,
}

impl Walk {
    /// Mean self time per request of every span name: a span's duration
    /// minus the durations of its direct children.
    pub fn self_time_ns_per_request(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let child = span.end_ns - span.start_ns;
                let parent = &mut self_ns[span.parent as usize];
                *parent = parent.saturating_sub(child);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(span.name).or_insert(0.0) += ns as f64;
        }
        for total in by_name.values_mut() {
            *total /= self.requests as f64;
        }
        by_name
    }

    /// Server-side self time per request: everything but the client's
    /// own spans and the request roots (whose self time is timer cost).
    pub fn server_ns_per_request(&self) -> f64 {
        self.self_time_ns_per_request()
            .iter()
            .filter(|(name, _)| !name.starts_with("client.") && **name != "request")
            .map(|(_, ns)| ns)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let mut json = String::with_capacity(self.spans.len() * 96);
        let _ = write!(
            json,
            "{{\"workload\":\"{}\",\"seed\":{},\"requests\":{},\"clock\":\"ns since the walk started\",\"self_time_ns_per_request\":{{",
            self.workload.name(),
            self.seed,
            self.requests
        );
        for (i, (name, ns)) in self.self_time_ns_per_request().iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(json, "{comma}\"{name}\":{ns:.1}");
        }
        json.push_str("},\"spans\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i == 0 { "" } else { ",\n" };
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                json,
                "{comma}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        json.push_str("\n]}\n");
        json
    }
}

pub fn walk(workload: Workload, seed: u64) -> Result<Walk, String> {
    sdrad::quiet_fault_traps();
    // The walking thread plays the worker: arm its frame arena as
    // `Runtime::start` arms a worker's. Own thread, so it dies with it.
    std::thread::Builder::new()
        .name("bench-walk".into())
        .spawn(move || {
            sdrad_nolock::arena::set_thread_pooling(true);
            let mut spans = Spans::new();
            match workload {
                Workload::KvHostile => walk_tickets(seed, &mut spans)?,
                Workload::HttpUpload => walk_http(seed, &mut spans)?,
                _ => walk_kv(seed, &mut spans)?,
            }
            Ok(Walk {
                workload,
                seed,
                requests: SAMPLE,
                spans: spans.spans,
            })
        })
        .expect("spawn walk thread")
        .join()
        .expect("the walk panicked")
}

/// The kv handler's own steps, spelled out with the public functions it
/// is built from (`KvHandler::handle` is the same sequence, unspanned).
/// Returns the rendered response and whether the request faulted.
fn kv_steps(
    spans: &mut Spans,
    iso: &mut WorkerIsolation,
    store: &mut sdrad_kvstore::Store,
    client: ClientId,
    frame: &[u8],
) -> (FrameBuf, Option<u64>) {
    let command = spans.span("kvstore.parse", |_| {
        parse_command(frame).expect("tape parses").0
    });
    store.advance(1);
    let staged = spans.span("core.domain_call", |spans| {
        iso.call_for(client, |env| {
            spans.span("kvstore.stage", |_| stage_command(env, command))
        })
    });
    match staged {
        Ok(op) => {
            let response = spans.span("kvstore.apply", |_| apply_op(store, op));
            let out = spans.span("nolock.arena_render", |_| {
                let mut out = FrameBuf::acquire(64);
                response.write_to(&mut out);
                out
            });
            (out, None)
        }
        Err(DomainError::Violation {
            fault, rewind_ns, ..
        }) => {
            let message = format!("contained: {}", fault.kind());
            (
                Response::ServerError(message).to_bytes().into(),
                Some(rewind_ns),
            )
        }
        Err(other) => panic!("isolation error in the walk: {other}"),
    }
}

fn walk_kv(seed: u64, spans: &mut Spans) -> Result<(), String> {
    let tape = Tape::kv(seed, KEY_SPACE);
    let framer = KvHandler::default();
    let mut store_owner = preloaded_kv_handler(KEY_SPACE);
    let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 8, 1 << 20);
    let (mut client_end, mut server_end) = sdrad_net::duplex();
    let (mut staged, mut received) = (Vec::new(), Vec::new());
    let client = ClientId(1);
    for request in 0..SAMPLE {
        spans.request = request as u32;
        let (bytes, Expect::Kv(expect)) = tape.get(request) else {
            unreachable!("kv tape");
        };
        spans.begin("request");
        spans.span("client.net_write", |_| client_end.write(bytes));
        staged.clear();
        spans.span("net.read", |_| server_end.read_available_into(&mut staged));
        let framing = spans.span("runtime.frame", |_| framer.frame(&staged));
        let Framing::Complete(len) = framing else {
            return Err(format!("request {request} did not frame: {framing:?}"));
        };
        let (response, _) = kv_steps(
            spans,
            &mut iso,
            store_owner.store_mut(),
            client,
            &staged[..len],
        );
        spans.span("net.write", |_| server_end.write(&response));
        spans.span("nolock.arena_recycle", |_| drop(response));
        received.clear();
        spans.span("client.net_read", |_| {
            client_end.read_available_into(&mut received)
        });
        let right = spans.span("client.validate", |_| match split_kv(&received) {
            Split::Complete(reply, used) => {
                used == received.len() && expect.accepts(&reply, VALUE_LEN)
            }
            _ => false,
        });
        spans.end();
        if !right {
            return Err(format!("request {request} was answered wrongly"));
        }
    }
    Ok(())
}

fn walk_http(seed: u64, spans: &mut Spans) -> Result<(), String> {
    use sdrad_httpd::{decode_chunked_in_domain, parse_request, HttpResponse, HttpServer, Status};
    let tape = Tape::http(seed);
    let page = page_for(seed);
    let framer = http_handler(&page);
    let mut content = HttpServer::new(sdrad_httpd::Isolation::None).map_err(|e| e.to_string())?;
    content.publish("/", "text/html", page.clone());
    let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 8, 1 << 20);
    let (mut client_end, mut server_end) = sdrad_net::duplex();
    let (mut staged, mut received) = (Vec::new(), Vec::new());
    let client = ClientId(1);
    for request in 0..SAMPLE {
        spans.request = request as u32;
        let (bytes, Expect::Http(expect)) = tape.get(request) else {
            unreachable!("http tape");
        };
        spans.begin("request");
        spans.span("client.net_write", |_| client_end.write(bytes));
        staged.clear();
        spans.span("net.read", |_| server_end.read_available_into(&mut staged));
        let framing = spans.span("runtime.http_frame", |_| framer.frame(&staged));
        let Framing::Complete(len) = framing else {
            return Err(format!("request {request} did not frame: {framing:?}"));
        };
        let parsed = spans.span("httpd.parse", |_| {
            parse_request(&staged[..len]).expect("tape parses").0
        });
        let response = if parsed.chunked {
            let decoded = spans.span("core.domain_call", |spans| {
                iso.call_for(client, |env| {
                    spans.span("httpd.decode_chunked", |_| {
                        decode_chunked_in_domain(env, &parsed.body)
                    })
                })
            });
            let decoded = decoded.map_err(|e| format!("benign upload faulted: {e}"))?;
            HttpResponse::new(Status::Created).body(format!("{decoded} bytes").into_bytes())
        } else {
            spans.span("httpd.respond", |_| content.respond(&parsed))
        };
        let out = spans.span("nolock.arena_render", |_| {
            let mut out = FrameBuf::acquire(256);
            response.write_to(&mut out);
            out
        });
        spans.span("net.write", |_| server_end.write(&out));
        spans.span("nolock.arena_recycle", |_| drop(out));
        received.clear();
        spans.span("client.net_read", |_| {
            client_end.read_available_into(&mut received)
        });
        let right = spans.span("client.validate", |_| match split_http(&received) {
            Split::Complete(reply, used) => used == received.len() && expect.accepts(&reply, &page),
            _ => false,
        });
        spans.end();
        if !right {
            return Err(format!("request {request} was answered wrongly"));
        }
    }
    Ok(())
}

/// `kv_hostile` enters through the queue, not a connection, and passes
/// admission, the ladder and the recorder on its way.
fn walk_tickets(seed: u64, spans: &mut Spans) -> Result<(), String> {
    let tape = Tape::kv(seed, HOSTILE_KEY_SPACE);
    let mut mix = HostileMix::new(seed, hostile_mix());
    let exploit = kv_exploit_request(EXPLOIT_DECLARED);
    let mut plane = ControlPlane::new(hostile_control());
    let ring = std::sync::Arc::new(TraceRing::new(SAMPLE * 4));
    let recorder = Recorder::on(ring, LogicalClock::new(), Source::Worker(0));
    let queue = ShardQueue::new(1024);
    let mut store_owner = preloaded_kv_handler(HOSTILE_KEY_SPACE);
    let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 8, 32 * 1024);
    let mut benign = 0;
    for request in 0..SAMPLE {
        spans.request = request as u32;
        let event = mix.next_event();
        let (bytes, expect) = match event.kind {
            TrafficKind::Attack => (&exploit[..], crate::validate::KvExpect::Contained),
            TrafficKind::Benign => {
                benign += 1;
                match tape.get(benign) {
                    (bytes, Expect::Kv(expect)) => (bytes, expect),
                    _ => unreachable!("kv tape"),
                }
            }
        };
        let client = ClientId(event.client);
        spans.begin("request");
        let now = spans.now();
        let admission = spans.span("control.admit", |_| plane.admit(event.client, now));
        if !matches!(
            admission,
            sdrad_control::Admission::Admit | sdrad_control::Admission::Quarantine
        ) {
            if !expect.is_exploit() {
                return Err(format!(
                    "benign request {request} was refused: {admission:?}"
                ));
            }
            spans.end();
            continue;
        }
        spans.span("telemetry.emit", |_| {
            recorder.emit(EventKind::Submit, 0, event.client, bytes.len() as u64);
        });
        spans.span("runtime.queue_push", |_| {
            queue.try_push(Request::new(client, bytes.to_vec(), None))
        });
        let batch = spans.span("runtime.queue_pop", |_| queue.pop_batch(32));
        let popped = batch
            .and_then(|mut batch| batch.pop())
            .ok_or("the queue lost a request")?;
        let (response, rewind) = kv_steps(
            spans,
            &mut iso,
            store_owner.store_mut(),
            client,
            &popped.payload[..],
        );
        let now = spans.now();
        spans.span("control.observe", |_| match rewind {
            None => plane.observe_ok(0, event.client, 20_000, now),
            Some(_) => {
                let _ = plane.observe_fault(0, event.client, 20_000, now, 1 << 20, 8);
            }
        });
        if let Some(rewind_ns) = rewind {
            spans.span("telemetry.emit", |_| {
                recorder.emit(EventKind::Rewind, 0, event.client, rewind_ns);
            });
        }
        let right = spans.span("client.validate", |_| {
            crate::validate::ticket_reply_ok(expect, &response, VALUE_LEN)
        });
        spans.span("nolock.arena_recycle", |_| drop(response));
        spans.end();
        if !right {
            return Err(format!("request {request} was answered wrongly"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let walk = Walk {
            workload: Workload::KvPipeline,
            seed: 1,
            requests: 1,
            spans: vec![
                span("request", 0, 100, NO_PARENT),
                span("core.domain_call", 10, 70, 0),
                span("kvstore.stage", 20, 50, 1),
                span("client.validate", 80, 95, 0),
            ],
        };
        let by_name = walk.self_time_ns_per_request();
        assert_eq!(by_name["request"], 100.0 - 60.0 - 15.0);
        assert_eq!(by_name["core.domain_call"], 30.0);
        assert_eq!(by_name["kvstore.stage"], 30.0);
        assert_eq!(walk.server_ns_per_request(), 60.0);
        let json = sdrad_telemetry::Json::parse(&walk.to_json()).expect("valid json");
        assert_eq!(
            json.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(4)
        );
    }

    #[test]
    fn every_workload_walks_and_every_answer_checks_out() {
        for workload in Workload::ALL {
            let walk = walk(workload, 42).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let by_name = walk.self_time_ns_per_request();
            assert!(by_name.contains_key("core.domain_call"), "{by_name:?}");
            assert!(walk.server_ns_per_request() > 0.0);
            let roots = walk.spans.iter().filter(|s| s.parent == NO_PARENT).count();
            assert_eq!(roots, SAMPLE);
        }
    }
}
