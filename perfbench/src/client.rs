//! The open-loop client.
//!
//! Requests follow the seeded schedule whatever the system does: each of at
//! most [`CONNECTIONS`] keep-alive connections takes the next request in due
//! order, waits for its due time if it is early, and sends it. A request
//! that finds both connections busy goes out late, and its latency — always
//! counted from the *due* time — includes that wait, so a stall charges
//! every request scheduled behind it.

use crate::gen::Req;
use crate::trace::now_ns;
use iluvatar_core::api::WireResult;
use iluvatar_http::{Method, PooledClient, Request, CACHE_HEADER, TENANT_HEADER};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Client connections (the host has two cores; more would only queue).
pub const CONNECTIONS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTag {
    Hit,
    Miss,
    Bypass,
    Absent,
}

/// What happened to one sent request.
pub struct Outcome {
    /// Index into the phase's schedule.
    pub idx: usize,
    pub due: u64,
    pub send: u64,
    pub recv: u64,
    /// Send time minus the later of due time and connection-free time: how
    /// late the generator itself was.
    pub lateness_ns: u64,
    pub status: u16,
    pub wire: Option<WireResult>,
    pub cache: CacheTag,
    pub error: Option<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    pub fn latency_us(&self) -> f64 {
        (self.recv - self.due) as f64 / 1e3
    }
}

pub struct Phase {
    /// When the schedule's time zero was, on the [`now_ns`] clock.
    pub start: u64,
    pub outcomes: Vec<Outcome>,
    /// Requests still unsent when the phase was cut off (backlog).
    pub unsent: usize,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn invoke_request(r: &Req) -> Request {
    let body = format!(
        "{{\"fqdn\":{},\"args\":{}}}",
        json_str(&r.fqdn),
        json_str(&r.args)
    );
    Request::new(Method::Post, "/invoke")
        .with_header("Content-Type", "application/json")
        .with_header(TENANT_HEADER, r.tenant)
        .with_body(body.into_bytes())
}

/// Run `reqs` open-loop against `front`. Requests not sent by `cutoff_us`
/// after the phase start are left unsent and counted as backlog.
pub fn run(front: SocketAddr, reqs: &[Req], cutoff_us: u64) -> Phase {
    let next = AtomicUsize::new(0);
    let start = now_ns();
    let cutoff = start + cutoff_us * 1_000;
    let per_conn: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let client = PooledClient::new(Duration::from_secs(30));
                    let mut out = Vec::new();
                    loop {
                        let free = now_ns();
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = reqs.get(idx) else { break };
                        let due = start + r.due_us * 1_000;
                        if free >= cutoff {
                            break;
                        }
                        let now = now_ns();
                        if due > now {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        let req = invoke_request(r);
                        let send = now_ns();
                        let resp = client.send(front, &req);
                        let recv = now_ns();
                        let mut o = Outcome {
                            idx,
                            due,
                            send,
                            recv,
                            lateness_ns: send - due.max(free),
                            status: 0,
                            wire: None,
                            cache: CacheTag::Absent,
                            error: None,
                        };
                        match resp {
                            Ok(resp) => {
                                o.status = resp.status.0;
                                o.cache = match resp.header(CACHE_HEADER) {
                                    Some("hit") => CacheTag::Hit,
                                    Some("miss") => CacheTag::Miss,
                                    Some("bypass") => CacheTag::Bypass,
                                    _ => CacheTag::Absent,
                                };
                                if resp.status.is_success() {
                                    match serde_json::from_str::<WireResult>(resp.body_str()) {
                                        Ok(w) => o.wire = Some(w),
                                        Err(e) => o.error = Some(format!("bad result: {e}")),
                                    }
                                } else {
                                    o.error =
                                        Some(format!("HTTP {}: {}", o.status, resp.body_str()));
                                }
                            }
                            Err(e) => o.error = Some(format!("transport: {e}")),
                        }
                        out.push(o);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut outcomes: Vec<Outcome> = per_conn.into_iter().flatten().collect();
    outcomes.sort_by_key(|o| o.idx);
    Phase {
        start,
        unsent: reqs.len() - outcomes.len(),
        outcomes,
    }
}
