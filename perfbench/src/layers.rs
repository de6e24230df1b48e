//! Per-layer metrics from a traced phase, and the linkage check.
//!
//! Linking: each reply carries a trace id (the worker's, or the pull task's
//! id on the pull path). The client span of a request links to
//!
//! * its balancer RPC span (push) by the returned trace id,
//! * its lease, executor and completion spans (pull) by task id,
//! * its container invoke span by (worker, worker trace id), the id the
//!   worker sends over the agent hop, and
//! * a container create span through the invoke that the same worker
//!   thread issued right after it.
//!
//! Every linked span must carry the request's own arguments, every dispatched
//! request must link exactly one span of each kind, and no span may be left
//! over or claimed twice. Each child span must lie inside its parent, so the
//! stage self times (parent minus children) are non-negative and sum to the
//! client span; the check allows 5 µs or 1 % of the client span.

use crate::client::{CacheTag, Phase};
use crate::gen::Req;
use crate::stack::Target;
use crate::stats::pctl;
use crate::trace::{Kind, Span};
use std::collections::HashMap;

/// Counters read from public APIs before and after the traced phase.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub evictions: u64,
    pub worker_events: u64,
    pub lb_events: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_coalesced: u64,
    pub expired: u64,
}

/// Metric name → value; absent layers read 0.
pub type Metrics = Vec<(&'static str, f64)>;

struct Index<'a> {
    spans: &'a [Span],
    used: Vec<u32>,
    by_kind_id: HashMap<(Kind, u64), Vec<usize>>,
    invoke_by: HashMap<(usize, u64), Vec<usize>>,
    /// Create spans paired to the invoke index that followed them.
    creates_of: HashMap<usize, Vec<usize>>,
}

impl<'a> Index<'a> {
    fn new(spans: &'a [Span], errors: &mut Vec<String>) -> Self {
        let mut by_kind_id: HashMap<(Kind, u64), Vec<usize>> = HashMap::new();
        let mut invoke_by: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        let mut by_thread: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            match s.kind {
                Kind::Invoke => {
                    invoke_by.entry((s.worker, s.id)).or_default().push(i);
                    by_thread.entry((s.worker, s.thread)).or_default().push(i);
                }
                Kind::Rpc | Kind::Lease | Kind::Exec | Kind::Complete => {
                    by_kind_id.entry((s.kind, s.id)).or_default().push(i);
                }
                _ => {}
            }
        }
        for v in by_thread.values_mut() {
            v.sort_by_key(|&i| spans[i].start);
        }
        let mut creates_of: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.kind != Kind::Create {
                continue;
            }
            let next = by_thread.get(&(s.worker, s.thread)).and_then(|v| {
                v.iter()
                    .copied()
                    .find(|&j| spans[j].start >= s.end && spans[j].fqdn == s.fqdn)
            });
            match next {
                Some(j) => creates_of.entry(j).or_default().push(i),
                None => errors.push(format!(
                    "create of {} on worker {} has no invoke after it",
                    s.fqdn, s.worker
                )),
            }
        }
        Self {
            spans,
            used: vec![0; spans.len()],
            by_kind_id,
            invoke_by,
            creates_of,
        }
    }

    /// The single span of `kind` with `id` (and, for invokes, on `worker`).
    fn one(&mut self, kind: Kind, worker: usize, id: u64, rid: u64) -> Result<usize, String> {
        let found = if kind == Kind::Invoke {
            self.invoke_by.get(&(worker, id))
        } else {
            self.by_kind_id.get(&(kind, id))
        };
        match found.map(|v| v.as_slice()) {
            Some([i]) => {
                self.used[*i] += 1;
                Ok(*i)
            }
            Some(v) => Err(format!(
                "request {rid}: {} {kind:?} spans for id {id:#x}",
                v.len()
            )),
            None => Err(format!("request {rid}: no {kind:?} span for id {id:#x}")),
        }
    }
}

fn inside(child: &Span, lo: u64, hi: u64) -> bool {
    child.start >= lo && child.end <= hi
}

/// Per-request stage times of one traced phase.
#[derive(Default)]
struct Stages {
    lb_self: Vec<f64>,
    worker_self: Vec<f64>,
    lease_wait: Vec<f64>,
    result_wait: Vec<f64>,
    hit_lat: Vec<f64>,
    miss_lat: Vec<f64>,
    linked: u64,
}

/// Analyse a traced phase. Returns the metrics and every linkage error.
pub fn analyse(
    target: Target,
    reqs: &[Req],
    phase: &Phase,
    spans: &[Span],
    before: Counters,
    after: Counters,
) -> (Metrics, Vec<String>) {
    let mut errors = Vec::new();
    let mut ix = Index::new(spans, &mut errors);
    let mut st = Stages::default();
    for o in &phase.outcomes {
        let (Some(w), true) = (o.wire.as_ref(), o.ok()) else {
            continue;
        };
        let r = &reqs[o.idx];
        let client_us = (o.recv - o.send) as f64 / 1e3;
        match o.cache {
            CacheTag::Hit => st.hit_lat.push(o.latency_us()),
            CacheTag::Miss => st.miss_lat.push(o.latency_us()),
            _ => {}
        }
        if o.cache == CacheTag::Hit {
            // Served by the balancer's cache: nothing was dispatched.
            st.lb_self.push(client_us);
            st.linked += 1;
            continue;
        }
        let linked = link_one(target, &mut ix, r, o.send, o.recv, w.trace_id);
        match linked {
            Ok(l) => {
                let sum: f64 = l.stages.iter().sum();
                let tol = (client_us * 0.01).max(5.0);
                if l.stages.iter().any(|s| *s < 0.0) || (sum - client_us).abs() > tol {
                    errors.push(format!(
                        "request {}: stages {:?} do not sum to the client span {client_us:.1} µs",
                        r.rid, l.stages
                    ));
                }
                st.worker_self.push(l.worker_self);
                if let Some(v) = l.lb_self {
                    st.lb_self.push(v);
                }
                if let Some((lease_end, complete_start)) = l.pull_marks {
                    st.lease_wait.push((lease_end - o.due) as f64 / 1e3);
                    st.result_wait.push((o.recv - complete_start) as f64 / 1e3);
                }
                st.linked += 1;
            }
            Err(e) => errors.push(e),
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let claimed = match s.kind {
            Kind::Create => ix
                .creates_of
                .iter()
                .any(|(j, v)| v.contains(&i) && ix.used[*j] == 1),
            Kind::Invoke | Kind::Rpc | Kind::Lease | Kind::Exec | Kind::Complete => ix.used[i] == 1,
            _ => true,
        };
        if !claimed {
            errors.push(format!(
                "{:?} span {:#x} ({} {}) is linked to no request, or to several",
                s.kind, s.id, s.fqdn, s.args
            ));
        }
    }

    let of = |k: Kind| -> Vec<&Span> { spans.iter().filter(|s| s.kind == k).collect() };
    let durs = |v: &[&Span]| -> Vec<f64> { v.iter().map(|s| s.dur_us()).collect() };
    let invokes = of(Kind::Invoke);
    let n_inv = invokes.len().max(1) as f64;
    let writes = of(Kind::WalWrite);
    let syncs = of(Kind::WalSync);
    let pulls = of(Kind::Pull);
    let leases: u64 = pulls.iter().map(|s| s.n).sum();
    let stolen: u64 = pulls.iter().map(|s| s.aux).sum();
    let n_pulls = pulls.len().max(1) as f64;
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let requests = phase.outcomes.len().max(1) as f64;
    let lateness: Vec<f64> = phase
        .outcomes
        .iter()
        .map(|o| o.lateness_ns as f64 / 1e3)
        .collect();
    let m: Metrics = vec![
        ("containers.invoke_p50_us", pctl(&durs(&invokes), 0.5)),
        (
            "containers.create_p50_us",
            pctl(&durs(&of(Kind::Create)), 0.5),
        ),
        (
            "containers.creates_per_inv",
            of(Kind::Create).len() as f64 / n_inv,
        ),
        (
            "containers.destroys_per_inv",
            of(Kind::Destroy).len() as f64 / n_inv,
        ),
        ("wal.write_p50_us", pctl(&durs(&writes), 0.5)),
        ("wal.sync_p50_us", pctl(&durs(&syncs), 0.5)),
        ("wal.sync_p99_us", pctl(&durs(&syncs), 0.99)),
        ("wal.syncs_per_inv", syncs.len() as f64 / n_inv),
        (
            "wal.bytes_per_inv",
            writes.iter().map(|s| s.n).sum::<u64>() as f64 / n_inv,
        ),
        ("lb.worker_rpc_p50_us", pctl(&durs(&of(Kind::Rpc)), 0.5)),
        ("lb.self_p50_us", pctl(&st.lb_self, 0.5)),
        ("lb.self_p99_us", pctl(&st.lb_self, 0.99)),
        ("worker.self_p50_us", pctl(&st.worker_self, 0.5)),
        ("worker.self_p99_us", pctl(&st.worker_self, 0.99)),
        ("dispatch.lease_wait_p50_us", pctl(&st.lease_wait, 0.5)),
        ("dispatch.exec_p50_us", pctl(&durs(&of(Kind::Exec)), 0.5)),
        (
            "dispatch.complete_p50_us",
            pctl(&durs(&of(Kind::Complete)), 0.5),
        ),
        ("dispatch.result_wait_p50_us", pctl(&st.result_wait, 0.5)),
        ("dispatch.leases_per_pull", leases as f64 / n_pulls),
        (
            "dispatch.empty_pull_ratio",
            pulls.iter().filter(|s| s.n == 0).count() as f64 / n_pulls,
        ),
        ("dispatch.steal_ratio", stolen as f64 / leases.max(1) as f64),
        ("dispatch.expired", (after.expired - before.expired) as f64),
        (
            "telemetry.events_per_inv",
            (after.worker_events - before.worker_events) as f64 / n_inv,
        ),
        (
            "telemetry.lb_events_per_inv",
            (after.lb_events - before.lb_events) as f64 / requests,
        ),
        (
            "pool.evictions_per_inv",
            (after.evictions - before.evictions) as f64 / n_inv,
        ),
        (
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "cache.coalesced",
            (after.cache_coalesced - before.cache_coalesced) as f64,
        ),
        ("cache.hit_p50_us", pctl(&st.hit_lat, 0.5)),
        ("cache.miss_p50_us", pctl(&st.miss_lat, 0.5)),
        ("trace.linked_requests", st.linked as f64),
        ("gen.lateness_p99_us", pctl(&lateness, 0.99)),
    ];
    (m, errors)
}

struct Linked {
    stages: Vec<f64>,
    worker_self: f64,
    lb_self: Option<f64>,
    /// Pull only: (lease returned, completion started), ns.
    pull_marks: Option<(u64, u64)>,
}

/// Link one dispatched request's spans and split its client span.
fn link_one<'a>(
    target: Target,
    ix: &mut Index<'a>,
    r: &Req,
    send: u64,
    recv: u64,
    trace_id: u64,
) -> Result<Linked, String> {
    let rid = r.rid;
    let spans: &'a [Span] = ix.spans;
    let args_match = |s: &Span| -> Result<(), String> {
        if s.args == r.args {
            Ok(())
        } else {
            Err(format!(
                "request {rid}: {:?} span carries args {} instead of {}",
                s.kind, s.args, r.args
            ))
        }
    };
    let client_us = (recv - send) as f64 / 1e3;
    // The worker-side interval that contains the container spans.
    let (worker, worker_trace, lo, hi, mut stages, lb_self, pull_marks) = match target {
        Target::Direct { .. } => (0, trace_id, send, recv, vec![], None, None),
        Target::Push => {
            let i = ix.one(Kind::Rpc, 0, trace_id, rid)?;
            let rpc = &spans[i];
            args_match(rpc)?;
            if !inside(rpc, send, recv) {
                return Err(format!("request {rid}: RPC span outside the client span"));
            }
            let lb = client_us - rpc.dur_us();
            (
                rpc.worker,
                trace_id,
                rpc.start,
                rpc.end,
                vec![lb],
                Some(lb),
                None,
            )
        }
        Target::Pull => {
            let l = ix.one(Kind::Lease, 0, trace_id, rid)?;
            let e = ix.one(Kind::Exec, 0, trace_id, rid)?;
            let c = ix.one(Kind::Complete, 0, spans[l].aux, rid)?;
            let (lease, exec, complete) = (&spans[l], &spans[e], &spans[c]);
            args_match(lease)?;
            args_match(exec)?;
            let ordered = send <= lease.end
                && lease.end <= exec.start
                && exec.end <= complete.start
                && complete.start <= recv;
            if !ordered {
                return Err(format!(
                    "request {rid}: send → lease → exec → complete → reply out of order"
                ));
            }
            let us = |a: u64, b: u64| (b - a) as f64 / 1e3;
            let stages = vec![
                us(send, lease.end),
                us(lease.end, exec.start) + us(exec.end, complete.start),
                us(complete.start, recv),
            ];
            let marks = Some((lease.end, complete.start));
            (
                exec.worker,
                exec.aux,
                exec.start,
                exec.end,
                stages,
                None,
                marks,
            )
        }
    };
    let inv = ix.one(Kind::Invoke, worker, worker_trace, rid)?;
    let invoke = &spans[inv];
    args_match(invoke)?;
    let mut containers = invoke.dur_us();
    let mut children = vec![invoke];
    for &c in ix.creates_of.get(&inv).map(|v| v.as_slice()).unwrap_or(&[]) {
        containers += spans[c].dur_us();
        children.push(&spans[c]);
    }
    if children.iter().any(|s| !inside(s, lo, hi)) {
        return Err(format!(
            "request {rid}: container span outside its worker interval"
        ));
    }
    let worker_self = (hi - lo) as f64 / 1e3 - containers;
    stages.push(worker_self);
    stages.push(containers);
    Ok(Linked {
        stages,
        worker_self,
        lb_self,
        pull_marks,
    })
}
