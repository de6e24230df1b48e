//! Isolated calls into public functions, one layer at a time.
//!
//! Each measurement is a median: of per-batch mean cost for nanosecond
//! operations, or of single-call latency for microsecond ones.

use crate::gen;
use crate::stats::median;
use iluvatar_admission::{AdmissionConfig, AdmissionController, TenantSpec};
use iluvatar_cache::{CacheConfig, ResultCache};
use iluvatar_containers::agent::FunctionBehavior;
use iluvatar_containers::{ContainerBackend, FunctionSpec, InProcessBackend, NamespacePool};
use iluvatar_core::queue::{InvocationQueue, QueuedInvocation};
use iluvatar_core::wal::WalOptions;
use iluvatar_core::{
    InvocationHandle, LifecycleConfig, PendingInvocation, QueueConfig, TelemetryBus, TelemetryKind,
    TelemetrySink, Wal, WalConfig, WalRecord, Worker, WorkerConfig,
};
use iluvatar_dispatch::{DispatchConfig, PullPlane};
use iluvatar_http::{parse_request, HttpServer, Method, PooledClient, Request, Response};
use iluvatar_lb::{ChBl, ChBlConfig};
use iluvatar_sync::{Clock, RealStorage, SystemClock};
use iluvatar_telemetry::CounterBridge;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median over `batches` of the mean cost of `f` in a batch of `per`, ns.
fn ns_per_op(batches: usize, per: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        for i in 0..per {
            f(b * per + i);
        }
        v.push(t.elapsed().as_nanos() as f64 / per as f64);
    }
    median(&v)
}

/// Median single-call latency of `f` over `n` calls (or `budget`), µs.
fn p50_us(n: usize, budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let mut v = Vec::with_capacity(n);
    let deadline = Instant::now() + budget;
    for i in 0..n {
        let t = Instant::now();
        f(i);
        v.push(t.elapsed().as_nanos() as f64 / 1e3);
        if Instant::now() > deadline {
            break;
        }
    }
    median(&v)
}

fn echo_backend() -> Arc<InProcessBackend> {
    let netns = Arc::new(NamespacePool::new(2, 0, SystemClock::shared()));
    netns.prefill();
    let b = Arc::new(InProcessBackend::new(netns));
    b.register_behavior(
        gen::DIRECT_FQDN,
        FunctionBehavior::from_body(|args: &str| format!("{{\"echo\":{args},\"n\":0}}")),
    );
    b
}

fn echo_spec() -> FunctionSpec {
    FunctionSpec::new("echo", "1")
}

/// Append Enqueued+Completed pairs from `threads` threads for `budget`;
/// p50 of one pair, µs.
fn wal_pairs(path: &Path, fsync: &str, threads: usize, budget: Duration) -> f64 {
    let opts: WalOptions = LifecycleConfig {
        wal: WalConfig {
            fsync: fsync.into(),
            group_ms: 2,
            ..Default::default()
        },
        ..Default::default()
    }
    .wal_options();
    let wal = Wal::open_with(path, opts, Arc::new(RealStorage)).expect("open micro-benchmark wal");
    let next = AtomicU64::new(1);
    let deadline = Instant::now() + budget;
    let samples: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut v = Vec::new();
                    while Instant::now() < deadline && v.len() < 2_000 {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let t = Instant::now();
                        wal.append(&WalRecord::Enqueued {
                            inv: PendingInvocation {
                                id,
                                fqdn: gen::DIRECT_FQDN.into(),
                                args: format!("{{\"rid\":{id}}}"),
                                tenant: Some("acme".into()),
                                tenant_weight: 1.0,
                                ..Default::default()
                            },
                        });
                        wal.append(&WalRecord::Completed {
                            id,
                            ok: true,
                            tenant: Some("acme".into()),
                        });
                        v.push(t.elapsed().as_nanos() as f64 / 1e3);
                    }
                    v
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("wal thread panicked"))
            .collect()
    });
    median(&samples)
}

fn queued(i: usize) -> QueuedInvocation {
    let (tx, _handle) = InvocationHandle::pair();
    QueuedInvocation {
        fqdn: gen::DIRECT_FQDN.into(),
        args: String::new(),
        trace_id: i as u64,
        arrived_at: 0,
        expected_exec_ms: 1.0,
        iat_ms: 10.0,
        expect_warm: true,
        tenant: None,
        tenant_weight: 1.0,
        result_tx: tx,
    }
}

/// Run every isolated measurement; scratch files go under `dir`.
pub fn run(dir: &Path) -> Vec<(&'static str, f64)> {
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let mut out = Vec::new();

    let wire = Request::new(Method::Post, "/invoke")
        .with_header("Content-Type", "application/json")
        .with_header("X-Iluvatar-Tenant", "acme")
        .with_body(&b"{\"fqdn\":\"echo-1\",\"args\":\"{\\\"rid\\\":12345}\"}"[..])
        .encode();
    out.push((
        "http.parse_request_ns",
        ns_per_op(25, 2_000, |_| {
            black_box(parse_request(black_box(&wire[..])).expect("parses"));
        }),
    ));

    {
        let server = HttpServer::start(Arc::new(|req: Request| Response::ok(req.body)))
            .expect("start echo server");
        let client = PooledClient::new(Duration::from_secs(5));
        let req = Request::new(Method::Post, "/echo").with_body(&b"{\"rid\":1}"[..]);
        out.push((
            "http.roundtrip_p50_us",
            p50_us(2_000, Duration::from_millis(400), |_| {
                black_box(
                    client
                        .send(server.addr(), &req)
                        .expect("loopback round trip"),
                );
            }),
        ));
    }

    {
        let backend = echo_backend();
        let c = backend.create(&echo_spec()).expect("create agent");
        out.push((
            "containers.agent_invoke_p50_us",
            p50_us(2_000, Duration::from_millis(400), |i| {
                let args = format!("{{\"rid\":{i}}}");
                black_box(backend.invoke(&c, &args).expect("agent invoke"));
            }),
        ));
        let _ = backend.destroy(&c);
        let mut creates = Vec::new();
        for _ in 0..40 {
            let t = Instant::now();
            let c = backend.create(&echo_spec()).expect("create agent");
            creates.push(t.elapsed().as_nanos() as f64 / 1e3);
            let _ = backend.destroy(&c);
        }
        out.push(("containers.cold_create_p50_us", median(&creates)));
    }

    {
        let cfg = WorkerConfig {
            name: "micro".into(),
            lifecycle: LifecycleConfig {
                wal_path: Some(dir.join("micro-core.wal").to_string_lossy().into_owned()),
                wal: WalConfig {
                    fsync: "never".into(),
                    ..Default::default()
                },
                ..Default::default()
            },
            ..WorkerConfig::default()
        };
        let worker = Worker::new(cfg, echo_backend(), Arc::clone(&clock));
        worker.register(echo_spec()).expect("register echo");
        worker.prewarm(gen::DIRECT_FQDN).expect("prewarm echo");
        out.push((
            "core.invoke_p50_us",
            p50_us(2_000, Duration::from_millis(500), |i| {
                let args = format!("{{\"rid\":{i}}}");
                black_box(
                    worker
                        .invoke_tenant(gen::DIRECT_FQDN, &args, Some("acme"))
                        .expect("in-process invoke"),
                );
            }),
        ));
    }

    for (fsync, t1, t2) in [
        (
            "never",
            "wal.append_p50_us.never.t1",
            "wal.append_p50_us.never.t2",
        ),
        (
            "group",
            "wal.append_p50_us.group.t1",
            "wal.append_p50_us.group.t2",
        ),
        (
            "always",
            "wal.append_p50_us.always.t1",
            "wal.append_p50_us.always.t2",
        ),
    ] {
        for (threads, name) in [(1, t1), (2, t2)] {
            let path = dir.join(format!("micro-{fsync}-{threads}.wal"));
            out.push((
                name,
                wal_pairs(&path, fsync, threads, Duration::from_millis(250)),
            ));
        }
    }

    {
        let q = InvocationQueue::new(QueueConfig::default());
        out.push((
            "queue.push_pop_ns",
            ns_per_op(25, 1_000, |i| {
                q.push(queued(i)).expect("queue has room");
                black_box(q.try_pop().expect("just pushed"));
            }),
        ));
    }

    {
        let cache = ResultCache::new(CacheConfig::enabled_default(), Arc::clone(&clock));
        let spec = FunctionSpec::new("fn01", "1").with_idempotent();
        cache.note_spec(&spec);
        let body = "{\"echo\":{\"k\":1},\"n\":7}";
        cache.fill("fn01-1", Some("acme"), "{\"k\":1}", body, 0, None);
        out.push((
            "cache.lookup_hit_ns",
            ns_per_op(25, 2_000, |_| {
                black_box(cache.lookup("fn01-1", Some("acme"), "{\"k\":1}"));
            }),
        ));
        let keys: Vec<String> = (0..512).map(|k| format!("{{\"k\":{k}}}")).collect();
        out.push((
            "cache.fill_ns",
            ns_per_op(25, 1_000, |i| {
                cache.fill("fn01-1", Some("acme"), &keys[i % keys.len()], body, 0, None);
            }),
        ));
    }

    {
        let adm = AdmissionController::new(
            AdmissionConfig::enabled_with(vec![TenantSpec::new("acme"), TenantSpec::new("beta")]),
            Arc::clone(&clock),
        );
        out.push((
            "admission.admit_ns",
            ns_per_op(25, 2_000, |i| {
                black_box(adm.admit(gen::TENANTS[i % 2], 0));
            }),
        ));
    }

    {
        let ring = ChBl::new(2, ChBlConfig::default());
        let fqdns: Vec<String> = (0..gen::MIX_FUNCTIONS).map(gen::mix_fqdn).collect();
        let loads = [0.5, 0.7];
        out.push((
            "lb.chbl_pick_ns",
            ns_per_op(25, 2_000, |i| {
                black_box(ring.pick(&fqdns[i % fqdns.len()], &loads));
            }),
        ));
    }

    {
        let plane = PullPlane::new(DispatchConfig::pull(), Arc::clone(&clock));
        plane.register_worker("w0");
        out.push((
            "dispatch.cycle_p50_us",
            p50_us(2_000, Duration::from_millis(300), |i| {
                let args = format!("{{\"rid\":{i}}}");
                let id = plane
                    .enqueue("fn00-1", &args, Some("acme"))
                    .expect("plane accepts");
                let lease = plane.pull("w0", 1).pop().expect("lease granted");
                plane.complete(lease.lease_id, true, &args, 0);
                black_box(plane.wait(id, 1_000).expect("completed"));
            }),
        ));
    }

    {
        let bus = TelemetryBus::new("perfbench", Arc::clone(&clock));
        bus.add_sink(Arc::new(CounterBridge::new()) as Arc<dyn TelemetrySink>);
        out.push((
            "telemetry.emit_ns",
            ns_per_op(25, 2_000, |i| {
                bus.emit(
                    Some(i as u64),
                    Some("acme"),
                    TelemetryKind::Trace {
                        stage: "ingested".into(),
                    },
                );
            }),
        ));
    }
    out
}
