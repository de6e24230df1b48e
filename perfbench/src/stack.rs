//! Stands the real stack up in one process from public APIs.
//!
//! * direct workloads: client → `WorkerApi` → `Worker` → `InProcessBackend`
//!   agents (the agent hop is real loopback HTTP);
//! * push: client → `LbApi` (CH-BL + result cache) → `RemoteWorker` →
//!   two `WorkerApi`s;
//! * pull: the same, with `dispatch.mode = pull`: two `PullLoop`s lease over
//!   `HttpLeaseSource` and execute on the two workers.
//!
//! With tracing on, each seam is built through its decorator from
//! [`crate::trace`]; otherwise the program's own objects are used as is.

use crate::gen::{self, Mix};
use crate::trace::{
    now_ns, record_exec, CountingSink, TimedBackend, TimedHandle, TimedLeases, TimedStorage, Tracer,
};
use iluvatar_cache::{CacheConfig, ResultCache};
use iluvatar_containers::agent::FunctionBehavior;
use iluvatar_containers::{ContainerBackend, InProcessBackend, NamespacePool};
use iluvatar_core::api::WorkerApi;
use iluvatar_core::{
    FunctionSpec, LifecycleConfig, ResourceLimits, TelemetrySink, Wal, WalConfig, Worker,
    WorkerConfig,
};
use iluvatar_dispatch::{DispatchConfig, LeaseSource, PullLoop, PullPlane, PullTask, TaskExecutor};
use iluvatar_lb::cluster::{LbPolicy, RemoteWorker, WorkerHandle};
use iluvatar_lb::{ChBlConfig, Cluster, HttpLeaseSource, LbApi};
use iluvatar_sync::{Clock, RealStorage, Storage, SystemClock};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Memory of every function's container, MB.
const FN_MEMORY_MB: u64 = 128;
/// Keep-alive pool per worker in the mixed workloads: small enough that
/// the Zipf tail keeps evicting (about one invocation in ten is cold).
const MIX_POOL_MB: u64 = 14 * FN_MEMORY_MB;
/// Balancer result-cache TTL: short, so fills keep recurring beside hits.
const CACHE_TTL_MS: u64 = 2_000;
/// Balancer scrape period.
const SCRAPE_MS: u64 = 200;
/// Long-poll budget of each `/pull`.
const PULL_WAIT_MS: u64 = 100;
/// Group-commit window of `fsync = group`.
const GROUP_MS: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Target {
    /// Client → one worker's HTTP API, with the WAL's fsync policy.
    Direct { fsync: &'static str },
    /// Client → balancer, CH-BL push.
    Push,
    /// Client → balancer, pull dispatch.
    Pull,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub target: Target,
    pub mix: Mix,
    /// Rate at which latency, CPU and the warm ratio are reported.
    pub nominal_rps: f64,
    /// Rate the saturation phase offers: well above what the stack serves,
    /// so the client always has a request waiting.
    pub overload_rps: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "warm-direct",
        why: "worker hot path alone: one always-warm function, WAL fsync=never, no LB",
        target: Target::Direct { fsync: "never" },
        mix: Mix::Single,
        nominal_rps: 500.0,
        overload_rps: 20_000.0,
    },
    Workload {
        name: "durable-direct",
        why: "warm-direct traffic with WAL fsync=group: the durable wait on the hot path",
        target: Target::Direct { fsync: "group" },
        mix: Mix::Single,
        nominal_rps: 100.0,
        overload_rps: 2_500.0,
    },
    Workload {
        name: "push-mix",
        why: "LB CH-BL push with result cache over 2 workers: Zipf mix, hits, fills, cold starts",
        target: Target::Push,
        mix: Mix::Zipf,
        nominal_rps: 100.0,
        overload_rps: 10_000.0,
    },
    Workload {
        name: "pull-mix",
        why: "the push-mix traffic through pull dispatch: lease long-poll, steal, complete",
        target: Target::Pull,
        mix: Mix::Zipf,
        nominal_rps: 100.0,
        overload_rps: 2_500.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The functions a mix registers, with their specs.
fn specs(mix: Mix) -> Vec<FunctionSpec> {
    let limits = ResourceLimits {
        cpus: 1.0,
        memory_mb: FN_MEMORY_MB,
    };
    match mix {
        Mix::Single => vec![FunctionSpec::new("echo", "1").with_limits(limits)],
        Mix::Zipf => (0..gen::MIX_FUNCTIONS)
            .map(|r| {
                let spec = FunctionSpec::new(format!("fn{r:02}"), "1").with_limits(limits);
                if gen::is_idempotent(r) {
                    spec.with_idempotent()
                } else {
                    spec
                }
            })
            .collect(),
    }
}

/// The no-op function body: echoes its arguments plus an execution count,
/// so a cached body can be told apart from a fresh execution.
fn echo_behavior() -> FunctionBehavior {
    let runs = AtomicU64::new(0);
    FunctionBehavior::from_body(move |args: &str| {
        let n = runs.fetch_add(1, Ordering::Relaxed);
        format!("{{\"echo\":{args},\"n\":{n}}}")
    })
}

fn worker_config(name: &str, wal: &Path, fsync: &str, memory_mb: u64) -> WorkerConfig {
    WorkerConfig {
        name: name.to_string(),
        memory_mb,
        free_buffer_mb: 0,
        netns_pool: 4,
        lifecycle: LifecycleConfig {
            wal_path: Some(wal.to_string_lossy().into_owned()),
            wal: WalConfig {
                fsync: fsync.to_string(),
                group_ms: GROUP_MS,
                ..Default::default()
            },
            ..Default::default()
        },
        ..WorkerConfig::default()
    }
}

/// A running stack. Dropping it tears everything down in dependency order.
pub struct Stack {
    pub front: SocketAddr,
    pub workers: Vec<Arc<Worker>>,
    pub cluster: Option<Arc<Cluster>>,
    pub plane: Option<Arc<PullPlane>>,
    pub tracer: Option<Arc<Tracer>>,
    pub worker_events: Vec<Arc<CountingSink>>,
    pub lb_events: Option<Arc<CountingSink>>,
    loops: Vec<PullLoop>,
    lb: Option<LbApi>,
    apis: Vec<WorkerApi>,
    dir: PathBuf,
}

fn storage_for(tracer: &Option<Arc<Tracer>>, worker: usize) -> Arc<dyn Storage> {
    match tracer {
        Some(t) => Arc::new(TimedStorage {
            inner: Arc::new(RealStorage),
            tracer: Arc::clone(t),
            worker,
        }),
        None => Arc::new(RealStorage),
    }
}

impl Stack {
    /// Build the stack for `w` with its WAL files under `dir`.
    pub fn build(w: &Workload, traced: bool, dir: PathBuf) -> Result<Stack, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("wal dir {}: {e}", dir.display()))?;
        let clock: Arc<dyn Clock> = SystemClock::shared();
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        let specs = specs(w.mix);
        let (n_workers, fsync, memory_mb) = match w.target {
            Target::Direct { fsync } => (1, fsync, WorkerConfig::default().memory_mb),
            Target::Push | Target::Pull => (2, "never", MIX_POOL_MB),
        };

        let mut workers = Vec::new();
        let mut worker_events = Vec::new();
        for i in 0..n_workers {
            let netns = Arc::new(NamespacePool::new(4, 0, Arc::clone(&clock)));
            netns.prefill();
            let backend = Arc::new(InProcessBackend::new(netns));
            for s in &specs {
                backend.register_behavior(s.fqdn.clone(), echo_behavior());
            }
            let seam: Arc<dyn ContainerBackend> = match &tracer {
                Some(t) => Arc::new(TimedBackend {
                    inner: Arc::clone(&backend) as Arc<dyn ContainerBackend>,
                    tracer: Arc::clone(t),
                    worker: i,
                }),
                None => Arc::clone(&backend) as Arc<dyn ContainerBackend>,
            };
            let name = format!("w{i}");
            let wal = dir.join(format!("{name}.wal"));
            let cfg = worker_config(&name, &wal, fsync, memory_mb);
            let worker = Arc::new(Worker::new_with_storage(
                cfg,
                seam,
                Arc::clone(&clock),
                storage_for(&tracer, i),
            ));
            if traced {
                let sink = Arc::new(CountingSink::default());
                worker
                    .telemetry()
                    .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
                worker_events.push(sink);
            }
            if !dir.join(format!("{name}.wal.0001.log")).exists() {
                return Err(format!("worker {name} did not open its WAL"));
            }
            workers.push(worker);
        }
        let apis = workers
            .iter()
            .map(|w| WorkerApi::serve(Arc::clone(w)))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("worker api: {e}"))?;

        let mut stack = Stack {
            front: apis[0].addr(),
            workers,
            cluster: None,
            plane: None,
            tracer,
            worker_events,
            lb_events: None,
            loops: Vec::new(),
            lb: None,
            apis,
            dir,
        };
        if let Target::Direct { .. } = w.target {
            let worker = &stack.workers[0];
            for s in specs {
                let fqdn = s.fqdn.clone();
                worker.register(s).map_err(|e| e.to_string())?;
                // Two warm containers: one per client connection.
                for _ in 0..2 {
                    worker.prewarm(&fqdn).map_err(|e| e.to_string())?;
                }
            }
            return Ok(stack);
        }

        let handles: Vec<Arc<dyn WorkerHandle>> = stack
            .apis
            .iter()
            .enumerate()
            .map(|(i, api)| {
                let remote: Arc<dyn WorkerHandle> = Arc::new(RemoteWorker::connect(api.addr()));
                match &stack.tracer {
                    Some(t) => Arc::new(TimedHandle {
                        inner: remote,
                        tracer: Arc::clone(t),
                        worker: i,
                    }) as Arc<dyn WorkerHandle>,
                    None => remote,
                }
            })
            .collect();
        let cluster = Arc::new(Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default())));
        // The cache must exist before registration: specs are not replayed
        // into a cache attached later.
        cluster.set_cache(Arc::new(ResultCache::new(
            CacheConfig {
                enabled: true,
                ttl_ms: CACHE_TTL_MS,
                ..Default::default()
            },
            Arc::clone(&clock),
        )));
        for s in specs {
            cluster.register_all(s)?;
        }
        let plane = if w.target == Target::Pull {
            let plane = Arc::new(PullPlane::new(DispatchConfig::pull(), Arc::clone(&clock)));
            for i in 0..n_workers {
                plane.register_worker(&format!("w{i}"));
            }
            let opts = LifecycleConfig {
                wal: WalConfig {
                    fsync: "never".into(),
                    ..Default::default()
                },
                ..Default::default()
            }
            .wal_options();
            let wal = Wal::open_with(
                &stack.dir.join("plane.wal"),
                opts,
                storage_for(&stack.tracer, n_workers),
            )
            .map_err(|e| format!("plane wal: {e}"))?;
            plane.attach_wal(Arc::new(wal));
            Some(plane)
        } else {
            None
        };
        let lb = LbApi::serve_with_dispatch(
            Arc::clone(&cluster),
            Duration::from_millis(SCRAPE_MS),
            None,
            plane.clone(),
        )
        .map_err(|e| format!("lb api: {e}"))?;
        if traced {
            let sink = Arc::new(CountingSink::default());
            lb.telemetry()
                .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
            stack.lb_events = Some(sink);
        }
        if plane.is_some() {
            for (i, worker) in stack.workers.iter().enumerate() {
                let http: Arc<dyn LeaseSource> =
                    Arc::new(HttpLeaseSource::new(lb.addr(), PULL_WAIT_MS));
                let source: Arc<dyn LeaseSource> = match &stack.tracer {
                    Some(t) => Arc::new(TimedLeases {
                        inner: http,
                        tracer: Arc::clone(t),
                        worker: i,
                    }),
                    None => http,
                };
                let worker = Arc::clone(worker);
                let tracer = stack.tracer.clone();
                let exec: Arc<TaskExecutor> = Arc::new(move |t: &PullTask| {
                    let start = now_ns();
                    let r = worker.invoke_tenant(&t.fqdn, &t.args, t.tenant.as_deref());
                    if let Some(tr) = &tracer {
                        let trace_id = r.as_ref().map(|r| r.trace_id).unwrap_or(0);
                        record_exec(tr, i, t, start, trace_id);
                    }
                    match r {
                        Ok(r) => (true, r.body, r.exec_ms),
                        Err(e) => (false, e.to_string(), 0),
                    }
                });
                stack.loops.push(PullLoop::spawn(
                    source,
                    format!("w{i}"),
                    1,
                    Duration::from_millis(1),
                    exec,
                ));
            }
        }
        stack.front = lb.addr();
        stack.cluster = Some(cluster);
        stack.plane = plane;
        stack.lb = Some(lb);
        Ok(stack)
    }

    /// Sum of every worker's pool counters: (warm hits, cold misses, evictions).
    pub fn pool_totals(&self) -> (u64, u64, u64) {
        self.workers.iter().fold((0, 0, 0), |(h, c, e), w| {
            let s = w.pool_stats();
            (h + s.warm_hits, c + s.cold_misses, e + s.evictions)
        })
    }

    pub fn worker_event_total(&self) -> u64 {
        self.worker_events.iter().map(|s| s.count()).sum()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Pull loops first (they long-poll the balancer), then the
        // balancer, then the worker front ends and the workers, which take
        // their agents down with them.
        for l in self.loops.drain(..) {
            l.stop();
        }
        self.lb.take();
        self.plane.take();
        self.cluster.take();
        self.apis.clear();
        self.workers.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
