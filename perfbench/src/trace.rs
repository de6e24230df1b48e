//! Timing decorators around the program's public trait seams.
//!
//! Nothing here changes program code: each decorator implements the same
//! public trait as the object it wraps, forwards every call, and records a
//! [`Span`] around the calls that sit on an invocation's path. Spans stay in
//! memory and are analysed when the traced phase ends ([`crate::layers`]).

use iluvatar_containers::{BackendError, Container, ContainerBackend, FunctionSpec, InvokeOutput};
use iluvatar_core::{
    BreakdownReport, InvocationResult, InvokeError, SpanExport, TelemetryEvent, TelemetrySink,
    TenantSnapshot,
};
use iluvatar_dispatch::{Lease, LeaseSource, PullTask};
use iluvatar_lb::cluster::{HandleStats, ProbeResult, WorkerHandle};
use iluvatar_sync::storage::{Storage, StorageFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span and every client timestamp shares.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-thread id, so a container create can be paired with the
/// invoke the same worker thread issues right after it.
pub fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `ContainerBackend::create`.
    Create,
    /// `ContainerBackend::invoke_ctx`; `id` is the worker trace id.
    Invoke,
    /// `ContainerBackend::destroy`.
    Destroy,
    /// `StorageFile::write_all`; `n` is the byte count.
    WalWrite,
    /// `StorageFile::sync`.
    WalSync,
    /// `WorkerHandle::invoke_tenant`; `id` is the returned trace id.
    Rpc,
    /// `LeaseSource::pull`; `n` leases granted, `aux` of them stolen.
    Pull,
    /// One lease out of a pull; `id` task id, `aux` lease id.
    Lease,
    /// `LeaseSource::complete`; `id` lease id.
    Complete,
    /// The pull loop's executor; `id` task id, `aux` worker trace id.
    Exec,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Worker index (or pull-loop index) the span belongs to.
    pub worker: usize,
    pub id: u64,
    pub aux: u64,
    pub n: u64,
    pub thread: u64,
    pub fqdn: String,
    pub args: String,
}

impl Span {
    fn new(kind: Kind, start: u64, worker: usize) -> Self {
        Self {
            kind,
            start,
            end: now_ns(),
            worker,
            id: 0,
            aux: 0,
            n: 0,
            thread: 0,
            fqdn: String::new(),
            args: String::new(),
        }
    }

    pub fn dur_us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// The span store of one traced stack.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn record(&self, s: Span) {
        self.spans.lock().expect("span store poisoned").push(s);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Counts the events a telemetry bus fans out.
#[derive(Default)]
pub struct CountingSink(AtomicU64);

impl CountingSink {
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl TelemetrySink for CountingSink {
    fn emit(&self, _ev: &TelemetryEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`ContainerBackend`] decorator.
pub struct TimedBackend {
    pub inner: Arc<dyn ContainerBackend>,
    pub tracer: Arc<Tracer>,
    pub worker: usize,
}

impl ContainerBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        let start = now_ns();
        let r = self.inner.create(spec);
        let mut s = Span::new(Kind::Create, start, self.worker);
        s.thread = thread_tag();
        s.fqdn = spec.fqdn.clone();
        self.tracer.record(s);
        r
    }

    fn invoke(&self, container: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        self.invoke_ctx(container, args, None, None)
    }

    fn invoke_traced(
        &self,
        container: &Container,
        args: &str,
        trace: Option<&str>,
    ) -> Result<InvokeOutput, BackendError> {
        self.invoke_ctx(container, args, trace, None)
    }

    fn invoke_ctx(
        &self,
        container: &Container,
        args: &str,
        trace: Option<&str>,
        tenant: Option<&str>,
    ) -> Result<InvokeOutput, BackendError> {
        let start = now_ns();
        let r = self.inner.invoke_ctx(container, args, trace, tenant);
        let mut s = Span::new(Kind::Invoke, start, self.worker);
        s.id = trace
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .unwrap_or(0);
        s.thread = thread_tag();
        s.fqdn = container.fqdn.clone();
        s.args = args.to_string();
        self.tracer.record(s);
        r
    }

    fn destroy(&self, container: &Container) -> Result<(), BackendError> {
        let start = now_ns();
        let r = self.inner.destroy(container);
        self.tracer
            .record(Span::new(Kind::Destroy, start, self.worker));
        r
    }
}

/// [`Storage`] decorator: times every write and fsync under the WAL.
pub struct TimedStorage {
    pub inner: Arc<dyn Storage>,
    pub tracer: Arc<Tracer>,
    pub worker: usize,
}

struct TimedFile {
    inner: Box<dyn StorageFile>,
    tracer: Arc<Tracer>,
    worker: usize,
}

impl StorageFile for TimedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = now_ns();
        let r = self.inner.write_all(buf);
        let mut s = Span::new(Kind::WalWrite, start, self.worker);
        s.n = buf.len() as u64;
        self.tracer.record(s);
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = now_ns();
        let r = self.inner.sync();
        self.tracer
            .record(Span::new(Kind::WalSync, start, self.worker));
        r
    }
}

impl Storage for TimedStorage {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(TimedFile {
            inner: self.inner.open_append(path)?,
            tracer: Arc::clone(&self.tracer),
            worker: self.worker,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

/// [`WorkerHandle`] decorator on the balancer side: times the RPC hop.
pub struct TimedHandle {
    pub inner: Arc<dyn WorkerHandle>,
    pub tracer: Arc<Tracer>,
    pub worker: usize,
}

impl WorkerHandle for TimedHandle {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn load(&self) -> f64 {
        self.inner.load()
    }

    fn probe(&self) -> ProbeResult {
        self.inner.probe()
    }

    fn register(&self, spec: FunctionSpec) -> Result<(), String> {
        self.inner.register(spec)
    }

    fn invoke(&self, fqdn: &str, args: &str) -> Result<InvocationResult, InvokeError> {
        self.invoke_tenant(fqdn, args, None)
    }

    fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let start = now_ns();
        let r = self.inner.invoke_tenant(fqdn, args, tenant);
        let mut s = Span::new(Kind::Rpc, start, self.worker);
        s.id = r.as_ref().map(|r| r.trace_id).unwrap_or(0);
        s.fqdn = fqdn.to_string();
        s.args = args.to_string();
        self.tracer.record(s);
        r
    }

    fn span_export(&self) -> Vec<SpanExport> {
        self.inner.span_export()
    }

    fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.inner.tenant_stats()
    }

    fn breakdown(&self) -> Option<BreakdownReport> {
        self.inner.breakdown()
    }

    fn stats(&self) -> HandleStats {
        self.inner.stats()
    }

    fn drain(&self) -> Result<u64, String> {
        self.inner.drain()
    }

    fn retry_after_hint_ms(&self) -> u64 {
        self.inner.retry_after_hint_ms()
    }

    fn prewarm(&self, fqdn: &str) -> Result<(), String> {
        self.inner.prewarm(fqdn)
    }

    fn warm_profile(&self) -> Vec<(String, f64)> {
        self.inner.warm_profile()
    }
}

/// [`LeaseSource`] decorator on the worker side of pull dispatch.
pub struct TimedLeases {
    pub inner: Arc<dyn LeaseSource>,
    pub tracer: Arc<Tracer>,
    pub worker: usize,
}

impl LeaseSource for TimedLeases {
    fn pull(&self, worker: &str, max: usize) -> Vec<Lease> {
        let start = now_ns();
        let leases = self.inner.pull(worker, max);
        let mut s = Span::new(Kind::Pull, start, self.worker);
        s.n = leases.len() as u64;
        s.aux = leases.iter().filter(|l| l.stolen_from.is_some()).count() as u64;
        let end = s.end;
        self.tracer.record(s);
        for l in &leases {
            let mut s = Span::new(Kind::Lease, start, self.worker);
            s.end = end;
            s.id = l.task.id;
            s.aux = l.lease_id;
            s.fqdn = l.task.fqdn.clone();
            s.args = l.task.args.clone();
            self.tracer.record(s);
        }
        leases
    }

    fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool {
        let start = now_ns();
        let r = self.inner.complete(lease_id, ok, body, exec_ms);
        let mut s = Span::new(Kind::Complete, start, self.worker);
        s.id = lease_id;
        self.tracer.record(s);
        r
    }
}

/// Record the pull loop's execution of `task` (started at `start`), which
/// ran as worker trace `trace_id`.
pub fn record_exec(tracer: &Tracer, worker: usize, task: &PullTask, start: u64, trace_id: u64) {
    let mut s = Span::new(Kind::Exec, start, worker);
    s.id = task.id;
    s.aux = trace_id;
    s.fqdn = task.fqdn.clone();
    s.args = task.args.clone();
    tracer.record(s);
}
