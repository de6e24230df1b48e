//! Replay a (compressed) Azure-like trace sample through a live worker —
//! the in-situ simulation workflow of §3.4: the full control plane runs,
//! functions are null-backend sleeps.
//!
//! Run with: `cargo run --release --example trace_replay`

use iluvatar::prelude::*;
use iluvatar::WorkerTarget;
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_trace::loadgen::{InvokerTarget, OpenLoopRunner, ScheduledInvocation};
use std::sync::Arc;

fn main() {
    // A 30-minute slice of a small synthetic population, compressed 100×
    // so the replay takes ~18s of wall time.
    let trace = SyntheticAzureTrace::generate(&AzureTraceConfig {
        apps: 40,
        duration_ms: 30 * 60_000,
        seed: 42,
        diurnal_fraction: 0.0,
        rate_scale: 1.0,
    });
    let time_scale = 0.01;
    println!(
        "trace: {} functions, {} invocations over {} virtual minutes",
        trace.profiles.len(),
        trace.events.len(),
        trace.duration_ms / 60_000
    );

    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        name: "replay".into(),
        cores: 48,
        memory_mb: 8 * 1024,
        keepalive: KeepalivePolicyKind::Gdsf,
        concurrency: ConcurrencyConfig {
            limit: 128,
            ..Default::default()
        },
        ..Default::default()
    };
    let worker = Arc::new(Worker::new(cfg, backend, clock));
    for p in &trace.profiles {
        let (name, version) = p.fqdn.rsplit_once('-').unwrap_or((p.fqdn.as_str(), "fn0"));
        worker
            .register(
                FunctionSpec::new(name, version)
                    .with_timing(p.warm_ms, p.init_ms)
                    .with_limits(ResourceLimits {
                        cpus: 1.0,
                        memory_mb: p.memory_mb,
                    }),
            )
            .unwrap();
    }

    let schedule: Vec<ScheduledInvocation> = trace
        .events
        .iter()
        .map(|e| ScheduledInvocation {
            at_ms: (e.time_ms as f64 * time_scale) as u64,
            fqdn: trace.profiles[e.func as usize].fqdn.clone(),
            args: "{}".to_string(),
            tenant: None,
        })
        .collect();
    let runner = OpenLoopRunner::new(schedule);
    println!("replaying at {}x compression...", (1.0 / time_scale) as u64);
    let out = runner.run(Arc::new(WorkerTarget(Arc::clone(&worker))) as Arc<dyn InvokerTarget>);

    let served = out.iter().filter(|o| !o.dropped).count();
    let cold = out.iter().filter(|o| o.cold).count();
    let dropped = out.len() - served;
    let mut overheads: Vec<f64> = out
        .iter()
        .filter(|o| !o.dropped)
        .map(|o| o.overhead_us() as f64 / 1_000.0)
        .collect();
    overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p = |q: f64| iluvatar_sync::stats::percentile_of_sorted(&overheads, q);
    println!(
        "\nserved {served} ({cold} cold, {:.2}% cold ratio), dropped {dropped}",
        100.0 * cold as f64 / served.max(1) as f64
    );
    println!(
        "control-plane overhead: p50 {:.3}ms p99 {:.3}ms",
        p(0.5),
        p(0.99)
    );
    let st = worker.pool_stats();
    println!(
        "keep-alive pool: {} idle containers, {}MB used, {} evictions, {} expirations",
        st.idle_containers, st.used_mb, st.evictions, st.expirations
    );
}
