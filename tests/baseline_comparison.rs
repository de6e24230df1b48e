//! Integration: the headline comparison — Ilúvatar's control-plane
//! overhead must be far below the OpenWhisk model's for the same workload
//! on the same machine (the Figure 1 claim, at test scale).

use iluvatar::prelude::*;
use iluvatar::{OpenWhiskTarget, WorkerTarget};
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_trace::loadgen::{closed_loop, ClosedLoopConfig, InvokerTarget};
use std::sync::Arc;

fn percentile(xs: &[f64], q: f64) -> f64 {
    iluvatar_sync::stats::percentile(xs, q)
}

#[test]
fn iluvatar_overhead_far_below_openwhisk() {
    let spec = FbApp::PyAes.spec(); // 20ms warm function

    // Ilúvatar worker, real wall-clock, null backend.
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 1.0,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        name: "cmp".into(),
        cores: 8,
        memory_mb: 8 * 1024,
        concurrency: ConcurrencyConfig {
            limit: 16,
            ..Default::default()
        },
        ..Default::default()
    };
    let worker = Arc::new(Worker::new(cfg, backend, clock));
    worker.register(spec.clone()).unwrap();
    for _ in 0..4 {
        worker.prewarm("pyaes-1").unwrap();
    }
    let ilu = closed_loop(
        Arc::new(WorkerTarget(Arc::clone(&worker))) as Arc<dyn InvokerTarget>,
        "pyaes-1",
        &ClosedLoopConfig {
            clients: 4,
            invocations_per_client: 25,
            warmup_per_client: 3,
        },
    );
    let ilu_over: Vec<f64> = ilu
        .iter()
        .filter(|o| !o.dropped && !o.cold)
        .map(|o| o.overhead_us() as f64)
        .collect();

    // OpenWhisk model, same conditions.
    let ow = Arc::new(OpenWhiskModel::new(
        OpenWhiskConfig {
            cores: 8,
            invoker_slots: 16,
            ..Default::default()
        },
        SystemClock::shared(),
    ));
    ow.register(spec);
    for _ in 0..4 {
        ow.invoke("pyaes-1");
    }
    let oww = closed_loop(
        Arc::new(OpenWhiskTarget(Arc::clone(&ow))) as Arc<dyn InvokerTarget>,
        "pyaes-1",
        &ClosedLoopConfig {
            clients: 4,
            invocations_per_client: 25,
            warmup_per_client: 3,
        },
    );
    let ow_over: Vec<f64> = oww
        .iter()
        .filter(|o| !o.dropped && !o.cold)
        .map(|o| o.overhead_us() as f64)
        .collect();

    assert!(!ilu_over.is_empty() && !ow_over.is_empty());
    let ilu_p50 = percentile(&ilu_over, 0.5);
    let ow_p50 = percentile(&ow_over, 0.5);
    assert!(
        ilu_p50 < 10_000.0,
        "iluvatar warm overhead should be single-digit ms, got {ilu_p50}us"
    );
    assert!(
        ow_p50 > ilu_p50 * 2.0,
        "openwhisk median overhead ({ow_p50}us) must dwarf iluvatar's ({ilu_p50}us)"
    );
    let ow_p99 = percentile(&ow_over, 0.99);
    assert!(
        ow_p99 >= 20_000.0,
        "openwhisk p99 should show heavy tails, got {ow_p99}us"
    );
}

#[test]
fn openwhisk_ttl_loses_rare_functions_iluvatar_gd_keeps_them() {
    // A function invoked every 11 virtual minutes: dead under the 10-minute
    // TTL, alive under work-conserving GD keep-alive.
    let events: Vec<(u64, u32)> = (0..8).map(|i| (i * 11 * 60_000, 0u32)).collect();
    let profile = iluvatar_trace::azure::FunctionProfile {
        fqdn: "rare-1".into(),
        app: 0,
        mean_iat_ms: 11.0 * 60_000.0,
        warm_ms: 500,
        init_ms: 3_000,
        memory_mb: 256,
        diurnal: false,
    };
    let mk = |policy| {
        let evs: Vec<iluvatar_trace::azure::TraceEvent> = events
            .iter()
            .map(|&(t, f)| iluvatar_trace::azure::TraceEvent {
                time_ms: t,
                func: f,
            })
            .collect();
        KeepaliveSim::run(vec![profile.clone()], &evs, SimConfig::new(policy, 4_096))
    };
    let ttl = mk(KeepalivePolicyKind::Ttl);
    let gd = mk(KeepalivePolicyKind::Gdsf);
    assert_eq!(ttl.cold, 8, "TTL expires before every arrival");
    assert_eq!(gd.cold, 1, "GD keeps the container warm indefinitely");
    assert!(gd.exec_increase_pct() < ttl.exec_increase_pct() / 4.0);
}
