//! Figure 1 — control-plane latency overhead vs concurrent invocations.
//!
//! Methodology (§2.3): "we are invoking the function repeatedly in a
//! closed-loop, and concurrent invocations are achieved by using multiple
//! client threads. All invocations are warm starts" on a 48-core server.
//! Overhead = end-to-end latency − function execution time; the figure
//! plots p50 and p99 for OpenWhisk and Ilúvatar, timed in µs and printed
//! in ms.
//!
//! Usage: `cargo run --release -p iluvatar-bench --bin fig1_overhead_scaling
//! [--full]`. Quick mode uses fewer invocations per point.

use iluvatar::prelude::*;
use iluvatar::{OpenWhiskTarget, WorkerTarget};
use iluvatar_bench::{full_run, pctl, print_table};
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_trace::loadgen::{closed_loop, ClosedLoopConfig, InvokerTarget};
use std::sync::Arc;

fn main() {
    let full = full_run();
    let clients_axis: Vec<usize> = if full {
        vec![1, 2, 4, 8, 16, 32, 48, 64, 96]
    } else {
        vec![1, 4, 16, 48]
    };
    let per_client = if full { 120 } else { 40 };
    // The Figure 1 workload: PyAES, a short warm function.
    let pyaes = FbApp::PyAes.spec(); // warm 20ms modelled

    let mut rows = Vec::new();
    for &clients in &clients_axis {
        // ---- Ilúvatar worker over the null backend, wall-clock time ----
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 1.0,
                ..Default::default()
            },
        ));
        let cfg = WorkerConfig {
            name: "fig1".into(),
            cores: 48,
            memory_mb: 64 * 1024,
            concurrency: ConcurrencyConfig {
                limit: 96,
                ..Default::default()
            },
            ..Default::default()
        };
        let worker = Arc::new(Worker::new(cfg, backend, clock));
        worker.register(pyaes.clone()).unwrap();
        // Prewarm one container per client so every measured run is warm.
        for _ in 0..clients {
            worker.prewarm("pyaes-1").unwrap();
        }
        let ilu_out = closed_loop(
            Arc::new(WorkerTarget(Arc::clone(&worker))) as Arc<dyn InvokerTarget>,
            "pyaes-1",
            &ClosedLoopConfig {
                clients,
                invocations_per_client: per_client,
                warmup_per_client: 5,
            },
        );
        let ilu_over: Vec<f64> = ilu_out
            .iter()
            .filter(|o| !o.dropped && !o.cold)
            .map(|o| o.overhead_us() as f64 / 1_000.0)
            .collect();

        // ---- OpenWhisk model, same environment -------------------------
        let ow = Arc::new(OpenWhiskModel::new(
            OpenWhiskConfig {
                cores: 48,
                invoker_slots: 96,
                ..Default::default()
            },
            SystemClock::shared(),
        ));
        ow.register(pyaes.clone());
        // Warm the pool.
        for _ in 0..clients {
            ow.invoke("pyaes-1");
        }
        let ow_out = closed_loop(
            Arc::new(OpenWhiskTarget(Arc::clone(&ow))) as Arc<dyn InvokerTarget>,
            "pyaes-1",
            &ClosedLoopConfig {
                clients,
                invocations_per_client: per_client,
                warmup_per_client: 5,
            },
        );
        let ow_over: Vec<f64> = ow_out
            .iter()
            .filter(|o| !o.dropped && !o.cold)
            .map(|o| o.overhead_us() as f64 / 1_000.0)
            .collect();

        rows.push(vec![
            clients.to_string(),
            format!("{:.3}", pctl(&ilu_over, 0.5)),
            format!("{:.3}", pctl(&ilu_over, 0.99)),
            format!("{:.3}", pctl(&ow_over, 0.5)),
            format!("{:.3}", pctl(&ow_over, 0.99)),
        ]);
    }

    print_table(
        "Figure 1: control-plane overhead (ms) vs concurrent clients (warm starts)",
        &[
            "clients",
            "iluvatar p50",
            "iluvatar p99",
            "openwhisk p50",
            "openwhisk p99",
        ],
        &rows,
    );
    println!("\nExpected shape: Ilúvatar ~1-3ms flat (≤10ms saturated); OpenWhisk ≥10ms median with 100s-of-ms p99 tails.");
}
