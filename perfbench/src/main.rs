//! Open-loop benchmark of the Ilúvatar control plane.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Stands the real stack up in this process (see `stack.rs`), drives it
//! over loopback HTTP with a seeded open-loop schedule, checks every reply,
//! and prints a human report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `NOTE.md` describes the workloads, the metrics and what each layer is
//! expected to move.

mod client;
mod gen;
mod host;
mod layers;
mod micro;
mod stack;
mod stats;
mod trace;
mod verify;

use client::Phase;
use gen::Req;
use layers::Counters;
use stack::{Stack, Workload};
use stats::{median, pctl};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in output order, with units. The
/// nominal-rate p99 is printed too but kept out of the JSON, and the
/// saturation rate is measured by the traced run: on a shared two-core host
/// both swing between runs of the same code by more than any bound of at
/// most 25 % (see `NOTE.md`). The traced run reports them as
/// `nominal.latency_p99_us` and `saturation.sat_rps`.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_us", "us"),
    ("cpu_us_per_inv", "us"),
    ("warm_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
const PER_LAYER: [(&str, &str); 52] = [
    ("nominal.latency_p99_us", "us"),
    ("saturation.sat_rps", "1/s"),
    ("containers.invoke_p50_us", "us"),
    ("containers.create_p50_us", "us"),
    ("containers.creates_per_inv", "count/inv"),
    ("containers.destroys_per_inv", "count/inv"),
    ("wal.write_p50_us", "us"),
    ("wal.sync_p50_us", "us"),
    ("wal.sync_p99_us", "us"),
    ("wal.syncs_per_inv", "count/inv"),
    ("wal.bytes_per_inv", "B/inv"),
    ("lb.worker_rpc_p50_us", "us"),
    ("lb.self_p50_us", "us"),
    ("lb.self_p99_us", "us"),
    ("worker.self_p50_us", "us"),
    ("worker.self_p99_us", "us"),
    ("dispatch.lease_wait_p50_us", "us"),
    ("dispatch.exec_p50_us", "us"),
    ("dispatch.complete_p50_us", "us"),
    ("dispatch.result_wait_p50_us", "us"),
    ("dispatch.leases_per_pull", "count"),
    ("dispatch.empty_pull_ratio", "ratio"),
    ("dispatch.steal_ratio", "ratio"),
    ("dispatch.expired", "count"),
    ("telemetry.events_per_inv", "count/inv"),
    ("telemetry.lb_events_per_inv", "count/inv"),
    ("pool.evictions_per_inv", "count/inv"),
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced", "count"),
    ("cache.hit_p50_us", "us"),
    ("cache.miss_p50_us", "us"),
    ("trace.overhead_p50_us", "us"),
    ("trace.linked_requests", "count"),
    ("gen.lateness_p99_us", "us"),
    ("http.parse_request_ns", "ns"),
    ("http.roundtrip_p50_us", "us"),
    ("containers.agent_invoke_p50_us", "us"),
    ("containers.cold_create_p50_us", "us"),
    ("core.invoke_p50_us", "us"),
    ("wal.append_p50_us.never.t1", "us"),
    ("wal.append_p50_us.never.t2", "us"),
    ("wal.append_p50_us.group.t1", "us"),
    ("wal.append_p50_us.group.t2", "us"),
    ("wal.append_p50_us.always.t1", "us"),
    ("wal.append_p50_us.always.t2", "us"),
    ("queue.push_pop_ns", "ns"),
    ("cache.lookup_hit_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("admission.admit_ns", "ns"),
    ("lb.chbl_pick_ns", "ns"),
    ("dispatch.cycle_p50_us", "us"),
    ("telemetry.emit_ns", "ns"),
];

/// Stacks built per run; `setup_s` is their median build time.
const SETUPS: usize = 11;
/// Unmeasured traffic at the nominal rate before measuring, so pools,
/// caches and connections reach their steady state.
const WARMUP_S: f64 = 1.5;
/// Windows of the nominal phase whose lowest p50 is reported.
const P50_WINDOWS: usize = 10;
/// Most windows whose median p99 is reported.
const P99_WINDOWS: usize = 5;
/// Minimum samples of a window whose p99 enters the reported median.
const P99_WINDOW_SAMPLES: usize = 1_000;
/// A phase whose generator lateness p99 exceeds this is invalid.
const LATENESS_BOUND_US: f64 = 10_000.0;
/// How long past a phase's end its last requests may still be sent.
const SEND_GRACE_US: u64 = 40_000;
/// Saturation phase: completions are counted in windows of this length.
const SAT_WINDOW_S: f64 = 0.5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = stack::workload(name).ok_or_else(|| {
        let names: Vec<&str> = stack::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-phase seed: every phase of a run draws its own stream.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(phase.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Everything one run shares across its phases.
struct Run {
    args: Args,
    dir: PathBuf,
    checker: verify::Checker,
    next_rid: u64,
    phases: u64,
    /// Generator lateness p99 of the measured phase, µs.
    lateness_p99_us: f64,
}

impl Run {
    fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<Req> {
        self.phases += 1;
        let reqs = gen::schedule(
            phase_seed(self.args.seed, self.phases),
            self.args.workload.mix,
            rate,
            seconds,
            self.next_rid,
        );
        self.next_rid += reqs.len() as u64 + 1;
        reqs
    }

    /// Drive one open-loop phase and check every reply.
    fn phase(&mut self, stack: &Stack, rate: f64, seconds: f64) -> (Vec<Req>, Phase) {
        let reqs = self.schedule(rate, seconds);
        let cutoff_us = (seconds * 1e6) as u64 + SEND_GRACE_US;
        let phase = client::run(stack.front, &reqs, cutoff_us);
        self.checker.check(&reqs, &phase);
        (reqs, phase)
    }

    fn build(&self, n: usize, traced: bool) -> Result<Stack, String> {
        Stack::build(
            self.args.workload,
            traced,
            self.dir.join(format!("stack{n}")),
        )
    }

    /// Retire a stack: cache hits are matched against its fills first.
    fn retire(&mut self, stack: Stack) {
        self.checker.finish_cache();
        drop(stack);
    }
}

fn latencies(phase: &Phase) -> Vec<f64> {
    phase
        .outcomes
        .iter()
        .filter(|o| o.ok())
        .map(|o| o.latency_us())
        .collect()
}

/// Latency p50 and p99 of a phase, over windows of equal duration (by due
/// time). The p50 is the lowest of [`P50_WINDOWS`] window p50s: the shared
/// host slows whole stretches of seconds at a time, by up to 3×, and the
/// quietest stretch is what the control plane itself costs. The p99 is the
/// median of the window p99s over as many windows (at most
/// [`P99_WINDOWS`]) as keep at least [`P99_WINDOW_SAMPLES`] samples in each,
/// i.e. at least ten beyond the p99. Also returns each window's (samples,
/// p50, p99).
fn windowed(phase: &Phase, seconds: f64) -> (f64, f64, Vec<(usize, u64, u64)>) {
    let split = |n: usize| -> Vec<Vec<f64>> {
        let mut w = vec![Vec::new(); n];
        for o in phase.outcomes.iter().filter(|o| o.ok()) {
            let r = (o.due - phase.start) as f64 / 1e9 / seconds;
            w[((r * n as f64) as usize).min(n - 1)].push(o.latency_us());
        }
        w
    };
    let fine = split(P50_WINDOWS);
    let p50 = fine
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| pctl(w, 0.5))
        .fold(f64::INFINITY, f64::min);
    let samples = fine.iter().map(Vec::len).sum::<usize>();
    let coarse = split((samples / P99_WINDOW_SAMPLES).clamp(1, P99_WINDOWS));
    let p99 = median(&coarse.iter().map(|w| pctl(w, 0.99)).collect::<Vec<_>>());
    let log = fine
        .iter()
        .map(|w| (w.len(), pctl(w, 0.5) as u64, pctl(w, 0.99) as u64))
        .collect();
    (p50, p99, log)
}

/// Generator lateness p99, µs; an error when it exceeds the bound.
fn lateness_p99(phase: &Phase) -> Result<f64, String> {
    let v: Vec<f64> = phase
        .outcomes
        .iter()
        .map(|o| o.lateness_ns as f64 / 1e3)
        .collect();
    let p99 = pctl(&v, 0.99);
    if p99 > LATENESS_BOUND_US {
        Err(format!(
            "invalid run: generator lateness p99 {p99:.0} µs exceeds {LATENESS_BOUND_US} µs"
        ))
    } else {
        Ok(p99)
    }
}

/// Saturation throughput. The schedule is offered faster than the stack can
/// serve it (the workload's `overload_rps`), so both connections always have
/// a request waiting and the stack runs flat out: this is the highest rate
/// the open loop can reach. Completions are counted by receive time in
/// windows of [`SAT_WINDOW_S`]; each window's rate is its completions after
/// the first over the time to the last. The reported rate is the highest
/// window's: the shared host slows whole stretches of seconds at a time, and
/// the quietest stretch is what the stack itself sustains. Also returns every
/// window's rate.
fn saturation(run: &mut Run, stack: &Stack, seconds: f64) -> (f64, Vec<f64>) {
    let (_, phase) = run.phase(stack, run.args.workload.overload_rps, seconds);
    if phase.unsent == 0 {
        eprintln!("warning: the saturation phase sent its whole schedule; raise overload_rps");
    }
    let windows = ((seconds / SAT_WINDOW_S) as usize).max(1);
    let mut recv: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for o in phase.outcomes.iter().filter(|o| o.ok()) {
        let i = ((o.recv - phase.start) as f64 / 1e9 / SAT_WINDOW_S) as usize;
        if let Some(w) = recv.get_mut(i) {
            w.push(o.recv);
        }
    }
    let rates: Vec<f64> = recv
        .iter()
        .filter(|w| w.len() > 1)
        .map(|w| {
            let (first, last) = (w.iter().min().unwrap(), w.iter().max().unwrap());
            (w.len() - 1) as f64 / ((last - first) as f64 / 1e9)
        })
        .collect();
    (rates.iter().copied().fold(0.0, f64::max), rates)
}

fn end_to_end(run: &mut Run) -> Result<Vec<(&'static str, f64)>, String> {
    let w = run.args.workload;
    let mut setups = Vec::new();
    let mut stack = None;
    let setup_wall = Instant::now();
    for n in 0..SETUPS {
        // Tear the previous build down outside the timed section.
        drop(stack.take());
        let t = Instant::now();
        stack = Some(run.build(n, false)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one setup");
    let setup_wall = setup_wall.elapsed().as_secs_f64();
    run.phase(&stack, w.nominal_rps, WARMUP_S);

    let nominal_s = run.args.seconds;
    let (cpu0, pool0) = (host::cpu_us(), stack.pool_totals());
    let (_, phase) = run.phase(&stack, w.nominal_rps, nominal_s);
    let (cpu1, pool1) = (host::cpu_us(), stack.pool_totals());
    let late = lateness_p99(&phase)?;
    run.lateness_p99_us = late;
    let lat = latencies(&phase);
    let warm = (pool1.0 - pool0.0) as f64;
    let cold = (pool1.1 - pool0.1) as f64;
    let (p50, p99, windows) = windowed(&phase, nominal_s);
    eprintln!(
        "nominal {} rps {nominal_s:.1}s: {} samples, generator lateness p99 {late:.0} µs, \
         {cold} cold of {} invocations; windows (n, p50, p99): {windows:?}",
        w.nominal_rps,
        lat.len(),
        warm + cold
    );
    let metrics = vec![
        ("latency_p50_us", p50),
        ("latency_p99_us", p99),
        ("cpu_us_per_inv", (cpu1 - cpu0) / lat.len().max(1) as f64),
        ("warm_ratio", warm / (warm + cold).max(1.0)),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("setup_s", median(&setups)),
    ];
    run.retire(stack);
    eprintln!(
        "cold_ratio {:.4} (reported as warm_ratio), setups {setups:?} \
         ({setup_wall:.2} s with teardowns)",
        cold / (warm + cold).max(1.0)
    );
    Ok(metrics)
}

fn counters(stack: &Stack) -> Counters {
    let (_, _, evictions) = stack.pool_totals();
    let cache = stack
        .cluster
        .as_ref()
        .map(|c| c.cache_stats())
        .unwrap_or_default();
    Counters {
        evictions,
        worker_events: stack.worker_event_total(),
        lb_events: stack.lb_events.as_ref().map_or(0, |s| s.count()),
        cache_hits: cache.iter().map(|t| t.hits).sum(),
        cache_misses: cache.iter().map(|t| t.misses).sum(),
        cache_coalesced: cache.iter().map(|t| t.coalesced).sum(),
        expired: stack.plane.as_ref().map_or(0, |p| p.counters().expired),
    }
}

fn per_layer(run: &mut Run) -> Result<Vec<(&'static str, f64)>, String> {
    let w = run.args.workload;
    let secs = run.args.seconds;

    // Untraced reference for the tracing overhead and the nominal p99, then
    // the saturation rate on the same stack.
    let stack = run.build(0, false)?;
    run.phase(&stack, w.nominal_rps, WARMUP_S);
    let (_, phase) = run.phase(&stack, w.nominal_rps, secs * 0.25);
    lateness_p99(&phase)?;
    let untraced_p50 = pctl(&latencies(&phase), 0.5);
    let (_, nominal_p99, _) = windowed(&phase, secs * 0.25);
    let (sat, rates) = saturation(run, &stack, secs * 0.2);
    let rates: Vec<u64> = rates.iter().map(|r| *r as u64).collect();
    eprintln!("saturation: {sat:.0} rps; window rates {rates:?}");
    run.retire(stack);

    let stack = run.build(1, true)?;
    let tracer = stack.tracer.clone().expect("traced stack has a tracer");
    run.phase(&stack, w.nominal_rps, WARMUP_S);
    let before = counters(&stack);
    tracer.drain();
    let (reqs, phase) = run.phase(&stack, w.nominal_rps, secs * 0.4);
    let spans = tracer.drain();
    let after = counters(&stack);
    run.lateness_p99_us = lateness_p99(&phase)?;
    let traced_p50 = pctl(&latencies(&phase), 0.5);
    let (mut metrics, errors) = layers::analyse(w.target, &reqs, &phase, &spans, before, after);
    run.retire(stack);
    if !errors.is_empty() {
        for e in errors.iter().take(10) {
            eprintln!("linkage: {e}");
        }
        return Err(format!(
            "traced run failed its linkage check ({} errors)",
            errors.len()
        ));
    }
    eprintln!(
        "traced phase: {} spans, {} requests linked",
        spans.len(),
        metrics
            .iter()
            .find(|(n, _)| *n == "trace.linked_requests")
            .map_or(0.0, |m| m.1)
    );
    metrics.push(("trace.overhead_p50_us", traced_p50 - untraced_p50));
    metrics.push(("nominal.latency_p99_us", nominal_p99));
    metrics.push(("saturation.sat_rps", sat));
    metrics.extend(micro::run(&run.dir));
    Ok(metrics)
}

fn json_metrics(list: &[(&str, &str)], values: &[(&'static str, f64)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in list {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|m| m.1)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

fn host_facts(dir: &Path, w: &Workload, lo_before: u64) -> String {
    let crossed = host::loopback_rx_bytes() > lo_before;
    format!(
        "host: cores={} rustc=\"{}\" wal_fs={} loopback={} workload={} target={:?}",
        host::cores(),
        env!("PERFBENCH_RUSTC"),
        host::fs_type(dir),
        crossed,
        w.name,
        w.target
    )
}

/// The same seed must give the same schedule; another seed another one.
fn check_generator(a: &Args) -> Result<u64, String> {
    let one = |seed: u64| gen::digest(&gen::schedule(seed, a.workload.mix, 200.0, 2.0, 0));
    let d = one(a.seed);
    if one(a.seed) != d {
        return Err("the same seed gave two different schedules".into());
    }
    if one(a.seed.wrapping_add(1)) == d {
        return Err("two seeds gave the same schedule".into());
    }
    Ok(d)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let digest = match check_generator(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: generator check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let lo_before = host::loopback_rx_bytes();
    let mut run = Run {
        args,
        dir: dir.clone(),
        checker: verify::Checker::default(),
        next_rid: 1,
        phases: 0,
        lateness_p99_us: 0.0,
    };
    eprintln!(
        "perfbench {} ({}) seed={} seconds={} trace={} schedule digest {digest:016x}",
        run.args.workload.name,
        run.args.workload.why,
        run.args.seed,
        run.args.seconds,
        run.args.trace
    );
    let measured = if run.args.trace {
        per_layer(&mut run)
    } else {
        end_to_end(&mut run)
    };
    let facts = host_facts(&dir, run.args.workload, lo_before);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let metrics = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let list: &[(&str, &str)] = if run.args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let body = match json_metrics(list, &metrics) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let c = &run.checker;
    println!("{facts}");
    println!(
        "generator: open loop, {} connections, schedule digest {digest:016x}, \
         lateness p99 {:.0} us (bound {LATENESS_BOUND_US} us)",
        client::CONNECTIONS,
        run.lateness_p99_us
    );
    for (name, unit) in list {
        if let Some((_, v)) = metrics.iter().find(|(n, _)| n == name) {
            println!("  {name:<34} {v:>14.3} {unit}");
        }
    }
    for (name, v) in metrics
        .iter()
        .filter(|(n, _)| !list.iter().any(|(l, _)| l == n))
    {
        println!("  {name:<34} {v:>14.3} (not in the JSON)");
    }
    println!(
        "  {:<34} {:>14.6} ratio ({} failed of {} attempted)",
        "fail_ratio",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    if let Some(p) = &c.first_problem {
        println!("first problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        c.correct(),
        c.attempted.max(1),
        c.failed
    );
    if c.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
