//! Recovery properties under device-memory pressure and injected
//! faults (DESIGN.md §13).
//!
//! The contract these tests enforce: a multiply under a memory cap or
//! an injected device fault either *completes with the exact bitwise
//! result of an unconstrained run* (via the row-batched fallback) or
//! *returns a structured [`Error`]* — it never panics, and it never
//! leaks: after every run, successful or not, the device ends with
//! zero live bytes and its allocation timeline returns to zero.
//!
//! The malloc sweep is exhaustive: an OOM is injected at *every*
//! allocation index a clean run performs, one run per index, so no
//! allocation site can hide a leaky error path.
//!
//! `NSPARSE_FAULT_SEED` (set by `ci/check.sh`) seeds an extra derived
//! fault plan so CI exercises a reproducible but changeable case.
//! `NSPARSE_SANITIZE=1` (also a `ci/check.sh` gate) reruns the whole
//! suite with the device-memory sanitizer shadowing every allocation
//! (DESIGN.md §18): the OOM sweep's error/retry paths must then be
//! free of use-after-free, double-free, bounds and init violations —
//! `assert_no_leak` fails on any sanitizer report.

use nsparse_repro::prelude::*;
use sparse::spgemm_ref::spgemm_gustavson;

fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
    let mut s = seed;
    let mut t = Vec::new();
    for r in 0..n {
        for _ in 0..deg {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 5) as f64));
        }
    }
    Csr::from_triplets(n, n, &t).unwrap()
}

fn assert_bitwise_eq(x: &Csr<f64>, y: &Csr<f64>, what: &str) {
    assert_eq!(x.rpt(), y.rpt(), "{what}: row pointer differs");
    assert_eq!(x.col(), y.col(), "{what}: columns differ");
    let xb: Vec<u64> = x.val().iter().map(|v| v.to_bits()).collect();
    let yb: Vec<u64> = y.val().iter().map(|v| v.to_bits()).collect();
    assert_eq!(xb, yb, "{what}: values differ bitwise");
}

/// Construct the device under test, with the sanitizer attached when
/// the `NSPARSE_SANITIZE` CI gate asks for it.
fn test_gpu(cfg: DeviceConfig) -> Gpu {
    let mut gpu = Gpu::new(cfg);
    if std::env::var("NSPARSE_SANITIZE").is_ok() {
        gpu.enable_sanitizer();
    }
    gpu
}

/// The device must be fully drained: no live bytes, no live allocation
/// ids, and (when telemetry tracked a timeline) the last event at zero.
/// Under `NSPARSE_SANITIZE` the shadow state must be clean too.
fn assert_no_leak(gpu: &Gpu, what: &str) {
    assert_eq!(gpu.live_mem_bytes(), 0, "{what}: live bytes leaked");
    assert_eq!(gpu.memory().live_allocs(), 0, "{what}: allocation ids leaked");
    if let Some(last) = gpu.memory().timeline().last() {
        assert_eq!(last.live_after, 0, "{what}: timeline does not end at zero");
    }
    assert!(gpu.san_reports().is_empty(), "{what}: sanitizer reports:\n{}", gpu.san_jsonl());
}

/// Reference result and the number of device mallocs a clean run makes.
fn clean_run(a: &Csr<f64>) -> (Csr<f64>, u64) {
    let mut gpu = test_gpu(DeviceConfig::p100());
    gpu.enable_telemetry();
    let mut exec = SimExecutor::new(&mut gpu);
    let c = exec.multiply(a, a, &Options::default()).unwrap().matrix;
    let mallocs = gpu.telemetry_summary().unwrap().counter("mem.allocs").unwrap();
    assert_no_leak(&gpu, "clean run");
    (c, mallocs)
}

/// One faulted, capacity-capped run through the batched fallback.
/// Returns the result plus the GPU's post-run leak state already
/// checked; panics (test failure) only on a contract violation.
fn faulted_run(
    a: &Csr<f64>,
    c_ref: &Csr<f64>,
    capacity: u64,
    plan: FaultPlan,
    what: &str,
) -> Result<(), Error> {
    let mut gpu = test_gpu(DeviceConfig::p100_with_memory(capacity));
    gpu.enable_telemetry();
    gpu.set_fault_plan(plan);
    let result = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(a, a, &Options::default())
    };
    assert_no_leak(&gpu, what);
    match result {
        Ok(run) => {
            assert_bitwise_eq(&run.matrix, c_ref, what);
            Ok(())
        }
        Err(e) => {
            // Structured, not a panic: every error classifies.
            let _ = (e.kind(), e.recovery());
            Err(e)
        }
    }
}

/// Tentpole acceptance sweep: inject an OOM at every malloc index of
/// the clean run. At full device capacity a one-shot OOM must always
/// be *recovered* (the batched retry re-runs and the fault is spent);
/// the output must match the clean run bitwise.
#[test]
fn malloc_oom_sweep_recovers_at_full_capacity() {
    let a = rand_mat(150, 5, 11);
    let (c_ref, mallocs) = clean_run(&a);
    assert!(mallocs > 0);
    for nth in 1..=mallocs {
        let plan = FaultPlan::new(nth).malloc_oom(nth);
        faulted_run(
            &a,
            &c_ref,
            DeviceConfig::p100().device_mem_bytes,
            plan,
            &format!("oom at malloc #{nth}/{mallocs}, full capacity"),
        )
        .unwrap_or_else(|e| panic!("malloc #{nth} did not recover: {e}"));
    }
}

/// The same sweep under a halved forecast budget: batching is already
/// active, the injected OOM lands inside some batch, and the retry
/// loop must still converge to the exact result or return a structured
/// error — never panic, never leak.
#[test]
fn malloc_oom_sweep_under_memory_pressure() {
    let a = rand_mat(150, 5, 11);
    let (c_ref, mallocs) = clean_run(&a);
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();
    let mut recovered = 0u64;
    for nth in 1..=mallocs {
        let plan = FaultPlan::new(nth).malloc_oom(nth);
        if faulted_run(&a, &c_ref, est / 2, plan, &format!("oom at malloc #{nth}/{mallocs}, est/2"))
            .is_ok()
        {
            recovered += 1;
        }
    }
    // A one-shot fault against a 4-retry loop: every index recovers.
    assert_eq!(recovered, mallocs, "some injected OOMs failed to recover");
}

/// Batched output equals the unconstrained output bitwise when the
/// forecast exceeds capacity by 2x and 4x (the ISSUE's acceptance
/// bound), and the unbatched path genuinely cannot run at those caps.
#[test]
fn batched_fallback_is_bitwise_identical_under_4x_pressure() {
    let a = rand_mat(400, 7, 23);
    let c_ref = spgemm_gustavson(&a, &a).unwrap();
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();

    let mut g_full = test_gpu(DeviceConfig::p100());
    let c_full = nsparse_core::multiply(&mut g_full, &a, &a, &Options::default()).unwrap().0;
    assert_bitwise_eq(&c_full, &c_ref, "unconstrained vs reference structure");
    let peak = g_full.peak_mem_bytes();

    // A cap below the real peak: the plain pipeline must report a
    // structured, retryable OOM (and leak nothing).
    let mut g_oom = test_gpu(DeviceConfig::p100_with_memory(peak * 3 / 4));
    let err = nsparse_core::multiply(&mut g_oom, &a, &a, &Options::default()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::DeviceOom);
    assert_eq!(err.recovery(), Recovery::RetrySmallerBatch);
    assert_no_leak(&g_oom, "plain multiply OOM");

    for denom in [2u64, 4] {
        let mut gpu = test_gpu(DeviceConfig::p100_with_memory(est / denom));
        gpu.enable_telemetry();
        let (run, batches) = {
            let mut exec = BatchedExecutor::sim(&mut gpu);
            let run = exec.multiply(&a, &a, &Options::default()).unwrap();
            (run, exec.batches_used())
        };
        assert!(batches > 1, "est/{denom} must force batching");
        assert_bitwise_eq(&run.matrix, &c_full, &format!("batched at est/{denom}"));
        assert!(run.report.peak_mem_bytes <= est / denom);
        assert_no_leak(&gpu, &format!("batched at est/{denom}"));
    }
}

/// When every retry is struck by a fresh injected OOM, the loop gives
/// up with `CapacityExhausted` carrying the forecast-vs-capacity
/// diagnostic — classified as an unrecoverable DeviceOom.
#[test]
fn exhausted_retries_return_capacity_diagnostic() {
    let a = rand_mat(120, 5, 31);
    let mut plan = FaultPlan::new(99);
    for nth in 1..=40 {
        plan = plan.malloc_oom(nth);
    }
    let mut gpu = test_gpu(DeviceConfig::p100());
    gpu.set_fault_plan(plan);
    let err = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(&a, &a, &Options::default()).unwrap_err()
    };
    assert_no_leak(&gpu, "exhausted retries");
    match err {
        Error::CapacityExhausted(d) => {
            assert_eq!(d.attempts, 5, "4 retries = 5 batched attempts");
            assert_eq!(d.capacity, DeviceConfig::p100().device_mem_bytes);
            assert!(d.estimate_upper > 0);
            assert!(d.smallest_budget < d.capacity, "budget must have halved");
            assert!(d.detail.contains("injected"), "cause chain lost: {}", d.detail);
        }
        other => panic!("expected CapacityExhausted, got {other}"),
    }
    // The diagnostic is an OOM by kind but not retryable.
    let err2 = Error::CapacityExhausted(nsparse_core::CapacityDiagnostic {
        estimate_upper: 2,
        capacity: 1,
        attempts: 5,
        smallest_budget: 1,
        detail: String::new(),
    });
    assert_eq!(err2.kind(), ErrorKind::DeviceOom);
    assert_eq!(err2.recovery(), Recovery::Fatal);
}

/// Kernel faults are not memory pressure: they classify as `Kernel`
/// and — since DESIGN.md §17 — as *transient* ([`Recovery::
/// RetryAfterBackoff`]): no batch size can fix a faulting kernel, but a
/// retry on the same device can outlive a transient launch failure, and
/// the engine's retry/backoff loop plus circuit breaker own that
/// policy. With no retry budget the fault is still terminal here — and
/// it leaks nothing.
#[test]
fn kernel_fault_classifies_transient_and_leak_free() {
    let a = rand_mat(100, 5, 17);
    let mut gpu = test_gpu(DeviceConfig::p100());
    gpu.set_fault_plan(FaultPlan::new(3).kernel_fail("count_products"));
    let err = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(&a, &a, &Options::default()).unwrap_err()
    };
    assert_eq!(err.kind(), ErrorKind::Kernel);
    assert_eq!(err.recovery(), Recovery::RetryAfterBackoff);
    assert!(err.to_string().contains("count_products"));
    assert_no_leak(&gpu, "kernel fault");
}

/// A square matrix that reaches every sim kernel. A fifth of the rows
/// are empty and most have 1–4 scattered entries; some have 20, 16
/// wide rows have 2000, and four hub rows select ten wide rows each
/// (no other row selects a hub or wide row). Hub rows overflow
/// the shared tables of both phases at low compression (global tables,
/// or merge under the adaptive policy); wide and 20-entry rows make ESC
/// groups; and a one-element sample that lands on an empty row
/// under-estimates its row, which the replan pass then recounts.
fn every_kernel_matrix() -> Csr<f64> {
    let n = 16_384;
    let mut s = 29u64;
    let mut next = |m: usize| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as usize % m
    };
    let mut t = Vec::new();
    let hub = |r: usize| r % 4096 == 7;
    let wide = |r: usize| r % 1024 == 11;
    for r in 0..n {
        let deg = match r {
            _ if hub(r) => 10,
            _ if wide(r) => 2000,
            _ if r % 50 == 3 => 20,
            _ if r % 5 == 0 => 0,
            _ => 1 + next(4),
        };
        for _ in 0..deg {
            let col = match next(n) {
                _ if hub(r) => 11 + 1024 * next(16),
                c if hub(c) || wide(c) => c + 1,
                c => c,
            };
            t.push((r, col as u32, 1.0 + next(5) as f64));
        }
    }
    Csr::from_triplets(n, n, &t).unwrap()
}

/// The same contract at every kernel the sim pipeline launches: each
/// distinct kernel name of a clean run (scans and memsets included) is
/// made to fail in turn, and the multiply must return a `Kernel` error
/// with every device buffer freed — the group-0 tables, the count
/// overflow and replan tables and the merge buffers among them.
#[test]
fn kernel_fault_sweep_leaks_nothing_at_any_kernel() {
    let a = every_kernel_matrix();
    let sampled = Estimator::Sampled { sample: 1 };
    let mut swept = std::collections::BTreeSet::new();
    for (policy, estimator) in [
        (AlgorithmPolicy::Adaptive, Estimator::Exact),
        (AlgorithmPolicy::Adaptive, sampled),
        (AlgorithmPolicy::HashOnly, sampled),
    ] {
        let opts = Options { policy, estimator, ..Options::default() };
        let mut gpu = test_gpu(DeviceConfig::p100());
        SimExecutor::new(&mut gpu).multiply(&a, &a, &opts).unwrap();
        // Mallocs are profiled as zero-block records; only launches fail.
        let kernels = gpu.profiler().kernel_table().into_iter().filter(|k| k.blocks > 0);
        let names: Vec<String> = kernels.map(|k| k.name).collect();
        for name in names {
            if !swept.insert(name.clone()) {
                continue;
            }
            let what = format!("{policy} policy, {estimator} estimator, kernel {name} failing");
            let mut gpu = test_gpu(DeviceConfig::p100());
            gpu.set_fault_plan(FaultPlan::new(1).kernel_fail(name.as_str()));
            let Err(err) = SimExecutor::new(&mut gpu).multiply(&a, &a, &opts) else {
                panic!("{what}: the multiply succeeded");
            };
            assert_eq!(err.kind(), ErrorKind::Kernel, "{what}: {err}");
            assert_no_leak(&gpu, &what);
        }
    }
    for kernel in [
        "memset",
        "symbolic_tb",
        "symbolic_pwarp",
        "symbolic_esc",
        "symbolic_merge",
        "symbolic_global",
        "symbolic_replan",
        "numeric_tb",
        "numeric_pwarp",
        "numeric_esc",
        "numeric_merge",
        "numeric_global",
    ] {
        assert!(swept.iter().any(|n| n.starts_with(kernel)), "{kernel} never ran: {swept:?}");
    }
}

/// Memcpy faults surface as structured kernel-class errors through the
/// taxonomy's `From<GpuError>` conversion, retryable like any other
/// transient device fault.
#[test]
fn memcpy_fault_classifies_as_kernel_error() {
    let mut gpu = test_gpu(DeviceConfig::p100());
    gpu.set_fault_plan(FaultPlan::new(5).memcpy_fail(2));
    gpu.memcpy(1024, true).unwrap();
    let ge = gpu.memcpy(1024, false).unwrap_err();
    let err: Error = ge.into();
    assert_eq!(err.kind(), ErrorKind::Kernel);
    assert_eq!(err.recovery(), Recovery::RetryAfterBackoff);
    assert!(err.to_string().contains("memcpy"));
    assert_no_leak(&gpu, "memcpy fault");
}

/// Fault plans are serializable (CLI `--faults` round-trip) and the
/// seeded derivation is deterministic, so any CI failure reproduces
/// from the printed spec alone.
#[test]
fn fault_plans_round_trip_and_derive_deterministically() {
    let plan = FaultPlan::new(7).malloc_oom(3).kernel_fail("numeric_tb_g1").memcpy_fail(2);
    let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
    assert_eq!(plan, reparsed);
    assert_eq!(FaultPlan::seeded_malloc_oom(42, 100), FaultPlan::seeded_malloc_oom(42, 100));
}

/// CI hook: `NSPARSE_FAULT_SEED` derives a malloc-OOM index from the
/// environment, so the gate pins one reproducible injection per run.
#[test]
fn seeded_fault_from_environment_recovers() {
    let seed = std::env::var("NSPARSE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(2017);
    let a = rand_mat(150, 5, 11);
    let (c_ref, mallocs) = clean_run(&a);
    let plan = FaultPlan::seeded_malloc_oom(seed, mallocs);
    faulted_run(
        &a,
        &c_ref,
        DeviceConfig::p100().device_mem_bytes,
        plan.clone(),
        &format!("seeded fault {plan}"),
    )
    .unwrap_or_else(|e| panic!("seeded fault {plan} did not recover: {e}"));
}
