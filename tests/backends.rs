//! Backend-equivalence properties (quickprop): the simulated backend,
//! the host-thread backend at several thread counts, and the CPU
//! reference must all agree on arbitrary sparse matrices.
//!
//! The determinism contract (DESIGN.md §12) is stronger than "same
//! matrix": sim and host accumulate each output row in the same order
//! (A-row traversal), so their floating-point values are *bitwise*
//! identical, and the host result does not depend on the thread count.
//! Against the reference — which accumulates in a different order —
//! values are compared approximately, except on integer-valued inputs
//! where every order gives the exact same sums.

use nsparse_repro::prelude::*;
use quickprop::prelude::*;
use sparse::spgemm_ref::spgemm_gustavson;

/// Multiply on the host backend with `threads` workers.
fn host<T: Scalar>(a: &Csr<T>, threads: usize) -> Csr<T> {
    let mut exec = HostParallelExecutor::new(threads);
    exec.multiply(a, a, &Options::default()).unwrap().matrix
}

/// Multiply on the simulated backend.
fn sim<T: Scalar>(a: &Csr<T>) -> Csr<T> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    nsparse_core::multiply(&mut gpu, a, a, &Options::default()).unwrap().0
}

/// Bitwise equality of two CSR results (structure exact, values by bits).
fn assert_bitwise_eq(x: &Csr<f64>, y: &Csr<f64>, what: &str) {
    assert_eq!(x.rpt(), y.rpt(), "{what}: row pointer differs");
    assert_eq!(x.col(), y.col(), "{what}: columns differ");
    let xb: Vec<u64> = x.val().iter().map(|v| v.to_bits()).collect();
    let yb: Vec<u64> = y.val().iter().map(|v| v.to_bits()).collect();
    assert_eq!(xb, yb, "{what}: values differ bitwise");
}

/// Round a matrix's values to small integers (sums of products of small
/// integers are exact in f64, so cross-backend equality is exact too).
fn integerize(a: &Csr<f64>) -> Csr<f64> {
    let mut t = Vec::with_capacity(a.nnz());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            t.push((r, c, v.round().clamp(-4.0, 4.0)));
        }
    }
    Csr::from_triplets(a.rows(), a.cols(), &t).unwrap()
}

/// Input families for the host-vs-sim property: the square shapes are
/// multiplied by themselves; `Wide` multiplies a uniform `A` by a `B`
/// with the same pattern spread over more columns than the host's dense
/// accumulator admits, so its `Hash` rows take the hash-table fallback.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Banded,
    Uniform,
    PowerLaw,
    Wide,
}

/// Columns of the `Wide` shape's `B`: 12 MiB of f64 dense arrays per
/// worker, above the host's 6 MiB per-worker dense cap.
const WIDE_COLS: usize = 1 << 20;

fn shaped(shape: Shape, seed: u64) -> (Csr<f64>, Csr<f64>) {
    let n = 240;
    let a: Csr<f64> = match shape {
        Shape::Banded => matgen::generators::banded(n, 14.0, 28, 48, seed),
        Shape::Uniform | Shape::Wide => matgen::generators::random_uniform(n, 6.0, 24, seed),
        Shape::PowerLaw => matgen::generators::power_law(n, 6.0, 120, 1.1, 0.5, 16, seed),
    };
    if let Shape::Wide = shape {
        let stride = (WIDE_COLS / n) as u32;
        let cols = a.col().iter().map(|&c| c * stride + c % 7).collect();
        let b = Csr::from_parts(n, WIDE_COLS, a.rpt().to_vec(), cols, a.val().to_vec()).unwrap();
        return (a, b);
    }
    let b = a.clone();
    (a, b)
}

quickprop! {
    #![config(cases = 16)]

    #[test]
    fn host_rows_are_bitwise_equal_to_sim_for_every_accumulator(
        shape in prop_oneof![
            Just(Shape::Banded),
            Just(Shape::Uniform),
            Just(Shape::PowerLaw),
            Just(Shape::Wide)
        ],
        seed in 0u64..1024,
        policy in prop_oneof![Just(AlgorithmPolicy::HashOnly), Just(AlgorithmPolicy::Adaptive)],
    ) {
        let (a, b) = shaped(shape, seed);
        let opts = Options { policy, ..Options::default() };
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let c_sim = nsparse_core::multiply(&mut gpu, &a, &b, &opts).unwrap().0;
        for threads in [1usize, 3] {
            let mut exec = HostParallelExecutor::new(threads);
            let run = exec.multiply(&a, &b, &opts).unwrap();
            assert_bitwise_eq(&c_sim, &run.matrix, &format!("{shape:?} sim vs host:{threads}"));
            // Dense rows never probe; only the wide fallback does.
            let probed = run.report.hash_probes > 0;
            prop_assert_eq!(probed, matches!(shape, Shape::Wide) && run.matrix.nnz() > 0);
        }
    }
}

quickprop! {
    #![config(cases = 32)]

    #[test]
    fn all_backends_agree_on_random_matrices(a in sparse_gen::csr_square(120, 800)) {
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let c_sim = sim(&a);
        prop_assert_eq!(c_sim.rpt(), c_ref.rpt());
        prop_assert_eq!(c_sim.col(), c_ref.col());
        prop_assert!(c_sim.approx_eq(&c_ref, 1e-10, 1e-12));
        for threads in [1usize, 2, 8] {
            let c_host = host(&a, threads);
            assert_bitwise_eq(&c_sim, &c_host, &format!("sim vs host:{threads}"));
        }
    }

    #[test]
    fn host_output_is_thread_count_invariant(a in sparse_gen::csr_square(100, 600)) {
        let c1 = host(&a, 1);
        for threads in [2usize, 3, 8] {
            let ct = host(&a, threads);
            assert_bitwise_eq(&c1, &ct, &format!("host:1 vs host:{threads}"));
        }
    }

    #[test]
    fn integer_matrices_are_exact_across_all_backends(a in sparse_gen::csr_square(90, 500)) {
        let a = integerize(&a);
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let c_sim = sim(&a);
        let c_host = host(&a, 2);
        // Integer-valued inputs: every accumulation order is exact, so
        // even the reference must match bitwise.
        assert_bitwise_eq(&c_sim, &c_ref, "sim vs reference (integer)");
        assert_bitwise_eq(&c_host, &c_ref, "host vs reference (integer)");
    }
}

#[test]
fn empty_matrix_on_every_backend() {
    let z = Csr::<f64>::zeros(64, 64);
    let c_sim = sim(&z);
    assert_eq!(c_sim.nnz(), 0);
    for threads in [1usize, 2, 8] {
        let c_host = host(&z, threads);
        assert_bitwise_eq(&c_sim, &c_host, "empty matrix");
    }
}

#[test]
fn empty_rows_between_dense_rows() {
    // Rows 0 and 9 populated, the rest empty — exercises zero-nnz rows
    // inside the partitioner and the PWARP group.
    let n = 10;
    let mut t = Vec::new();
    for c in 0..n {
        t.push((0usize, c as u32, 1.5 + c as f64));
        t.push((n - 1, c as u32, 0.25 * c as f64));
    }
    let a = Csr::from_triplets(n, n, &t).unwrap();
    let c_ref = spgemm_gustavson(&a, &a).unwrap();
    let c_sim = sim(&a);
    assert_eq!(c_sim.rpt(), c_ref.rpt());
    assert!(c_sim.approx_eq(&c_ref, 1e-12, 1e-12));
    for threads in [1usize, 2, 8] {
        assert_bitwise_eq(&c_sim, &host(&a, threads), "empty-row matrix");
    }
}

#[test]
fn group0_overflow_rows_match_across_backends() {
    // One output row above the largest shared table (4096 numeric /
    // 8192 count): lands in the global-memory group on the sim backend
    // and in a per-row global-size table on the host backend.
    let n = 6000;
    let mut t1 = Vec::new();
    for k in 0..3 {
        t1.push((0usize, k as u32, 1.0 + k as f64));
    }
    let mut t2 = Vec::new();
    for r in 0..3usize {
        for c in 0..n {
            if (c + r) % 2 == 0 {
                t2.push((r, c as u32, 1.0 + (c % 7) as f64));
            }
        }
    }
    for r in 3..n {
        t1.push((r, (r % n) as u32, 1.0));
        t2.push((r, (r % n) as u32, 1.0));
    }
    let a = Csr::from_triplets(n, n, &t1).unwrap();
    let b = Csr::from_triplets(n, n, &t2).unwrap();
    let c_ref = spgemm_gustavson(&a, &b).unwrap();
    assert!(c_ref.row_nnz(0) > 4096, "test needs a group-0 row");

    let mut gpu = Gpu::new(DeviceConfig::p100());
    let c_sim = nsparse_core::multiply(&mut gpu, &a, &b, &Options::default()).unwrap().0;
    assert_eq!(c_sim.rpt(), c_ref.rpt());
    assert!(c_sim.approx_eq(&c_ref, 1e-12, 1e-12));
    for threads in [1usize, 2, 8] {
        let mut exec = HostParallelExecutor::new(threads);
        let c_host = exec.multiply(&a, &b, &Options::default()).unwrap().matrix;
        assert_bitwise_eq(&c_sim, &c_host, &format!("group-0 row, host:{threads}"));
    }
}

#[test]
fn batched_fallback_agrees_across_backends() {
    // Both backends size batches from the same forecast, so at the same
    // capacity they must make the same batching decision and produce
    // the same bits as the unconstrained run (DESIGN.md §13).
    let a = {
        let mut s = 77u64;
        let mut t = Vec::new();
        for r in 0..300usize {
            for _ in 0..6 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % 300) as u32, 1.0 + (s % 9) as f64));
            }
        }
        Csr::from_triplets(300, 300, &t).unwrap()
    };
    let c_full = sim(&a);
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();

    for denom in [2u64, 4] {
        let cap = est / denom;
        let mut gpu = Gpu::new(DeviceConfig::p100_with_memory(cap));
        let (c_sim_batched, sim_batches) = {
            let mut exec = BatchedExecutor::sim(&mut gpu);
            let run = exec.multiply(&a, &a, &Options::default()).unwrap();
            (run.matrix, exec.batches_used())
        };
        assert_eq!(gpu.live_mem_bytes(), 0);

        let mut exec = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(cap));
        let run = exec.multiply(&a, &a, &Options::default()).unwrap();
        let host_batches = exec.batches_used();

        assert!(sim_batches > 1, "est/{denom} must force batching");
        assert_eq!(sim_batches, host_batches, "backends batched differently at est/{denom}");
        assert_bitwise_eq(&c_sim_batched, &c_full, &format!("sim batched at est/{denom}"));
        assert_bitwise_eq(&run.matrix, &c_full, &format!("host batched at est/{denom}"));
    }
}

#[test]
fn backends_classify_capacity_errors_identically() {
    // A device too small for even one row's working set: both backends
    // must fail with the same structured error — same variant, same
    // kind, same (fatal) recovery — because the classification is
    // forecast-driven, not device-driven.
    let a = Csr::<f64>::identity(64);
    let cap = 64; // far below B's footprint
    let mut gpu = Gpu::new(DeviceConfig::p100_with_memory(cap));
    let sim_err = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(&a, &a, &Options::default()).unwrap_err()
    };
    assert_eq!(gpu.live_mem_bytes(), 0);
    let mut exec = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(cap));
    let host_err = exec.multiply(&a, &a, &Options::default()).unwrap_err();

    for (name, e) in [("sim", &sim_err), ("host", &host_err)] {
        assert!(matches!(e, Error::CapacityExhausted(_)), "{name}: {e}");
        assert_eq!(e.kind(), ErrorKind::DeviceOom, "{name}");
        assert_eq!(e.recovery(), Recovery::Fatal, "{name}");
    }
    // And the diagnostics agree on the numbers (same forecast math).
    let (Error::CapacityExhausted(ds), Error::CapacityExhausted(dh)) = (&sim_err, &host_err) else {
        unreachable!()
    };
    assert_eq!(ds.estimate_upper, dh.estimate_upper);
    assert_eq!(ds.capacity, dh.capacity);
}

#[test]
fn executor_capabilities_are_truthful() {
    let mut exec = HostParallelExecutor::new(3);
    let caps = Executor::<f64>::capabilities(&exec);
    assert!(caps.wall_clock && !caps.simulated_time);
    assert_eq!(caps.threads, 3);
    assert!(caps.deterministic_output);
    assert_eq!(Executor::<f64>::backend(&exec), Backend::Host { threads: 3 });
    let a = Csr::<f64>::identity(16);
    let run = exec.multiply(&a, &a, &Options::default()).unwrap();
    assert!(run.wall.is_some());

    let mut gpu = Gpu::new(DeviceConfig::p100());
    let mut sim_exec = SimExecutor::new(&mut gpu);
    let caps = Executor::<f64>::capabilities(&sim_exec);
    assert!(caps.simulated_time && !caps.wall_clock);
    let run = sim_exec.multiply(&a, &a, &Options::default()).unwrap();
    assert!(run.wall.is_none());
}
