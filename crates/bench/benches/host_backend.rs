//! Host-backend wall-clock trajectory: the grouped pipeline run for real
//! on OS threads, next to the sim backend's model prediction and the
//! in-repo Gustavson floor, over a Figure 2/3-class dataset subset.
//!
//! Three kinds of rows land in `results/bench_host_backend.csv`:
//!
//! * `<dataset>/sim` — simulated kernel time of the proposal (the model
//!   prediction the host numbers sit next to);
//! * `<dataset>/gustavson` — median wall-clock of
//!   `sparse::spgemm_ref::spgemm_gustavson` on the same matrix, timed in
//!   the same process: the floor the host backend is measured against;
//! * `<dataset>/host:N` — median wall-clock of
//!   [`nsparse_core::HostParallelExecutor`] with N worker threads.
//!
//! The host:N rows are single-effective-core measurements, not a scaling
//! curve: the committed CSV comes from a small shared machine whose
//! second core is only sometimes free, so the spread across N says
//! nothing reliable about scaling. Compare host:1 with the Gustavson row
//! of the same dataset.

use bench::harness;

const DATASETS: &[&str] = &["Protein", "QCD", "Economics", "Circuit", "Epidemiology"];
const THREADS: &[usize] = &[1, 2, 4, 8];

fn main() {
    let mut g = harness::group("host_backend");
    g.sample_size(3);
    for name in DATASETS {
        let d = matgen::by_name(name).unwrap();
        let id = d.name.replace('/', "_");
        // Model prediction for the same multiply (single precision).
        let sim = bench::run_one::<f32>(baselines::Algorithm::Proposal, &d);
        if let Some(r) = &sim.report {
            g.bench_sim(&format!("{id}/sim"), r.total_time);
        }
        let a = bench::matrix_f32(&d);
        g.bench_wall(&format!("{id}/gustavson"), || {
            let c = sparse::spgemm_ref::spgemm_gustavson(&a, &a).expect("gustavson multiply");
            std::hint::black_box(c.nnz());
        });
        for &t in THREADS {
            g.bench_wall(&format!("{id}/host:{t}"), || {
                use nsparse_core::Executor;
                let mut exec = nsparse_core::HostParallelExecutor::new(t);
                let run = exec
                    .multiply(&a, &a, &nsparse_core::Options::default())
                    .expect("host multiply");
                std::hint::black_box(run.matrix.nnz());
            });
        }
        // One-shot phase breakdown on stderr for the record.
        let run = bench::run_one_host::<f32>(&d, 1);
        if let Some(w) = run.wall {
            eprintln!(
                "{id} host:1 total {:?} (setup {:?}, count {:?}, calc {:?}), {:.3} GFLOPS",
                w.total,
                w.phase(vgpu::Phase::Setup),
                w.phase(vgpu::Phase::Count),
                w.phase(vgpu::Phase::Calc),
                w.gflops(run.report.intermediate_products)
            );
        }
    }
    g.finish();
}
