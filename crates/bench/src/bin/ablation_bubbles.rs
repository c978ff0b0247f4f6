//! Ablation: multi-chunk bubble insertion (Fig. 11).
//!
//! Back-to-back chunk issue lets fast stages run ahead, inflating line
//! buffers with no throughput gain; issuing every stage at the common
//! initiation interval (bubbling the fast ones) keeps single-chunk
//! buffer sizes.

use streamgrid_core::apps::AppDomain;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_optimizer::{edge_infos, multi_chunk_peaks, optimize, plan_multi_chunk};

fn main() {
    streamgrid_bench::banner(
        "Ablation — multi-chunk bubble insertion (Fig. 11)",
        "w/o bubbles buffers grow with chunk count; w/ bubbles they stay at single-chunk size",
        0,
    );
    for domain in [AppDomain::Classification, AppDomain::NeuralRendering] {
        let mut graph = domain.spec().into_graph();
        StreamGridConfig::cs_dt(SplitConfig::linear(8, 2)).apply(&mut graph);
        let elements = 1200u64;
        let edges = edge_infos(&graph, elements);
        let schedule = optimize(&graph, &edges).unwrap();
        let plan = plan_multi_chunk(&graph, &edges);
        println!("{domain:?} (II = {} cycles):", plan.initiation_interval);
        println!(
            "{:>8} {:>22} {:>22}",
            "chunks", "w/ bubbles (elems)", "w/o bubbles (elems)"
        );
        for n in [1u64, 2, 4, 8] {
            let with: f64 = multi_chunk_peaks(&edges, &schedule, &plan, n, true)
                .iter()
                .sum();
            let without: f64 = multi_chunk_peaks(&edges, &schedule, &plan, n, false)
                .iter()
                .sum();
            println!("{:>8} {:>22.0} {:>22.0}", n, with, without);
        }
        println!();
    }
    println!("shape check: the left column is flat; the right column grows (Fig. 11).");
}
