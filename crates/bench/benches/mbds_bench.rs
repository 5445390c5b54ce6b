//! MBDS benchmarks: real wall-clock throughput of the threaded
//! controller vs backend count (concurrency of the actual
//! implementation), and the execution cost of a simulated controller
//! whose response-time *model* regenerates E7/E8.

use abdl::Kernel;
use mbds::{Controller, CostModel};
use mlds_bench::timing::{bench, group};
use mlds_bench::workload;

const DB: usize = 20_000;

fn main() {
    group("mbds/controller_mixed64");
    let requests = workload::mixed_requests(64, DB, 3);
    for n in [1usize, 2, 4, 8] {
        let mut controller = Controller::new(n);
        workload::load_flat(&mut controller, DB);
        bench(&format!("{n}_backends"), || {
            for req in &requests {
                controller.execute(req).unwrap();
            }
        });
    }

    group("mbds/sim_mixed64");
    let requests = workload::mixed_requests(64, DB, 5);
    for n in [1usize, 8] {
        let mut sim = Controller::simulated(n, 2.min(n), CostModel::default());
        workload::load_flat(&mut sim, DB);
        bench(&format!("{n}_backends"), || {
            for req in &requests {
                sim.execute(req).unwrap();
            }
        });
    }

    group("mbds/range_retrieval");
    let req = workload::range_retrieval(2_000);
    for n in [1usize, 4] {
        let mut controller = Controller::new(n);
        workload::load_flat(&mut controller, DB);
        bench(&format!("controller/{n}"), || controller.execute(&req).unwrap());
    }
}
