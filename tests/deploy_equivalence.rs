//! Chip-deployment properties of the planning engine and the budget
//! optimizer.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Equivalence** — [`PlanningEngine::deploy_network_with`] (cached,
//!    parallel) produces a byte-identical [`Deployment`] to the
//!    sequential, engine-free [`optimize::deploy_mixed`] path across zoo
//!    networks, array budgets and worker counts. Memoization and
//!    fan-out may only change *when* plans are computed, never what the
//!    optimizer decides.
//! 2. **Dominance** — the mixed-algorithm optimizer's pipeline
//!    bottleneck is never worse than the best single-algorithm
//!    [`allocate::deploy`] result, and on VGG-13 and ResNet-18 (the
//!    paper's evaluation networks) this holds for every budget from
//!    "one array per layer" to fully resident.

use proptest::prelude::*;
use vw_sdk_repro::pim_arch::PimArray;
use vw_sdk_repro::pim_chip::allocate::{self, Deployment};
use vw_sdk_repro::pim_chip::pipeline::PipelineReport;
use vw_sdk_repro::pim_chip::{optimize, ChipConfig};
use vw_sdk_repro::pim_mapping::MappingAlgorithm;
use vw_sdk_repro::pim_nets::{zoo, Network};
use vw_sdk_repro::vw_sdk::PlanningEngine;

fn network_strategy() -> impl Strategy<Value = Network> {
    let all = zoo::all();
    (0usize..all.len()).prop_map(move |i| all[i].clone())
}

fn bottleneck(d: &Deployment) -> u64 {
    PipelineReport::new(d).bottleneck_cycles()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine's deployment equals the sequential optimizer path
    /// byte-for-byte, cold cache and warm.
    #[test]
    fn engine_deployments_are_byte_identical_to_the_sequential_path(
        net in network_strategy(),
        budget in 0usize..192,
        rows_shift in 0u32..3,
        reprogram in 0u64..10_000,
        jobs in 1usize..9,
    ) {
        let side = 128usize << rows_shift;
        let array = PimArray::new(side, side).expect("positive");
        let n_arrays = net.len() + budget;
        let chip = ChipConfig::new(n_arrays, array, reprogram).expect("valid chip");
        let algorithms = MappingAlgorithm::paper_trio();

        let engine = PlanningEngine::new().with_jobs(jobs);
        let parallel = engine
            .deploy_network_with(&net, &chip, &algorithms)
            .expect("budget covers every layer");
        let sequential = optimize::deploy_mixed(&net, &algorithms, &chip)
            .expect("budget covers every layer");
        prop_assert_eq!(&parallel, &sequential);
        prop_assert_eq!(format!("{parallel:?}"), format!("{sequential:?}"));

        // Warm-cache rerun changes nothing.
        let warm = engine
            .deploy_network_with(&net, &chip, &algorithms)
            .expect("budget covers every layer");
        prop_assert_eq!(&parallel, &warm);

        // Structural invariants of any deployment.
        prop_assert!(parallel.arrays_used() <= n_arrays);
        for alloc in parallel.allocations() {
            prop_assert!(alloc.arrays() >= 1);
            prop_assert!((alloc.arrays() as u64) <= alloc.tiles().max(1));
        }
    }

    /// The mixed optimizer never loses the bottleneck race to any
    /// single-algorithm deployment of the same chip.
    #[test]
    fn mixed_bottleneck_dominates_single_algorithm_deployments(
        net in network_strategy(),
        budget in 0usize..128,
        reprogram in 0u64..10_000,
    ) {
        let array = PimArray::new(512, 512).expect("positive");
        let chip = ChipConfig::new(net.len() + budget, array, reprogram).expect("valid chip");
        let mixed = optimize::deploy_mixed(&net, &MappingAlgorithm::paper_trio(), &chip)
            .expect("budget covers every layer");
        for alg in MappingAlgorithm::paper_trio() {
            let single = allocate::deploy(&net, alg, &chip).expect("budget covers every layer");
            prop_assert!(
                bottleneck(&mixed) <= bottleneck(&single),
                "{}: mixed {} > {} {}",
                net.name(),
                bottleneck(&mixed),
                alg.label(),
                bottleneck(&single)
            );
        }
    }
}

/// The acceptance criterion, spelled out exhaustively on the paper's
/// two evaluation networks: for *every* budget from one-array-per-layer
/// up to fully resident, the mixed deployment's bottleneck is at most
/// the best single-algorithm deployment's.
#[test]
fn mixed_optimizer_beats_best_single_algorithm_on_vgg13_and_resnet18() {
    let array = PimArray::new(512, 512).expect("positive");
    let engine = PlanningEngine::new();
    for net in [zoo::vgg13(), zoo::resnet18_table1()] {
        let mut strictly_better_somewhere = false;
        for n_arrays in net.len()..=64 {
            let chip = ChipConfig::new(n_arrays, array, 2_000).expect("valid chip");
            let mixed = engine
                .deploy_network_with(&net, &chip, &MappingAlgorithm::paper_trio())
                .expect("budget covers every layer");
            let best_single = MappingAlgorithm::paper_trio()
                .iter()
                .map(|&alg| {
                    bottleneck(
                        &allocate::deploy(&net, alg, &chip).expect("budget covers every layer"),
                    )
                })
                .min()
                .expect("three algorithms");
            assert!(
                bottleneck(&mixed) <= best_single,
                "{} on {n_arrays} arrays: mixed {} > best single {}",
                net.name(),
                bottleneck(&mixed),
                best_single
            );
            if bottleneck(&mixed) < best_single {
                strictly_better_somewhere = true;
            }
        }
        assert!(
            strictly_better_somewhere,
            "{}: mixing algorithms never beat the best single choice",
            net.name()
        );
    }
}
