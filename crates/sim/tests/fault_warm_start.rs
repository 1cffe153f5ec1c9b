//! The fault engine's warm start changes no outcome: for every fault plan,
//! a cold `FaultRunner` (clean prefix replayed from step 0, tail played
//! out) and a warm-started one (golden snapshot restored, tail skipped
//! once the run has rejoined the clean run) grade the fault identically,
//! detection latency included.

use ipds_analysis::{analyze_program, AnalysisConfig, TableImage};
use ipds_sim::{
    fault_plan, ExecLimits, FaultCampaign, FaultOutcome, FaultRunner, FaultSite, GoldenRun,
    WarmStart,
};

#[test]
fn warm_started_faults_match_cold_faults_one_by_one() {
    let limits = ExecLimits::default();
    let mut live_detected = 0u32;
    let mut live_faults = 0u32;
    for w in ipds_workloads::all() {
        let program = w.program();
        let analysis = analyze_program(&program, &AnalysisConfig::default());
        let image = TableImage::build(&analysis);
        for input_seed in [1u64, 2, 3] {
            let inputs = w.inputs(input_seed);
            let golden = GoldenRun::capture(&program, &inputs, limits);
            let warm = WarmStart::capture(&program, &analysis, &inputs, golden.steps, limits);
            let mut cold = FaultRunner::new(&program, &analysis, &image, &inputs, limits);
            let mut warmed = FaultRunner::new(&program, &analysis, &image, &inputs, limits)
                .with_warm_start(&warm);
            for checksum in [true, false] {
                let campaign = FaultCampaign {
                    flips: 32,
                    seed: 2006 ^ input_seed,
                    checksum,
                    limits,
                };
                for i in 0..campaign.total() {
                    let plan = fault_plan(&campaign, golden.steps, i);
                    let want = cold.run(&campaign, &plan);
                    let got = warmed.run(&campaign, &plan);
                    assert_eq!(
                        want, got,
                        "{} inputs {input_seed} checksum={checksum} fault {i}: {plan:?}",
                        w.name
                    );
                    if plan.site() != FaultSite::TableImage {
                        live_faults += 1;
                        if matches!(got, FaultOutcome::Detected { .. }) {
                            live_detected += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(live_faults, 10 * 3 * 2 * 64);
    // Detections after a live fault are what the tail fast-forward could
    // get wrong (a skipped alarm reads as `Masked`), so the sample must
    // hold some.
    assert!(
        live_detected >= 100,
        "only {live_detected} live detections in {live_faults} live faults"
    );
}
