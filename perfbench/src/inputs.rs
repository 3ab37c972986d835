//! Input generation: every stream is derived from the run's `--seed`.

use psbench_sim::SimJob;
use psbench_swf::SwfLog;
use psbench_workload::{Lublin99, WorkloadModel};

/// Processors of the reference machine every single-site cell runs on.
pub const MACHINE: u32 = 128;

/// An independent stream seed for purpose `salt` under run seed `seed`
/// (SplitMix64 finalizer), so streams of one run never share draws.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` Lublin '99 jobs for the reference machine.
pub fn lublin(n: usize, seed: u64) -> SwfLog {
    Lublin99::with_machine_size(MACHINE).generate(n, seed)
}

/// Offered load of `jobs` on `machine` processors:
/// Σ procs × runtime ÷ (machine × arrival span).
pub fn offered_load(jobs: &[SimJob], machine: u32) -> f64 {
    let work: f64 = jobs.iter().map(|j| j.work * j.procs as f64).sum();
    let first = jobs.iter().map(|j| j.submit).fold(f64::INFINITY, f64::min);
    let last = jobs
        .iter()
        .map(|j| j.submit)
        .fold(f64::NEG_INFINITY, f64::max);
    work / (machine as f64 * (last - first).max(1.0))
}

/// Scale `log`'s interarrivals so its offered load on [`MACHINE`] reaches
/// `target`. Returns the scaled log and the load it actually offers, which
/// integer submit times make differ slightly from the target.
pub fn calibrate(mut log: SwfLog, target: f64) -> (SwfLog, f64) {
    let unscaled = offered_load(&SimJob::from_log(&log), MACHINE);
    log.scale_interarrivals(unscaled / target);
    let achieved = offered_load(&SimJob::from_log(&log), MACHINE);
    (log, achieved)
}

/// How far an achieved offered load may sit from its target before the
/// cell counts as failed.
pub const LOAD_TOLERANCE: f64 = 0.01;
