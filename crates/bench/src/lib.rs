//! `ftkr-bench` — experiment harness reproducing every table and figure of
//! the FlipTracker paper.
//!
//! Each binary regenerates one artifact (run with `--release`):
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table I — patterns per code region |
//! | `fig4_tracing_overhead` | Figure 4 — parallel tracing overhead |
//! | `fig5_per_region` | Figure 5 — success rate per code region |
//! | `fig6_per_iteration` | Figure 6 — success rate per main-loop iteration |
//! | `fig7_lulesh_acl` | Figure 7 — ACL trajectory in LULESH |
//! | `table2_mg_error_magnitude` | Table II — error magnitude across `mg3P` calls |
//! | `table3_cg_hardening` | Table III — Use Case 1, hardening CG |
//! | `table4_prediction` | Table IV — Use Case 2, resilience prediction |
//! | `serial_vs_parallel` | Wu et al. — serial vs 4-rank SPMD resilience of one fault population |
//!
//! Every binary except `serial_vs_parallel` accepts an effort level (`quick`,
//! `standard`, `paper`) as its first argument and `--json` to additionally
//! emit machine-readable output; `serial_vs_parallel` takes
//! `<app> <n_tests> <seed>`.

pub mod shard;

use fliptracker::Effort;

/// Parse the common harness command line: effort level plus `--json`.
pub fn harness_args() -> (Effort, bool) {
    let mut effort = Effort::standard();
    let mut json = false;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            effort = Effort::from_name(&arg);
        }
    }
    (effort, json)
}

/// Print a result: its text rendering, optionally followed by JSON.
pub fn emit<T: serde::Serialize>(text: String, value: &T, json: bool) {
    print!("{text}");
    if json {
        println!(
            "\n--- json ---\n{}",
            serde_json::to_string_pretty(value).expect("results serialize")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_harness_args_are_standard_effort() {
        let (effort, json) = harness_args();
        assert_eq!(effort, Effort::standard());
        assert!(!json);
    }
}
