//! Reproduce the serial-vs-parallel resilience comparison of Wu et al.
//! ("Characterization and Comparison of Application Resilience for Serial
//! and Parallel Executions"): the same application and the same
//! computation-fault population executed at `nranks = 1` and `nranks = 4`,
//! plus the message-payload population at both rank counts, printed as a
//! table that tells contained from spread corruption.
//!
//! ```sh
//! serial_vs_parallel <app> <n_tests> <seed>
//! ```

use std::process::exit;

use fliptracker::Session;
use ftkr_inject::{CampaignPlan, CampaignTarget, RankTarget, TargetClass};

fn usage() -> ! {
    eprintln!("usage: serial_vs_parallel <app> <n_tests> <seed>");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [app, n_tests, seed] = args.as_slice() else {
        usage();
    };
    let n_tests: u64 = n_tests.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("serial_vs_parallel: unknown application {app:?}");
        exit(1);
    });

    let plan_for = |target: CampaignTarget, ranks: u32| {
        session
            .plan_spmd(
                target,
                TargetClass::Internal,
                n_tests,
                ranks,
                RankTarget::Sweep,
            )
            .unwrap_or_else(|e| {
                eprintln!("serial_vs_parallel: {e}");
                exit(1);
            })
            .with_seed(seed)
    };
    let run = |plan: &CampaignPlan| {
        session.run_plan_spmd(plan).unwrap_or_else(|e| {
            eprintln!("serial_vs_parallel: {e}");
            exit(1);
        })
    };
    let comp1_report = run(&plan_for(CampaignTarget::WholeProgram, 1));
    let comp4_report = run(&plan_for(CampaignTarget::WholeProgram, 4));
    let msg1_report = run(&plan_for(CampaignTarget::Messages, 1));
    let msg4_report = run(&plan_for(CampaignTarget::Messages, 4));

    // The computation-fault population (`sites × 64`) is identical in both
    // columns — the serial column is the same campaign executed as one-rank
    // jobs — while the message population is each rank count's own clean
    // census.
    println!(
        "serial-vs-parallel {app}: n_tests {n_tests}, seed {seed}, \
         computation population {} (identical across columns)",
        comp1_report.report.population
    );
    println!("  {:<30} {:>10} {:>10}", "", "nranks=1", "nranks=4");
    let row = |label: &str, a: u64, b: u64| {
        println!("  {label:<30} {a:>10} {b:>10}");
    };
    println!("  computation faults (whole program)");
    let (c1, c4) = (&comp1_report, &comp4_report);
    row(
        "    success",
        c1.report.counts.success,
        c4.report.counts.success,
    );
    row(
        "    failed",
        c1.report.counts.failed,
        c4.report.counts.failed,
    );
    row(
        "    crashed",
        c1.report.counts.crashed(),
        c4.report.counts.crashed(),
    );
    row("    masked", c1.divergence.masked, c4.divergence.masked);
    row(
        "    contained",
        c1.divergence.contained,
        c4.divergence.contained,
    );
    row("    spread", c1.divergence.spread, c4.divergence.spread);
    println!(
        "  message faults (census {} vs {} messages)",
        msg1_report.report.population / 64,
        msg4_report.report.population / 64
    );
    let (m1, m4) = (&msg1_report, &msg4_report);
    row(
        "    success",
        m1.report.counts.success,
        m4.report.counts.success,
    );
    row(
        "    failed",
        m1.report.counts.failed,
        m4.report.counts.failed,
    );
    row("    masked", m1.divergence.masked, m4.divergence.masked);
    row(
        "    contained",
        m1.divergence.contained,
        m4.divergence.contained,
    );
    row("    spread", m1.divergence.spread, m4.divergence.spread);

    let contained4 = c4.divergence.contained + m4.divergence.contained;
    let divergent4 = contained4 + c4.divergence.spread + m4.divergence.spread;
    eprintln!(
        "serial_vs_parallel: {app}: {contained4}/{divergent4} divergent 4-rank tests contained"
    );
}
