//! Per-region resilience of the IS bucket-sort kernel: which code regions
//! tolerate faults in their input vs. internal locations, and which patterns
//! are responsible (the Figure 5 / Table I workflow on one application).
//!
//! ```sh
//! cargo run --release --example region_resilience [quick|standard|paper]
//! ```

use fliptracker::prelude::*;

fn main() {
    let effort = Effort::from_name(&std::env::args().nth(1).unwrap_or_default());
    let session = Session::by_name("IS").expect("IS is a bundled app");
    println!(
        "{}: success rate per code region ({} injections per point)\n",
        session.app().name,
        effort.tests_per_point
    );

    // One cached clean reference run feeds every region's campaign; the
    // series is exactly this program's slice of Figure 5.
    let series = session.figure5(&effort);

    println!(
        "{:<8} {:<12} {:>10} {:>18} {:>18}",
        "region", "lines", "#instr", "internal SR", "input SR"
    );
    for view in session.region_views() {
        let rate = |class: TargetClass| {
            series
                .rate(session.app().name, &view.name, class)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<8} {:<12} {:>10} {:>18.3} {:>18.3}",
            view.name,
            format!("{}-{}", view.lines.0, view.lines.1),
            view.instructions,
            rate(TargetClass::Internal),
            rate(TargetClass::Input),
        );
    }

    // Which patterns explain the resilient regions?
    let kinds: std::collections::BTreeSet<_> = session
        .region_table(&Effort::quick())
        .into_iter()
        .flat_map(|row| row.patterns)
        .collect();
    println!(
        "\npatterns observed anywhere in {}: {}",
        session.app().name,
        kinds
            .iter()
            .map(|k| k.short_name())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
