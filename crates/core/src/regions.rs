//! Region-level views of an application (the rows of Table I).

use ftkr_apps::App;
use ftkr_trace::{partition_regions, region_instruction_counts, RegionInstance, RegionSelector};
use ftkr_vm::Trace;

/// A region of an application together with its first instance in main-loop
/// iteration 0 (the instance the paper's per-region experiments target).
#[derive(Debug, Clone)]
pub struct RegionView {
    /// Region name (e.g. `cg_b`).
    pub name: String,
    /// Source line range.
    pub lines: (u32, u32),
    /// The selected instance (first instance in main-loop iteration 0, or the
    /// first instance overall for code that runs before the main loop).
    pub instance: RegionInstance,
    /// Dynamic instructions of the region in one main-loop iteration.
    pub instructions: usize,
}

/// The named regions of an application, with their representative instances,
/// from a fault-free traced run.  This is a pure function of the trace; most
/// callers want the cached [`crate::Session::region_views`] instead.
pub fn region_views(app: &App, clean: &Trace) -> Vec<RegionView> {
    let instances = partition_regions(clean, &app.module, &RegionSelector::FirstLevelInner);
    let counts = region_instruction_counts(clean, &instances, 0);
    app.regions
        .iter()
        .filter_map(|name| {
            let instance = instances
                .iter()
                .find(|r| &r.key.name == name && r.main_iteration == Some(0))
                .or_else(|| instances.iter().find(|r| &r.key.name == name))?
                .clone();
            Some(RegionView {
                name: name.clone(),
                lines: instance.lines,
                instructions: counts.get(name).copied().unwrap_or_else(|| instance.len()),
                instance,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::effort::Effort;
    use crate::session::Session;

    #[test]
    fn region_views_cover_every_named_region_of_is() {
        let session = Session::new(ftkr_apps::is());
        let views = session.region_views();
        assert_eq!(views.len(), session.app().regions.len());
        for v in views {
            assert!(v.instructions > 0, "{} has no instructions", v.name);
            assert_eq!(v.instance.main_iteration, Some(0));
        }
    }

    #[test]
    fn region_table_finds_patterns_in_mg() {
        let rows = Session::new(ftkr_apps::mg()).region_table(&Effort::quick());
        assert_eq!(rows.len(), 4);
        // At least one MG region exhibits at least one pattern (the paper
        // finds patterns in all four).
        assert!(rows.iter().any(|r| r.pattern_found()));
    }
}
