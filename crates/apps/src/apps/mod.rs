//! The ten benchmark kernels.

pub mod bt;
pub mod cg;
pub mod dc;
pub mod ft;
pub mod is;
pub mod kmeans;
pub mod lu;
pub mod lulesh;
pub mod mg;
pub mod sp;

pub use bt::{bt, bt_sized};
pub use cg::{cg, cg_with};
pub use dc::{dc, dc_sized};
pub use ft::{ft, ft_sized};
pub use is::is;
pub use kmeans::kmeans;
pub use lu::{lu, lu_sized};
pub use lulesh::lulesh;
pub use mg::mg;
pub use sp::{sp, sp_sized};

use crate::spec::{App, AppSize};

/// All ten applications of the paper's evaluation, in Table IV order, at the
/// quick (Class-S-style) problem size — the registry campaign plans resolve
/// against.
pub fn all_apps() -> Vec<App> {
    all_apps_sized(AppSize::Quick)
}

/// All ten applications at a chosen problem size.  The size knob scales the
/// five promoted kernels (LU, BT, SP, DC, FT); the original five run their
/// single calibrated size either way.
pub fn all_apps_sized(size: AppSize) -> Vec<App> {
    vec![
        cg(),
        mg(),
        lu_sized(size),
        bt_sized(size),
        is(),
        dc_sized(size),
        sp_sized(size),
        ft_sized(size),
        kmeans(),
        lulesh(),
    ]
}

/// Look an application up by its (case-insensitive) name, at the quick size.
pub fn app_by_name(name: &str) -> Option<App> {
    app_by_name_sized(name, AppSize::Quick)
}

/// Look an application up by its (case-insensitive) name, at a chosen size.
pub fn app_by_name_sized(name: &str, size: AppSize) -> Option<App> {
    let wanted = name.to_ascii_uppercase();
    all_apps_sized(size).into_iter().find(|a| a.name == wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_apps_with_unique_names() {
        let apps = all_apps();
        assert_eq!(apps.len(), 10);
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn no_app_reinterprets_float_bits_as_an_integer() {
        // The NaN contract of the reports: a NaN's payload can reach one
        // only through `bitcast.f2i`, which no registry app may emit, or
        // through a fault's own flipped bit.
        use ftkr_ir::{CastKind, Op};
        for size in [AppSize::Quick, AppSize::ClassW] {
            for app in all_apps_sized(size) {
                let bitcasts = app
                    .module
                    .functions
                    .iter()
                    .flat_map(|f| &f.insts)
                    .filter(|i| {
                        matches!(
                            i.op,
                            Op::Cast {
                                kind: CastKind::BitcastFtoI,
                                ..
                            }
                        )
                    })
                    .count();
                assert_eq!(bitcasts, 0, "{} ({size:?}) emits bitcast.f2i", app.name);
            }
        }
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(app_by_name("cg").is_some());
        assert!(app_by_name("LULESH").is_some());
        assert!(app_by_name("kmeans").is_some());
        assert!(app_by_name("nope").is_none());
    }

    #[test]
    fn every_app_verifies_and_completes_cleanly() {
        for app in all_apps() {
            assert!(
                app.module.verify().is_ok(),
                "{} module is malformed",
                app.name
            );
            let result = app.run_clean();
            assert!(
                app.verify(&result),
                "{} fault-free run fails its own verification",
                app.name
            );
        }
    }

    #[test]
    fn every_app_has_its_named_regions_in_the_trace() {
        use ftkr_trace::{partition_regions, RegionSelector};
        for app in all_apps() {
            let traced = ftkr_vm::Vm::new(ftkr_vm::VmConfig::tracing())
                .run(&app.module)
                .unwrap();
            let trace = traced.trace.as_ref().unwrap();
            let regions = partition_regions(trace, &app.module, &RegionSelector::FirstLevelInner);
            let found: std::collections::HashSet<_> =
                regions.iter().map(|r| r.key.name.clone()).collect();
            for wanted in &app.regions {
                assert!(
                    found.contains(wanted),
                    "{}: region {wanted} not found among {found:?}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn clean_runs_stay_within_the_intended_dynamic_size_budget() {
        for app in all_apps() {
            let result = app.run_clean();
            assert!(
                result.steps < 2_000_000,
                "{} runs {} dynamic instructions; campaigns would be too slow",
                app.name,
                result.steps
            );
            assert!(result.steps > 500, "{} is suspiciously small", app.name);
        }
    }
}
