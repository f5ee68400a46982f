//! SPMD decompositions of registry applications.
//!
//! The multi-rank campaigns run the *same* kernel module on every rank — a
//! symmetric block partition of an `nranks×` larger global problem, the model
//! `ftkr_core::experiments::time_spmd` already uses for the Figure-4 tracing
//! experiment.  Each rank owns one subdomain, exports one boundary value to
//! its ring neighbour after the local solve, folds the received halo into its
//! local contribution, and joins an allreduce that combines the per-rank
//! partials into the global verification value.  Because the per-rank module
//! is byte-identical to the serial one, the serial and parallel campaigns
//! draw from the *same fault population* — the property the Wu-et-al.-style
//! serial-vs-parallel comparison needs.
//!
//! This module is pure data: which globals play the boundary/partial roles
//! for each decomposed app, and how tightly the combined value must match the
//! clean combination.  The executor that acts on it lives in
//! `ftkr_inject::spmd`.

/// How one registry app decomposes across ranks.  `partial` is implicit: it
/// is always the app verifier's global (see [`crate::App::reduction_scalar`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmdDecomposition {
    /// Global exporting the subdomain boundary value sent to the ring
    /// neighbour.
    pub boundary_global: &'static str,
    /// Element of `boundary_global` that crosses the rank boundary.
    pub boundary_index: usize,
    /// Weight of the received halo value in the rank's combined
    /// contribution: `coupled = partial + coupling * halo`.
    pub coupling: f64,
    /// Relative tolerance on the combined (allreduced) value against its
    /// clean counterpart — the SPMD analogue of the app verifier's
    /// tolerance.
    pub combine_rel_tol: f64,
    /// Globals forming a rank's observable output state, digested for the
    /// rank-divergence comparison (clean vs. faulty, per rank).
    pub state_globals: &'static [&'static str],
}

/// The SPMD decomposition of a registry app, if it has one.  Apps without an
/// entry here can only run single-rank campaigns.
pub fn spmd_decomposition(name: &str) -> Option<SpmdDecomposition> {
    match name.to_ascii_uppercase().as_str() {
        // MG: each rank smooths one block of the 1-D multigrid line; the top
        // boundary plane of `u` is the halo exported to the next rank, and
        // the residual norm in `verify` is the allreduced partial.
        // The exported element sits in the grid interior: the outermost
        // plane (`u[N-1]`) is the homogeneous boundary condition — exactly
        // 0.0 in the clean run, so corrupting its payload would be all but
        // unobservable (most flips of 0.0 are denormals).
        "MG" => Some(SpmdDecomposition {
            boundary_global: "u",
            boundary_index: 16, // N / 2: interior plane adjacent to the cut
            coupling: 0.125,
            combine_rel_tol: 1e-8,
            state_globals: &["u", "r", "verify"],
        }),
        // CG: each rank runs conjugate gradient on one diagonal block; the
        // tail of the solution vector `z` is the halo, and the verification
        // dot product is the allreduced partial.
        "CG" => Some(SpmdDecomposition {
            boundary_global: "z",
            boundary_index: 23, // N - 1
            coupling: 0.125,
            combine_rel_tol: 1e-8,
            state_globals: &["x", "z", "r", "verify"],
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::app_by_name;

    #[test]
    fn decomposed_apps_resolve_their_boundary_and_state_globals() {
        for name in ["MG", "CG"] {
            let decomp = spmd_decomposition(name).expect("decomposition exists");
            let app = app_by_name(name).expect("registry app");
            let result = app.run_clean();
            let boundary = result
                .global_f64(decomp.boundary_global)
                .unwrap_or_else(|| panic!("{name}: boundary global missing"));
            assert!(
                decomp.boundary_index < boundary.len(),
                "{name}: boundary index out of range"
            );
            // The exported value must be non-zero in the clean run, or
            // message-payload corruption degenerates to denormal noise.
            assert!(
                boundary[decomp.boundary_index] != 0.0,
                "{name}: clean boundary value is 0.0 — pick an interior element"
            );
            for global in decomp.state_globals {
                assert!(
                    result.global_f64(global).is_some(),
                    "{name}: state global {global} missing"
                );
            }
            assert!(decomp.coupling.is_finite() && decomp.combine_rel_tol > 0.0);
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_partial_for_the_registry() {
        assert!(spmd_decomposition("mg").is_some());
        assert!(
            spmd_decomposition("LU").is_none(),
            "LU has no decomposition yet"
        );
    }
}
