//! NPB FT: a spectral method.  Each main-loop iteration mirrors NPB FT's
//! per-iteration structure — a forward DFT of the time-domain signal, an
//! `evolve` step in frequency space (damping the upper half of the spectrum
//! and feeding a fraction back into the signal), and a spectrum checksum
//! (NPB FT checksums every iteration) — giving the three Table-I-style code
//! regions `ft_dft`, `ft_evolve` and `ft_checksum`.

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::spec::{reference_f64, App, AppSize, Verifier};

/// DFT length and main-loop iteration count of one size class.
fn params(size: AppSize) -> (i64, i64) {
    match size {
        AppSize::Quick => (16, 3),
        AppSize::ClassW => (32, 4),
    }
}

struct FtGlobals {
    re: GlobalId,
    im: GlobalId,
    fre: GlobalId,
    fim: GlobalId,
    chk: GlobalId,
}

/// `fft_step`: one spectral step over the globals, structured as three
/// regions (`ft_dft → ft_evolve → ft_checksum`).
fn build_fft_step(module: &mut Module, ids: &FtGlobals, nfft: i64) {
    let mut b = FunctionBuilder::new("fft_step");
    let re = b.global_addr(ids.re);
    let im = b.global_addr(ids.im);
    let fre = b.global_addr(ids.fre);
    let fim = b.global_addr(ids.fim);
    let chk = b.global_addr(ids.chk);

    // ft_dft: forward DFT, F[k] = Σ_n x[n] · e^{-2πi kn/N}.
    b.set_line(600);
    let z = b.const_i64(0);
    let nfft_c = b.const_i64(nfft);
    b.region_for("ft_dft", z, nfft_c, |b, k| {
        let acc_re = b.alloca("acc_re", 1);
        let acc_im = b.alloca("acc_im", 1);
        let zf = b.const_f64(0.0);
        b.store(acc_re, zf);
        b.store(acc_im, zf);
        let z2 = b.const_i64(0);
        let nfft2 = b.const_i64(nfft);
        b.for_loop("ft_dft_inner", LoopKind::Inner, z2, nfft2, 1, |b, n| {
            let kn = b.mul(k, n);
            let kn_f = b.sitofp(kn);
            let w = b.const_f64(-2.0 * std::f64::consts::PI / nfft as f64);
            let theta = b.fmul(w, kn_f);
            let c = b.intrinsic(Intrinsic::Cos, vec![theta]);
            let s = b.intrinsic(Intrinsic::Sin, vec![theta]);
            let xr = b.load_idx(re, n);
            let xi = b.load_idx(im, n);
            // (xr + i·xi)(c + i·s)
            let t1 = b.fmul(xr, c);
            let t2 = b.fmul(xi, s);
            let re_term = b.fsub(t1, t2);
            let t3 = b.fmul(xr, s);
            let t4 = b.fmul(xi, c);
            let im_term = b.fadd(t3, t4);
            let cr = b.load(acc_re);
            let ci = b.load(acc_im);
            let nr = b.fadd(cr, re_term);
            let ni = b.fadd(ci, im_term);
            b.store(acc_re, nr);
            b.store(acc_im, ni);
        });
        let fr = b.load(acc_re);
        let fi = b.load(acc_im);
        b.store_idx(fre, k, fr);
        b.store_idx(fim, k, fi);
    });

    // ft_evolve: damp the upper half of the spectrum and feed a fraction of
    // each mode back into the time-domain signal (the cheap inverse).
    b.set_line(620);
    let z3 = b.const_i64(0);
    let nfft3 = b.const_i64(nfft);
    b.region_for("ft_evolve", z3, nfft3, |b, k| {
        let half = b.const_i64(nfft / 2);
        let high = b.icmp(CmpKind::Ge, k, half);
        let damp = b.const_f64(0.5);
        let one = b.const_f64(1.0);
        let factor = b.select(high, damp, one);
        let fr = b.load_idx(fre, k);
        let fi = b.load_idx(fim, k);
        let fr2 = b.fmul(fr, factor);
        let fi2 = b.fmul(fi, factor);
        b.store_idx(fre, k, fr2);
        b.store_idx(fim, k, fi2);
        let feedback = b.const_f64(1.0 / nfft as f64);
        let xr = b.load_idx(re, k);
        let fbr = b.fmul(feedback, fr2);
        let xr2 = b.fadd(xr, fbr);
        b.store_idx(re, k, xr2);
    });

    // ft_checksum: accumulate the spectrum magnitude into the running
    // checksum (NPB FT emits a checksum after every iteration; here the
    // per-iteration sums accumulate into one cell the verifier reads).
    b.set_line(640);
    let acc = b.alloca("checksum", 1);
    let zf = b.const_f64(0.0);
    b.store(acc, zf);
    let z4 = b.const_i64(0);
    let nfft4 = b.const_i64(nfft);
    b.region_for("ft_checksum", z4, nfft4, |b, k| {
        let fr = b.load_idx(fre, k);
        let fi = b.load_idx(fim, k);
        let r2 = b.fmul(fr, fr);
        let i2 = b.fmul(fi, fi);
        let mag = b.fadd(r2, i2);
        let cur = b.load(acc);
        let next = b.fadd(cur, mag);
        b.store(acc, next);
    });
    let it_sum = b.load(acc);
    let running = b.load(chk);
    let total = b.fadd(running, it_sum);
    b.store(chk, total);
    b.output(it_sum, OutputFormat::Scientific(10));
    b.set_line(648);
    b.ret(None);
    module.add_function(b.finish());
}

fn build_module(nfft: i64, niter: i64) -> Module {
    let mut m = Module::new("ft");
    let ids = FtGlobals {
        re: m.add_global(Global::with_f64(
            "sig_re",
            (0..nfft).map(|i| (i as f64 * 0.9).sin() + 0.5).collect(),
        )),
        im: m.add_global(Global::zeroed_f64("sig_im", nfft as u32)),
        fre: m.add_global(Global::zeroed_f64("freq_re", nfft as u32)),
        fim: m.add_global(Global::zeroed_f64("freq_im", nfft as u32)),
        chk: m.add_global(Global::zeroed_f64("chk", 1)),
    };
    let verify = m.add_global(Global::zeroed_f64("verify", 1));
    build_fft_step(&mut m, &ids, nfft);

    let mut b = FunctionBuilder::new("main");
    let chk = b.global_addr(ids.chk);
    let verify_a = b.global_addr(verify);

    // Main loop: one spectral step per iteration.
    b.set_line(100);
    let zero = b.const_i64(0);
    let niter_c = b.const_i64(niter);
    b.main_for("ft_main", zero, niter_c, |b, _it| {
        b.call("fft_step", vec![]);
    });

    // Verification: the accumulated per-iteration checksums.
    b.set_line(120);
    let total = b.load(chk);
    b.store(verify_a, total);
    b.output(total, OutputFormat::Scientific(10));
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The FT benchmark at a chosen problem size.
pub fn ft_sized(size: AppSize) -> App {
    let (nfft, niter) = params(size);
    let module = build_module(nfft, niter);
    let expected = reference_f64(&module, "verify", 0);
    App {
        name: "FT",
        module,
        regions: vec!["ft_dft".into(), "ft_evolve".into(), "ft_checksum".into()],
        main_loop: "ft_main",
        main_iterations: niter as usize,
        verifier: Verifier::GlobalClose {
            global: "verify",
            index: 0,
            expected,
            rel_tol: 1e-8,
        },
        size,
    }
}

/// The FT benchmark (quick size — the registry default).
pub fn ft() -> App {
    ft_sized(AppSize::Quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ft_checksum_is_stable_and_positive() {
        let app = ft();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let checksum = result.global_f64("verify").unwrap()[0];
        assert!(checksum.is_finite() && checksum > 0.0);
    }

    #[test]
    fn ft_spectral_steps_match_a_host_model() {
        // Host model of the full run — per iteration: forward DFT of the
        // signal, damp the upper half of the spectrum, feed a fraction of
        // each mode back into the time-domain signal, accumulate the
        // spectrum-magnitude checksum.  A sign error in theta or a swapped
        // re/im term in ft_dft would diverge here even though the
        // self-referential verifier would still accept it.
        let (nfft, niter) = params(AppSize::Quick);
        let n = nfft as usize;
        let mut re: Vec<f64> = (0..nfft).map(|i| (i as f64 * 0.9).sin() + 0.5).collect();
        let im = vec![0.0f64; n];
        let mut fre = vec![0.0f64; n];
        let mut fim = vec![0.0f64; n];
        let mut chk = 0.0f64;
        for _ in 0..niter {
            let w = -2.0 * std::f64::consts::PI / nfft as f64;
            for k in 0..n {
                let (mut ar, mut ai) = (0.0f64, 0.0f64);
                for x in 0..n {
                    let theta = w * (k * x) as f64;
                    let (c, s) = (theta.cos(), theta.sin());
                    ar += re[x] * c - im[x] * s;
                    ai += re[x] * s + im[x] * c;
                }
                fre[k] = ar;
                fim[k] = ai;
            }
            for k in 0..n {
                let factor = if k >= n / 2 { 0.5 } else { 1.0 };
                fre[k] *= factor;
                fim[k] *= factor;
                re[k] += fre[k] / nfft as f64;
            }
            for k in 0..n {
                chk += fre[k] * fre[k] + fim[k] * fim[k];
            }
        }

        let app = ft();
        let result = app.run_clean();
        let vm_fre = result.global_f64("freq_re").unwrap();
        let vm_fim = result.global_f64("freq_im").unwrap();
        for k in 0..n {
            assert!(
                (vm_fre[k] - fre[k]).abs() <= 1e-9 * fre[k].abs().max(1.0),
                "freq_re[{k}]: vm {} vs host {}",
                vm_fre[k],
                fre[k]
            );
            assert!(
                (vm_fim[k] - fim[k]).abs() <= 1e-9 * fim[k].abs().max(1.0),
                "freq_im[{k}]: vm {} vs host {}",
                vm_fim[k],
                fim[k]
            );
        }
        let vm_chk = result.global_f64("verify").unwrap()[0];
        assert!(
            (vm_chk - chk).abs() <= 1e-9 * chk.abs().max(1.0),
            "checksum: vm {vm_chk} vs host {chk}"
        );
    }

    #[test]
    fn class_w_ft_preserves_the_region_set() {
        let quick = ft();
        let big = ft_sized(AppSize::ClassW);
        assert_eq!(quick.regions, big.regions);
        let result = big.run_clean();
        assert!(big.verify(&result));
        assert!(result.steps > quick.run_clean().steps * 2);
    }
}
