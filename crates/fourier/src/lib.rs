//! Fast Fourier transform used as the frequency-domain comparator in the
//! JWINS evaluation.
//!
//! Figure 2 of the paper compares sparsification in three domains — wavelet,
//! Fourier and the raw parameter domain — by the reconstruction error each
//! incurs at a 10% budget. This crate supplies the Fourier leg: an iterative
//! radix-2 FFT for power-of-two lengths and Bluestein's chirp-z algorithm for
//! everything else, so model vectors of arbitrary size transform without
//! padding artifacts.
//!
//! # Example
//!
//! ```
//! use jwins_fourier::{fft, ifft, Complex};
//!
//! let signal: Vec<Complex> = (0..12).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let spectrum = fft(&signal);
//! let recovered = ifft(&spectrum);
//! for (a, b) in signal.iter().zip(&recovered) {
//!     assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
//! }
//! ```

#![deny(unsafe_code)]

mod complex;

pub use complex::Complex;

use std::f64::consts::PI;

/// Forward DFT of an arbitrary-length complex signal.
///
/// Uses radix-2 when `len` is a power of two and Bluestein otherwise. The
/// transform is unnormalized (`ifft` applies the `1/n` factor).
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    fft_in_place(&mut buf, false);
    buf
}

/// Inverse DFT, normalized by `1/n` so `ifft(fft(x)) == x`.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    fft_in_place(&mut buf, true);
    let scale = 1.0 / buf.len().max(1) as f64;
    for v in &mut buf {
        *v = v.scale(scale);
    }
    buf
}

/// Forward DFT of a real `f32` signal (model parameters), returning the full
/// complex spectrum.
pub fn fft_real(signal: &[f32]) -> Vec<Complex> {
    let buf: Vec<Complex> = signal
        .iter()
        .map(|&v| Complex::new(f64::from(v), 0.0))
        .collect();
    fft(&buf)
}

/// Inverse of [`fft_real`]: recovers the real signal, discarding the
/// (numerically tiny) imaginary residue.
pub fn ifft_to_real(spectrum: &[Complex]) -> Vec<f32> {
    ifft(spectrum).iter().map(|c| c.re as f32).collect()
}

/// In-place transform dispatching on length.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        radix2(buf, inverse);
    } else {
        bluestein(buf, inverse);
    }
}

/// Iterative Cooley–Tukey for power-of-two lengths.
fn radix2(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            buf.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * 2.0 * PI / len as f64;
        let w_len = Complex::new(angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let even = buf[start + k];
                let odd = buf[start + k + len / 2] * w;
                buf[start + k] = even + odd;
                buf[start + k + len / 2] = even - odd;
                w = w * w_len;
            }
        }
        len <<= 1;
    }
}

/// Bluestein's algorithm: expresses an arbitrary-length DFT as a convolution,
/// evaluated with a power-of-two FFT.
fn bluestein(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w[k] = exp(sign * i * pi * k^2 / n). Using k^2 mod 2n keeps the
    // angle argument bounded for large k.
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            let angle = sign * PI * k2 as f64 / n as f64;
            Complex::new(angle.cos(), angle.sin())
        })
        .collect();
    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = buf[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    // b must be circularly symmetric: b[m - k] = b[k].
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    radix2(&mut a, false);
    radix2(&mut b, false);
    for (x, y) in a.iter_mut().zip(&b) {
        *x = *x * *y;
    }
    radix2(&mut a, true);
    let scale = 1.0 / m as f64;
    for k in 0..n {
        buf[k] = (a[k] * chirp[k]).scale(scale);
    }
}

/// Naive O(n²) DFT used as the test oracle.
#[doc(hidden)]
pub fn dft_naive(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let angle = sign * 2.0 * PI * (k * j) as f64 / n as f64;
                acc = acc + x * Complex::new(angle.cos(), angle.sin());
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    fn random_signal(n: usize, mut seed: u64) -> Vec<Complex> {
        seed |= 1;
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let re = ((seed >> 16) as f64 / (1u64 << 48) as f64) * 2.0 - 1.0;
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let im = ((seed >> 16) as f64 / (1u64 << 48) as f64) * 2.0 - 1.0;
                Complex::new(re, im)
            })
            .collect()
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::new(1.0, 0.0);
        let spec = fft(&x);
        for c in &spec {
            assert!(close(*c, Complex::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn constant_concentrates_at_dc() {
        let x = vec![Complex::new(2.0, 0.0); 16];
        let spec = fft(&x);
        assert!(close(spec[0], Complex::new(32.0, 0.0), 1e-9));
        for c in &spec[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 16, 64] {
            let x = random_signal(n, 42 + n as u64);
            let fast = fft(&x);
            let slow = dft_naive(&x, false);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(close(*a, *b, 1e-8), "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        for n in [3usize, 5, 6, 7, 9, 12, 17, 30, 97, 100] {
            let x = random_signal(n, 7 + n as u64);
            let fast = fft(&x);
            let slow = dft_naive(&x, false);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(close(*a, *b, 1e-7), "n={n} bin {i}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn real_wrapper_roundtrip() {
        let signal: Vec<f32> = (0..123).map(|i| (i as f32 * 0.17).cos()).collect();
        let spec = fft_real(&signal);
        let back = ifft_to_real(&spec);
        for (a, b) in signal.iter().zip(&back) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn parseval_holds() {
        for n in [16usize, 21, 100] {
            let x = random_signal(n, 99);
            let spec = fft(&x);
            let ex: f64 = x.iter().map(|c| c.norm_sq()).sum();
            let es: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
            assert!((ex - es).abs() < 1e-8 * ex.max(1.0), "n={n}: {ex} vs {es}");
        }
    }

    #[test]
    fn linearity() {
        let x = random_signal(20, 1);
        let y = random_signal(20, 2);
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for i in 0..20 {
            assert!(close(fsum[i], fx[i] + fy[i], 1e-9));
        }
    }

    #[test]
    fn tiny_inputs() {
        assert!(fft(&[]).is_empty());
        let one = fft(&[Complex::new(3.0, -1.0)]);
        assert!(close(one[0], Complex::new(3.0, -1.0), 1e-12));
    }

    proptest! {
        #[test]
        fn roundtrip_any_length(n in 1usize..300, seed in any::<u64>()) {
            let x = random_signal(n, seed);
            let back = ifft(&fft(&x));
            for (a, b) in x.iter().zip(&back) {
                prop_assert!(close(*a, *b, 1e-7));
            }
        }
    }
}
