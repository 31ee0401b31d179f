//! Kernel sets: the analysis and synthesis interiors run either as compiled
//! for the baseline target or as AVX2 + FMA twins of the same source.
//!
//! A private copy of `jwins_nn`'s dispatcher (this crate depends on no
//! other; a shared crate would be a new dependency edge). A loop is a value
//! implementing [`Kernel`], whose `run` is `#[inline(always)]`. [`run`]
//! either calls it directly — the portable set — or hands it to `avx2_fma`,
//! a `#[target_feature(enable = "avx2,fma")]` function generic over the
//! kernel: each kernel type gets its own twin, into which its body is
//! inlined and compiled for 256-bit registers. Target features change which
//! instructions are chosen, not what they compute: Rust never contracts
//! `a·b + c` into an FMA and never reassociates a sum, so both sets produce
//! the same bits (the oracle tests run under both).
//!
//! The set is chosen per call from the CPU, detected once per process. This
//! module holds the crate's only `unsafe` block.
#![allow(unsafe_code)]

#[cfg(test)]
use std::cell::Cell;
use std::sync::OnceLock;

/// A loop [`run`] may execute under either kernel set.
pub(crate) trait Kernel {
    type Output;

    /// The body. Implementations are `#[inline(always)]`, so that a twin
    /// compiles the whole loop with its features.
    fn run(self) -> Self::Output;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Set {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

/// What this CPU supports, detected on first use.
fn detected() -> Set {
    static SET: OnceLock<Set> = OnceLock::new();
    *SET.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Set::Avx2Fma;
        }
        Set::Portable
    })
}

#[cfg(test)]
thread_local! {
    static FORCE_PORTABLE: Cell<bool> = const { Cell::new(false) };
}

fn current() -> Set {
    #[cfg(test)]
    if FORCE_PORTABLE.get() {
        return Set::Portable;
    }
    detected()
}

/// The kernel set this thread's wavelet transforms run: `"avx2+fma"` on an
/// x86-64 CPU with both, `"portable"` otherwise. Both give the same bits;
/// logs print it to say which instructions a timing measured.
pub fn kernel_set() -> &'static str {
    match current() {
        Set::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Set::Avx2Fma => "avx2+fma",
    }
}

/// Runs `kernel` under this thread's kernel set.
pub(crate) fn run<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if current() == Set::Avx2Fma {
        // SAFETY: `avx2_fma` needs AVX2 and FMA, and `current` returns
        // `Avx2Fma` only after `is_x86_feature_detected!` found both on the
        // CPU this process runs on.
        return unsafe { avx2_fma(kernel) };
    }
    kernel.run()
}

/// The twin: `kernel`'s body compiled for AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2_fma<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// Runs `f` with this thread's kernels forced to the portable set.
#[cfg(test)]
pub(crate) fn portable<R>(f: impl FnOnce() -> R) -> R {
    let before = FORCE_PORTABLE.replace(true);
    let result = f();
    FORCE_PORTABLE.set(before);
    result
}

/// Runs `f` under the detected kernel set, then under the portable one.
#[cfg(test)]
pub(crate) fn both_sets(mut f: impl FnMut()) {
    f();
    portable(f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_set_the_cpu_supports() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(kernel_set(), "avx2+fma");
        }
        assert_eq!(portable(kernel_set), "portable");
    }
}
