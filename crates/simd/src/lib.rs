//! # surf-simd
//!
//! The host instruction-set probe that benchmark artifacts are stamped with, so numbers
//! measured on different machines are never compared as if they were one host's.
//!
//! [`detected`] asks the CPU once per process (`is_x86_feature_detected!`, cached in a
//! [`OnceLock`]) for the widest vector ISA it supports: AVX2 when present, else SSE2 (part
//! of the x86_64 baseline), and [`Isa::Scalar`] on every other architecture. This crate is
//! a label, not a dispatch: no code branches on [`detected`]. The one dispatch on the ISA,
//! `surf-ml`'s KDE box loop, asks `std`'s `is_x86_feature_detected!("avx2")` itself, the same
//! test, so an `avx2` stamp names the build of that loop the run used.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

/// The widest vector instruction set the host supports.
///
/// Ordering is capability order: each variant strictly extends the previous one's
/// instruction set on x86_64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// No x86_64 vector extension (every non-x86_64 architecture).
    Scalar,
    /// 128-bit SSE2, unconditionally available on x86_64 (baseline ABI).
    Sse2,
    /// 256-bit AVX2, reported when `is_x86_feature_detected!("avx2")` holds.
    Avx2,
}

impl Isa {
    /// Stable lowercase label, used in bench artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }
}

/// The widest ISA this CPU supports, probed once per process and cached.
pub fn detected() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(probe)
}

#[cfg(target_arch = "x86_64")]
fn probe() -> Isa {
    if std::arch::is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else {
        // SSE2 is part of the x86_64 baseline ABI: every x86_64 CPU has it.
        Isa::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> Isa {
    Isa::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_sane() {
        let isa = detected();
        if cfg!(target_arch = "x86_64") {
            assert!(isa >= Isa::Sse2, "SSE2 is baseline on x86_64");
        } else {
            assert_eq!(isa, Isa::Scalar);
        }
        assert_eq!(detected(), isa, "the probe is cached");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Isa::Scalar.label(), "scalar");
        assert_eq!(Isa::Sse2.label(), "sse2");
        assert_eq!(Isa::Avx2.label(), "avx2");
    }
}
