//! Runtime kernel selection for the batched Hamming scans.
//!
//! Only the Hamming scans have kernels: fingerprint construction
//! ([`crate::simhash`]) is one portable loop whatever is selected here.
//! The window scan in [`crate::hamming`] is written once, with no
//! intrinsics, and compiled twice: inside `#[target_feature(enable =
//! "avx2")]` functions (x86_64), where LLVM vectorizes its popcount with the
//! AVX2 nibble LUT, and for the build's baseline target. The baseline build
//! is the batched-scalar kernel; on aarch64, whose baseline includes NEON,
//! it is already the NEON build. Which body runs is a process-wide decision
//! made once — engines capture [`active_kernel`] at construction and pass it
//! down to every scan — so the hot path pays no repeated feature detection.
//!
//! Selection order: the `FIREHOSE_KERNEL` environment variable (`scalar` or
//! `avx2`; an unsupported or unknown value falls back to detection) wins,
//! then the best kernel the host supports. CI runs the whole test suite once
//! with `FIREHOSE_KERNEL=scalar` so both dispatch paths stay green, and
//! every `benchmark/` result records which kernel produced it
//! (`simhash.kernel`).

use std::sync::OnceLock;

/// Identity of a compiled Hamming scan body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The scan compiled with AVX2 enabled, 8 fingerprints per step
    /// (x86_64 with the `avx2` feature).
    Avx2,
    /// The scan compiled for the build's baseline target (XOR +
    /// `count_ones` over 8 lanes), available everywhere.
    BatchedScalar,
}

impl KernelKind {
    /// Stable lowercase name, as recorded in benchmark results and on
    /// `/metrics` (`"avx2"` / `"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Avx2 => "avx2",
            KernelKind::BatchedScalar => "scalar",
        }
    }

    /// Whether this process can execute the kernel body. The scalar kernel
    /// is always supported; the AVX2 kernel requires x86_64 *and* the
    /// runtime CPU feature.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            KernelKind::BatchedScalar => true,
            KernelKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every kernel this process can execute, best first. Always ends with
/// [`KernelKind::BatchedScalar`]. Differential tests iterate this list to
/// cross-check each supported body against the scalar reference.
pub fn supported_kernels() -> Vec<KernelKind> {
    let mut kernels = Vec::with_capacity(2);
    if KernelKind::Avx2.is_supported() {
        kernels.push(KernelKind::Avx2);
    }
    kernels.push(KernelKind::BatchedScalar);
    kernels
}

/// The kernel a `FIREHOSE_KERNEL` value names, or `None` (detect) for any
/// other value.
fn forced_kernel(value: &str) -> Option<KernelKind> {
    match value {
        "scalar" => Some(KernelKind::BatchedScalar),
        "avx2" => Some(KernelKind::Avx2),
        _ => None,
    }
}

/// The kernel the dispatching Hamming scans use, decided once per process.
///
/// `FIREHOSE_KERNEL=scalar` forces the baseline build of the scan (the CI
/// cross-check job); `avx2` forces the AVX2 build *if supported*, and any
/// other or unsupported value falls back to auto-detection (best supported
/// kernel). It selects nothing else: [`crate::simhash`] has one body.
pub fn active_kernel() -> KernelKind {
    static ACTIVE: OnceLock<KernelKind> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        std::env::var("FIREHOSE_KERNEL")
            .ok()
            .and_then(|value| forced_kernel(&value))
            .filter(|k| k.is_supported())
            .unwrap_or_else(|| supported_kernels()[0])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported() {
        assert!(KernelKind::BatchedScalar.is_supported());
        let kernels = supported_kernels();
        assert_eq!(*kernels.last().unwrap(), KernelKind::BatchedScalar);
    }

    #[test]
    fn active_kernel_is_supported() {
        assert!(active_kernel().is_supported());
    }

    #[test]
    fn env_override_selects_the_named_kernel() {
        // CI's scalar-kernel job relies on this: a `FIREHOSE_KERNEL` naming
        // a kernel this host can run wins over detection.
        if let Ok(forced) = std::env::var("FIREHOSE_KERNEL") {
            if supported_kernels().iter().any(|k| k.name() == forced) {
                assert_eq!(active_kernel().name(), forced);
            }
        }
    }

    #[test]
    fn forced_kernel_names_only_the_two_builds() {
        assert_eq!(forced_kernel("scalar"), Some(KernelKind::BatchedScalar));
        assert_eq!(forced_kernel("avx2"), Some(KernelKind::Avx2));
        for detect in ["neon", "", "bogus"] {
            assert_eq!(forced_kernel(detect), None, "{detect:?}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelKind::Avx2.name(), "avx2");
        assert_eq!(KernelKind::BatchedScalar.to_string(), "scalar");
    }
}
