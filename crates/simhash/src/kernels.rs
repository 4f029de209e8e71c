//! Runtime kernel selection for the batched Hamming scans.
//!
//! Only the Hamming scans have kernels: fingerprint construction
//! ([`crate::simhash`]) is one portable loop whatever is selected here.
//! The window-scan kernels in [`crate::hamming`] exist in three bodies: an
//! AVX2 implementation (x86_64, `vpshufb` nibble-popcount), a NEON
//! implementation (aarch64, `vcntq_u8`), and the portable batched-scalar
//! loop the compiler autovectorizes as best it can. Which body runs is a
//! process-wide decision made once — engines capture
//! [`active_kernel`] at construction and pass it down to every scan — so the
//! hot path pays no repeated feature detection.
//!
//! Selection order: the `FIREHOSE_KERNEL` environment variable (`scalar`,
//! `avx2`, `neon`; an unsupported or unknown value falls back to detection)
//! wins, then the best kernel the host supports. CI runs the whole test
//! suite once with `FIREHOSE_KERNEL=scalar` so both dispatch paths stay
//! green, and every `benchmark/` result records which kernel produced it
//! (`simhash.kernel`).

use std::sync::OnceLock;

/// Identity of a batched Hamming kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// AVX2 `vpshufb` nibble-LUT popcount, 8 fingerprints per step
    /// (x86_64 with the `avx2` feature).
    Avx2,
    /// NEON `vcntq_u8` popcount, 8 fingerprints per step (aarch64).
    Neon,
    /// The portable 8-lane scalar loop (XOR + `count_ones`), available
    /// everywhere.
    BatchedScalar,
}

impl KernelKind {
    /// Stable lowercase name, as recorded in benchmark results and on
    /// `/metrics` (`"avx2"` / `"neon"` / `"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Avx2 => "avx2",
            KernelKind::Neon => "neon",
            KernelKind::BatchedScalar => "scalar",
        }
    }

    /// Whether this process can execute the kernel body. The scalar kernel
    /// is always supported; SIMD kernels require the right architecture
    /// *and* runtime CPU feature.
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
            KernelKind::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
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
/// cross-check each supported SIMD body against the scalar reference.
pub fn supported_kernels() -> Vec<KernelKind> {
    let mut kernels = Vec::with_capacity(2);
    if KernelKind::Avx2.is_supported() {
        kernels.push(KernelKind::Avx2);
    }
    if KernelKind::Neon.is_supported() {
        kernels.push(KernelKind::Neon);
    }
    kernels.push(KernelKind::BatchedScalar);
    kernels
}

/// The kernel the dispatching Hamming scans use, decided once per process.
///
/// `FIREHOSE_KERNEL=scalar` forces the portable scan loop (the CI
/// cross-check job); `avx2`/`neon` force a SIMD body *if supported*, and any
/// other or unsupported value falls back to auto-detection (best supported
/// kernel). It selects nothing else: [`crate::simhash`] has one body.
pub fn active_kernel() -> KernelKind {
    static ACTIVE: OnceLock<KernelKind> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if let Ok(forced) = std::env::var("FIREHOSE_KERNEL") {
            let forced = match forced.as_str() {
                "scalar" => Some(KernelKind::BatchedScalar),
                "avx2" => Some(KernelKind::Avx2),
                "neon" => Some(KernelKind::Neon),
                _ => None,
            };
            if let Some(k) = forced {
                if k.is_supported() {
                    return k;
                }
            }
        }
        supported_kernels()[0]
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
    fn names_are_stable() {
        assert_eq!(KernelKind::Avx2.name(), "avx2");
        assert_eq!(KernelKind::Neon.name(), "neon");
        assert_eq!(KernelKind::BatchedScalar.to_string(), "scalar");
    }

    #[test]
    fn at_most_one_simd_kernel_on_any_host() {
        // x86_64 can't have NEON and aarch64 can't have AVX2.
        assert!(!(KernelKind::Avx2.is_supported() && KernelKind::Neon.is_supported()));
    }
}
