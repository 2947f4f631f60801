//! Runtime-dispatched SIMD kernels for the hash hot path.
//!
//! The batched pipelines hash keys in *lane passes*: [`LANES`] keys enter a
//! kernel together and their `k` counter indices come out in seed-major
//! order (`out[i * LANES + lane]` is `h_i(key_lane)`), so one pass over the
//! seeds amortises the mixing arithmetic across a whole SIMD register. Three
//! implementations exist per kernel:
//!
//! * **scalar** — a plain loop over the exact per-key formulas of
//!   `family.rs`. This is the source of truth: the SIMD paths must be
//!   bit-identical to it, and `tests/batch_equivalence.rs` holds them to
//!   that.
//! * **SSE2** — the x86-64 baseline (every x86-64 CPU has it), two 64-bit
//!   lanes per `__m128i`, two passes per lane group.
//! * **AVX2** — four 64-bit lanes per `__m256i`, selected at runtime via
//!   `is_x86_feature_detected!`.
//!
//! The active level is detected once and cached ([`simd_level`]); the
//! `SBF_SIMD` environment variable (`scalar`, `sse2`, `avx2`) caps it at
//! startup so the scalar fallback can be exercised on AVX2 machines (CI
//! runs the whole suite under `SBF_SIMD=scalar`), and [`set_simd_level`]
//! overrides it in-process for the forced-scalar equivalence tests. Forcing a level *above* what
//! the CPU supports is impossible — both knobs clamp to the detected
//! maximum, so an invalid request degrades instead of faulting.
//!
//! # Why the kernels stay exact
//!
//! The families reduce a 64-bit hash onto `{0..m-1}` with the widening
//! multiply `(h · m) >> 64`. AVX2 has no 64×64→128 multiply, but for
//! `m < 2³²` (every realistic counter vector; the dispatcher checks and
//! falls back otherwise) the high word decomposes exactly:
//! with `h = h_hi·2³² + h_lo`, the high word equals
//! `(h_hi·m + ((h_lo·m) >> 32)) >> 32`,
//! with every intermediate product fitting 64 bits. Likewise the
//! full 64-bit products inside `fmix64` are assembled from 32×32→64
//! partial products. No rounding, no approximation — the lanes compute the
//! same integers the scalar code does.

// The crate is `deny(unsafe_code)`; like `prefetch.rs`, this module
// narrowly re-allows it for the intrinsic calls, each behind a runtime
// feature check and a documented safety argument.
#![allow(unsafe_code)]

use crate::mix::fmix64;
use crate::sync::atomic::{AtomicUsize, Ordering};

/// Keys per lane pass. Chosen to match the widest supported register
/// (AVX2: 4 × u64); narrower levels make several passes internally.
pub const LANES: usize = 4;

/// The SIMD capability the dispatched kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the bit-identity oracle.
    Scalar = 0,
    /// 128-bit x86-64 baseline vectors.
    Sse2 = 1,
    /// 256-bit vectors.
    Avx2 = 2,
}

impl SimdLevel {
    fn from_usize(v: usize) -> SimdLevel {
        match v {
            2 => SimdLevel::Avx2,
            1 => SimdLevel::Sse2,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Sentinel for "not yet detected".
const UNSET: usize = usize::MAX;

static LEVEL: AtomicUsize = AtomicUsize::new(UNSET);

/// What the hardware supports, independent of any override.
fn detect() -> SimdLevel {
    #[cfg(all(target_arch = "x86_64", target_pointer_width = "64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is architecturally guaranteed on x86-64.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(all(target_arch = "x86_64", target_pointer_width = "64")))]
    SimdLevel::Scalar
}

/// The cap requested through the `SBF_SIMD` environment variable, if any.
fn env_cap() -> SimdLevel {
    match std::env::var("SBF_SIMD") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "scalar" | "off" | "0" => SimdLevel::Scalar,
            "sse2" => SimdLevel::Sse2,
            // Unknown values (and "avx2") request the full detected level.
            _ => SimdLevel::Avx2,
        },
        Err(_) => SimdLevel::Avx2,
    }
}

/// The SIMD level the dispatched kernels currently run at.
///
/// Detected on first call (CPU features ∧ `SBF_SIMD` cap) and cached; see
/// [`set_simd_level`] for the in-process override.
#[inline]
pub fn simd_level() -> SimdLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return SimdLevel::from_usize(v);
    }
    let level = detect().min(env_cap());
    LEVEL.store(level as usize, Ordering::Relaxed);
    level
}

/// Overrides the dispatch level for this process, clamped to what the CPU
/// supports (so requesting AVX2 on a non-AVX2 machine yields the detected
/// baseline, never an illegal instruction). Returns the level actually
/// installed.
///
/// Intended for the forced-scalar equivalence tests;
/// callers toggling this concurrently with hot-path traffic get whichever
/// level each operation happens to observe — every level computes identical
/// indices, so that is benign.
pub fn set_simd_level(level: SimdLevel) -> SimdLevel {
    let clamped = level.min(detect());
    LEVEL.store(clamped as usize, Ordering::Relaxed);
    clamped
}

/// Serialises tests that toggle or assert the process-global dispatch
/// level. Every level computes bit-identical results, so concurrent
/// toggling would be benign for *equivalence* assertions, but a test that
/// asserts the level itself must not see another test's override; every
/// test in this crate that sets the level holds this.
#[cfg(test)]
pub(crate) fn test_level_lock() -> crate::sync::MutexGuard<'static, ()> {
    static LOCK: crate::sync::Mutex<()> = crate::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether `m` is small enough for the exact 32-bit decomposition of the
/// widening reduce (see the module docs). Counter vectors above 2³²
/// counters (32 GiB of u64s per filter) dispatch to scalar.
#[inline]
fn reducible(m: u64) -> bool {
    m <= u64::from(u32::MAX)
}

// ---------------------------------------------------------------------------
// Scalar oracles
// ---------------------------------------------------------------------------

/// Scalar reference for [`mix_indexes_lanes`]: the exact `MixFamily`
/// formula, `LANES` keys per seed, seed-major output.
pub fn mix_indexes_lanes_scalar(vs: [u64; LANES], seeds: &[u64], m: u64, out: &mut [usize]) {
    for (i, &s) in seeds.iter().enumerate() {
        for (lane, &v) in vs.iter().enumerate() {
            let h = fmix64(v ^ s);
            out[i * LANES + lane] = ((u128::from(h) * u128::from(m)) >> 64) as usize;
        }
    }
}

/// Scalar reference for [`multiply_indexes_lanes`]: the exact
/// `MultiplyFamily` fixed-point formula, seed-major output.
pub fn multiply_indexes_lanes_scalar(vs: [u64; LANES], alphas: &[u64], m: u64, out: &mut [usize]) {
    for (i, &a) in alphas.iter().enumerate() {
        for (lane, &v) in vs.iter().enumerate() {
            let frac = a.wrapping_mul(v);
            out[i * LANES + lane] = ((u128::from(frac) * u128::from(m)) >> 64) as usize;
        }
    }
}

/// Scalar reference for [`mix_reduce_lanes`]: one seeded `fmix64` +
/// widening reduce per lane (a block or shard pick).
pub fn mix_reduce_lanes_scalar(vs: [u64; LANES], seed: u64, range: u64) -> [usize; LANES] {
    let mut out = [0usize; LANES];
    for (lane, &v) in vs.iter().enumerate() {
        let h = fmix64(v ^ seed);
        out[lane] = ((u128::from(h) * u128::from(range)) >> 64) as usize;
    }
    out
}

/// A 32-bit counter word read as `u64`: `u32::MAX` marks a counter stuck
/// at saturation (the plain counter store's sticky rule) and reads
/// `u64::MAX`; every other word reads as itself.
#[inline]
pub fn widen_counter(c: u32) -> u64 {
    if c == u32::MAX {
        u64::MAX
    } else {
        u64::from(c)
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// `MixFamily` lane kernel: `out[i * LANES + lane] =
/// ((fmix64(vs[lane] ^ seeds[i]) · m) >> 64)`.
///
/// `out` must hold at least `seeds.len() * LANES` slots. Bit-identical to
/// [`mix_indexes_lanes_scalar`] at every dispatch level.
#[inline]
pub fn mix_indexes_lanes(vs: [u64; LANES], seeds: &[u64], m: u64, out: &mut [usize]) {
    debug_assert!(out.len() >= seeds.len() * LANES);
    #[cfg(all(target_arch = "x86_64", target_pointer_width = "64"))]
    if reducible(m) {
        match simd_level() {
            // SAFETY: `simd_level()` only reports Avx2 after
            // `is_x86_feature_detected!("avx2")` confirmed the CPU supports
            // it (and `set_simd_level` clamps to that detection).
            SimdLevel::Avx2 => return unsafe { x86::mix_indexes_lanes_avx2(vs, seeds, m, out) },
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            SimdLevel::Sse2 => return unsafe { x86::mix_indexes_lanes_sse2(vs, seeds, m, out) },
            SimdLevel::Scalar => {}
        }
    }
    mix_indexes_lanes_scalar(vs, seeds, m, out);
}

/// `MultiplyFamily` lane kernel: `out[i * LANES + lane] =
/// ((alphas[i]·vs[lane] mod 2⁶⁴) · m) >> 64`. Same contract as
/// [`mix_indexes_lanes`].
#[inline]
pub fn multiply_indexes_lanes(vs: [u64; LANES], alphas: &[u64], m: u64, out: &mut [usize]) {
    debug_assert!(out.len() >= alphas.len() * LANES);
    #[cfg(all(target_arch = "x86_64", target_pointer_width = "64"))]
    if reducible(m) {
        match simd_level() {
            SimdLevel::Avx2 => {
                // SAFETY: Avx2 is only reported after runtime detection.
                return unsafe { x86::multiply_indexes_lanes_avx2(vs, alphas, m, out) };
            }
            SimdLevel::Sse2 => {
                // SAFETY: SSE2 is part of the x86-64 baseline ISA.
                return unsafe { x86::multiply_indexes_lanes_sse2(vs, alphas, m, out) };
            }
            SimdLevel::Scalar => {}
        }
    }
    multiply_indexes_lanes_scalar(vs, alphas, m, out);
}

/// Single-function lane kernel: `fmix64(vs[lane] ^ seed)` reduced onto
/// `{0..range-1}` — the blocked family's first-level block pick, and the
/// shard router of the sharded batched estimate.
#[inline]
pub fn mix_reduce_lanes(vs: [u64; LANES], seed: u64, range: u64) -> [usize; LANES] {
    #[cfg(all(target_arch = "x86_64", target_pointer_width = "64"))]
    if reducible(range) {
        match simd_level() {
            // SAFETY: Avx2 is only reported after runtime detection.
            SimdLevel::Avx2 => return unsafe { x86::mix_reduce_lanes_avx2(vs, seed, range) },
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            SimdLevel::Sse2 => return unsafe { x86::mix_reduce_lanes_sse2(vs, seed, range) },
            SimdLevel::Scalar => {}
        }
    }
    mix_reduce_lanes_scalar(vs, seed, range)
}

// ---------------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_pointer_width = "64"))]
mod x86 {
    //! The intrinsic bodies. Every function is `unsafe fn` with the
    //! contract "the named target feature is available"; the dispatchers in
    //! the parent module establish it.

    use super::LANES;
    use std::arch::x86_64::*;

    /// Exact low 64 bits of a 64×64 lane multiply, assembled from
    /// 32×32→64 partial products: `lo(a·b) = a_lo·b_lo +
    /// ((a_lo·b_hi + a_hi·b_lo) << 32)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_low64_avx2(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// The Murmur3 finalizer (`mix::fmix64`) over four lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fmix64_avx2(mut k: __m256i) -> __m256i {
        let c1 = _mm256_set1_epi64x(0xff51_afd7_ed55_8ccd_u64 as i64);
        let c2 = _mm256_set1_epi64x(0xc4ce_b9fe_1a85_ec53_u64 as i64);
        k = _mm256_xor_si256(k, _mm256_srli_epi64::<33>(k));
        k = mul_low64_avx2(k, c1);
        k = _mm256_xor_si256(k, _mm256_srli_epi64::<33>(k));
        k = mul_low64_avx2(k, c2);
        _mm256_xor_si256(k, _mm256_srli_epi64::<33>(k))
    }

    /// Exact `(h · m) >> 64` for `m < 2³²`: with `h = h_hi·2³² + h_lo`,
    /// the high word is `(h_hi·m + ((h_lo·m) >> 32)) >> 32`, every term
    /// fitting 64 bits (see the module docs for the carry argument).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_avx2(h: __m256i, m: __m256i) -> __m256i {
        let lo_m = _mm256_mul_epu32(h, m);
        let hi_m = _mm256_mul_epu32(_mm256_srli_epi64::<32>(h), m);
        let sum = _mm256_add_epi64(hi_m, _mm256_srli_epi64::<32>(lo_m));
        _mm256_srli_epi64::<32>(sum)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mix_indexes_lanes_avx2(
        vs: [u64; LANES],
        seeds: &[u64],
        m: u64,
        out: &mut [usize],
    ) {
        // SAFETY (loads/stores): `vs` is 4 u64s, matching __m256i width;
        // `out` holds ≥ seeds.len()*4 usize (= u64 on this target), and
        // loadu/storeu have no alignment requirement.
        let v = _mm256_loadu_si256(vs.as_ptr().cast());
        let mv = _mm256_set1_epi64x(m as i64);
        for (i, &s) in seeds.iter().enumerate() {
            let h = fmix64_avx2(_mm256_xor_si256(v, _mm256_set1_epi64x(s as i64)));
            let idx = reduce_avx2(h, mv);
            _mm256_storeu_si256(out.as_mut_ptr().add(i * LANES).cast(), idx);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn multiply_indexes_lanes_avx2(
        vs: [u64; LANES],
        alphas: &[u64],
        m: u64,
        out: &mut [usize],
    ) {
        // SAFETY: same load/store argument as `mix_indexes_lanes_avx2`.
        let v = _mm256_loadu_si256(vs.as_ptr().cast());
        let mv = _mm256_set1_epi64x(m as i64);
        for (i, &a) in alphas.iter().enumerate() {
            let frac = mul_low64_avx2(v, _mm256_set1_epi64x(a as i64));
            let idx = reduce_avx2(frac, mv);
            _mm256_storeu_si256(out.as_mut_ptr().add(i * LANES).cast(), idx);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mix_reduce_lanes_avx2(
        vs: [u64; LANES],
        seed: u64,
        range: u64,
    ) -> [usize; LANES] {
        // SAFETY: `vs`/`out` are 4 u64-sized lanes; unaligned ops.
        let v = _mm256_loadu_si256(vs.as_ptr().cast());
        let h = fmix64_avx2(_mm256_xor_si256(v, _mm256_set1_epi64x(seed as i64)));
        let idx = reduce_avx2(h, _mm256_set1_epi64x(range as i64));
        let mut out = [0usize; LANES];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), idx);
        out
    }

    // -- SSE2: identical arithmetic on two lanes, two passes per group --

    /// Exact low 64 bits of a 64×64 lane multiply (two lanes).
    #[inline]
    unsafe fn mul_low64_sse2(a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 baseline intrinsics; register-only arithmetic.
        let lo = _mm_mul_epu32(a, b);
        let a_hi = _mm_srli_epi64::<32>(a);
        let b_hi = _mm_srli_epi64::<32>(b);
        let cross = _mm_add_epi64(_mm_mul_epu32(a_hi, b), _mm_mul_epu32(a, b_hi));
        _mm_add_epi64(lo, _mm_slli_epi64::<32>(cross))
    }

    /// `mix::fmix64` over two lanes.
    #[inline]
    unsafe fn fmix64_sse2(mut k: __m128i) -> __m128i {
        // SAFETY: SSE2 baseline intrinsics; register-only arithmetic.
        let c1 = _mm_set1_epi64x(0xff51_afd7_ed55_8ccd_u64 as i64);
        let c2 = _mm_set1_epi64x(0xc4ce_b9fe_1a85_ec53_u64 as i64);
        k = _mm_xor_si128(k, _mm_srli_epi64::<33>(k));
        k = mul_low64_sse2(k, c1);
        k = _mm_xor_si128(k, _mm_srli_epi64::<33>(k));
        k = mul_low64_sse2(k, c2);
        _mm_xor_si128(k, _mm_srli_epi64::<33>(k))
    }

    /// Exact `(h · m) >> 64` for `m < 2³²` (two lanes).
    #[inline]
    unsafe fn reduce_sse2(h: __m128i, m: __m128i) -> __m128i {
        // SAFETY: SSE2 baseline intrinsics; register-only arithmetic.
        let lo_m = _mm_mul_epu32(h, m);
        let hi_m = _mm_mul_epu32(_mm_srli_epi64::<32>(h), m);
        let sum = _mm_add_epi64(hi_m, _mm_srli_epi64::<32>(lo_m));
        _mm_srli_epi64::<32>(sum)
    }

    pub(super) unsafe fn mix_indexes_lanes_sse2(
        vs: [u64; LANES],
        seeds: &[u64],
        m: u64,
        out: &mut [usize],
    ) {
        // SAFETY: SSE2 is baseline; loads/stores cover vs[pair..pair+2]
        // (u64 pairs) and out slots `i*LANES + pair .. +2`, which the
        // caller sized (`out.len() ≥ seeds.len() * LANES`); unaligned ops.
        let mv = _mm_set1_epi64x(m as i64);
        for pair in [0usize, 2] {
            let v = _mm_loadu_si128(vs.as_ptr().add(pair).cast());
            for (i, &s) in seeds.iter().enumerate() {
                let h = fmix64_sse2(_mm_xor_si128(v, _mm_set1_epi64x(s as i64)));
                let idx = reduce_sse2(h, mv);
                _mm_storeu_si128(out.as_mut_ptr().add(i * LANES + pair).cast(), idx);
            }
        }
    }

    pub(super) unsafe fn multiply_indexes_lanes_sse2(
        vs: [u64; LANES],
        alphas: &[u64],
        m: u64,
        out: &mut [usize],
    ) {
        // SAFETY: same as `mix_indexes_lanes_sse2`.
        let mv = _mm_set1_epi64x(m as i64);
        for pair in [0usize, 2] {
            let v = _mm_loadu_si128(vs.as_ptr().add(pair).cast());
            for (i, &a) in alphas.iter().enumerate() {
                let frac = mul_low64_sse2(v, _mm_set1_epi64x(a as i64));
                let idx = reduce_sse2(frac, mv);
                _mm_storeu_si128(out.as_mut_ptr().add(i * LANES + pair).cast(), idx);
            }
        }
    }

    pub(super) unsafe fn mix_reduce_lanes_sse2(
        vs: [u64; LANES],
        seed: u64,
        range: u64,
    ) -> [usize; LANES] {
        // SAFETY: SSE2 baseline; loads/stores stay inside the 4-lane
        // arrays; unaligned ops.
        let sv = _mm_set1_epi64x(seed as i64);
        let rv = _mm_set1_epi64x(range as i64);
        let mut out = [0usize; LANES];
        for pair in [0usize, 2] {
            let v = _mm_loadu_si128(vs.as_ptr().add(pair).cast());
            let h = fmix64_sse2(_mm_xor_si128(v, sv));
            let idx = reduce_sse2(h, rv);
            _mm_storeu_si128(out.as_mut_ptr().add(pair).cast(), idx);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::SplitMix64;

    fn keysets() -> Vec<[u64; LANES]> {
        let mut rng = SplitMix64::new(0xd15b_a7c4);
        let mut sets = vec![
            [0, 1, 2, 3],
            [u64::MAX, 0, u64::MAX - 1, 1],
            [0xdead_beef, 0xdead_beef, 0xdead_beef, 0xdead_beef],
        ];
        for _ in 0..64 {
            sets.push([
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ]);
        }
        sets
    }

    #[test]
    fn detected_level_is_cached_and_clamped() {
        let _g = test_level_lock();
        let initial = simd_level();
        assert_eq!(simd_level(), initial, "level must be stable");
        // Force scalar, then restore: both must stick (clamped to CPU max).
        assert_eq!(set_simd_level(SimdLevel::Scalar), SimdLevel::Scalar);
        assert_eq!(simd_level(), SimdLevel::Scalar);
        let restored = set_simd_level(SimdLevel::Avx2);
        assert!(restored <= SimdLevel::Avx2);
        assert_eq!(simd_level(), restored);
        set_simd_level(initial);
    }

    /// Detection must pick AVX2 on a CPU that reports it. Detection that
    /// silently fell back to a lower level would still pass every
    /// bit-identity test, only slower. Skipped when `SBF_SIMD` caps the
    /// level.
    #[test]
    fn detection_selects_avx2_when_the_cpu_has_it() {
        if std::env::var_os("SBF_SIMD").is_some() {
            return;
        }
        #[cfg(all(target_arch = "x86_64", target_pointer_width = "64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            let _g = test_level_lock();
            let initial = simd_level();
            // Forget the cached level, so the next call detects afresh.
            LEVEL.store(UNSET, Ordering::Relaxed);
            assert_eq!(simd_level(), SimdLevel::Avx2);
            set_simd_level(initial);
        }
    }

    #[test]
    fn mix_lanes_match_scalar_at_every_level() {
        let _g = test_level_lock();
        let seeds: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..5).map(|_| rng.next_u64()).collect()
        };
        let initial = simd_level();
        for m in [1u64, 2, 3, 97, 4096, (1 << 32) - 1, 1 << 40] {
            for vs in keysets() {
                let mut want = [0usize; 5 * LANES];
                mix_indexes_lanes_scalar(vs, &seeds, m, &mut want);
                for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                    set_simd_level(level);
                    let mut got = [0usize; 5 * LANES];
                    mix_indexes_lanes(vs, &seeds, m, &mut got);
                    assert_eq!(got, want, "m={m} level={level:?}");
                }
            }
        }
        set_simd_level(initial);
    }

    #[test]
    fn multiply_lanes_match_scalar_at_every_level() {
        let _g = test_level_lock();
        let alphas: Vec<u64> = {
            let mut rng = SplitMix64::new(11);
            (0..4).map(|_| rng.next_odd_u64()).collect()
        };
        let initial = simd_level();
        for m in [1u64, 1000, 1 << 20, (1 << 32) - 1] {
            for vs in keysets() {
                let mut want = [0usize; 4 * LANES];
                multiply_indexes_lanes_scalar(vs, &alphas, m, &mut want);
                for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                    set_simd_level(level);
                    let mut got = [0usize; 4 * LANES];
                    multiply_indexes_lanes(vs, &alphas, m, &mut got);
                    assert_eq!(got, want, "m={m} level={level:?}");
                }
            }
        }
        set_simd_level(initial);
    }

    #[test]
    fn block_reduce_matches_scalar_at_every_level() {
        let _g = test_level_lock();
        let initial = simd_level();
        for range in [1u64, 2, 31, 1 << 16] {
            for vs in keysets() {
                let want = mix_reduce_lanes_scalar(vs, 99, range);
                for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
                    set_simd_level(level);
                    assert_eq!(
                        mix_reduce_lanes(vs, 99, range),
                        want,
                        "range={range} level={level:?}"
                    );
                }
            }
        }
        set_simd_level(initial);
    }

    #[test]
    fn env_cap_parses_known_levels() {
        // Pure parse test (the cached global is decided elsewhere).
        assert_eq!(SimdLevel::from_usize(0), SimdLevel::Scalar);
        assert_eq!(SimdLevel::from_usize(1), SimdLevel::Sse2);
        assert_eq!(SimdLevel::from_usize(2), SimdLevel::Avx2);
        assert!(SimdLevel::Scalar < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
    }
}
