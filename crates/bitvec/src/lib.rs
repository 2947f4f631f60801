//! Bit-vector substrate for the Spectral Bloom Filter workspace.
//!
//! The String-Array Index of the paper (§4) stores `m` variable-length
//! counter strings packed into a base array of `N` bits, and its auxiliary
//! structures need:
//!
//! * random access to arbitrary-width bit fields ([`BitVec::read_bits`] /
//!   [`BitVec::write_bits`]),
//! * overlapping bit-range moves for the "push items toward the nearest
//!   slack" expansion of §4.4 ([`BitVec::copy_within`]),
//! * constant-time `rank` and logarithmic `select` over a frozen bit vector
//!   ([`RankSelect`]) — `rank` powers the `F`-vector translation of §4.7.2,
//!   and `select` powers the classic select-reduction reference solution to
//!   the variable-length access problem (§4.2) that the tests compare the
//!   SAI against,
//! * sequential bit readers/writers ([`BitWriter`], [`BitReader`]) used by
//!   the Elias and "steps" encodings of §4.5, and their byte-backed twins
//!   ([`ByteWriter`], [`ByteReader`]) that code a counter vector straight
//!   into and out of a wire frame.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod packed;
pub mod rank;
pub mod stream;

pub use bits::BitVec;
pub use packed::PackedVec;
pub use rank::RankSelect;
pub use stream::{BitReader, BitSink, BitSource, BitWriter, ByteReader, ByteWriter};
