//! An out-of-core columnar segment store for blob corpora.
//!
//! The paper's setting is "petabytes of video a day" — corpora that never
//! fit in memory. This crate provides the storage layer for that regime:
//!
//! * a versioned on-disk **segment format** ([`mod@format`]) — row groups of
//!   configurable size, per-column value pages with CRC32 checksums, and
//!   per-column [`ZoneMap`] statistics in a checksummed footer,
//! * a [`SegmentWriter`] that shards a corpus into N segment files with
//!   contiguous row ranges (so shard-order concatenation reproduces the
//!   original row order), and
//! * a [`SegmentScan`] table provider that streams row groups under a
//!   memory budget and prunes groups a pushed-down predicate provably
//!   cannot match.
//!
//! Zone maps are the "PPs for free" of the design: coarse per-group
//! predicates with accuracy 1.0 and near-zero cost that slot beneath the
//! trained PPs in the same cascade. Readers are hardened — corrupt,
//! truncated, or oversized inputs yield typed [`StoreError`]s, never
//! panics — every size field is capped before allocation, and every
//! count is held to the bytes actually there before room for that many
//! items is reserved (the bounded reader of [`pp_engine::bytes`], which
//! the wire protocol decodes through too).
//!
//! [`ZoneMap`]: pp_engine::ZoneMap

#![deny(missing_docs)]
#![warn(clippy::all)]
// Everything here may be handed untrusted bytes: no panicking shortcuts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod format;
pub mod scan;
pub mod segment;
pub mod writer;

pub use format::{crc32, StoreError, MAX_FOOTER_LEN, SEGMENT_VERSION};
pub use scan::SegmentScan;
pub use segment::Segment;
pub use writer::{SegmentInfo, SegmentWriter, SegmentWriterConfig};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
