//! Synthetic datasets and workloads mirroring the paper's case studies
//! (§7) and benchmarks (§8).
//!
//! The original evaluation uses LSHTC, SUNAttribute, COCO, ImageNet,
//! UCF101, DETRAC traffic video, and NoScope's "coral" webcam stream —
//! none of which ship with this reproduction. Each generator here is a
//! *behavioral* stand-in: it reproduces the property of the real dataset
//! that the corresponding experiment exercises (sparsity and linear
//! separability for LSHTC, multi-modal non-linear structure for COCO,
//! domain shift between COCO and ImageNet, cluster structure for UCF101,
//! UDF-recoverable latent attributes for DETRAC, temporal redundancy for
//! the video stream). See DESIGN.md §2 for the substitution table.
//!
//! * [`synth`] — shared generator machinery,
//! * [`corpora`] — the five classification corpora of §8.1,
//! * [`traffic`] — the DETRAC-like surveillance dataset with its ML UDFs,
//! * [`traf20`] — the TRAF-20 query benchmark (§8.2, Table 7),
//! * [`video_stream`] — the coral-like stream for the NoScope comparison
//!   (Appendix B).

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod corpora;
pub mod synth;
pub mod traf20;
pub mod traffic;
pub mod video_stream;

pub use corpora::Corpus;
pub use traf20::{traf20_queries, TrafQuery};
pub use traffic::{TrafficConfig, TrafficDataset};
pub use video_stream::{VideoStream, VideoStreamConfig};
