//! The comparator systems of the paper's evaluation (§8).
//!
//! * [`sortp`] — SortP: optimal ordering of predicates and their
//!   generating UDFs (Deshpande et al. \[17\], built on Babu et al. \[7\]);
//!   lowers resource usage a little but "serializing the predicates (and
//!   UDFs) leads to longer critical paths".
//! * [`correlation`] — the input-column correlation filter of Joglekar et
//!   al. \[27\]: drops blobs early based on per-dimension pass statistics;
//!   works on sparse text, fails on dense ML blobs (Table 6).
//! * [`noscope`] — a NoScope-like cascade (Kang et al. \[29\], Appendix B):
//!   masked sampler → absolute/relative background subtraction →
//!   dual-threshold early filter → reference detector.
//!
//! The NoP baseline (run the query as-is) needs no code of its own:
//! [`pp_data::TrafQuery::nop_plan`] builds it.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod correlation;
pub mod noscope;
pub mod sortp;

pub use correlation::{CorrelationConfig, CorrelationFilter};
pub use noscope::{CascadeConfig, CascadeOutcome};
pub use sortp::sortp_plan;
