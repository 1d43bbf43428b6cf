//! What the trainer saw on the validation frames it certified the corpus
//! on, kept beside the catalog so the planner counts pass rates instead of
//! modelling them (Joglekar et al. measure joint behaviour the same way,
//! rather than assuming independence).
//!
//! Every clause of a [`train_catalog`](crate::train::PpTrainer::train_catalog)
//! call is split by one seed over one frame range, so the clauses share
//! their validation frames. Per frame the sidecar keeps each trained
//! clause's label bit and each PP's score. A conjunct's pass rate among a
//! chosen PP expression's survivors is then a count over frames:
//!
//! * a frame's truth comes from the clause bits: a clause the corpus
//!   trained (or its negation) is exact;
//! * an order comparison whose constant falls between two boundaries the
//!   corpus has order clauses at counts, for a frame between them, the
//!   share of that bin on the passing side, and an open-ended bin ½;
//! * negation is `1 − w`, conjunction a product and disjunction
//!   `1 − Π(1 − w)`, all per frame;
//! * a clause the corpus says nothing of is unknown: a conjunction skips
//!   it, anything else holding it is unknown, and an unknown conjunct's
//!   rate is 1, so it never moves a stage ahead.
//!
//! Truth shares are held as a few disjoint frame sets with one weight each,
//! so a query costs a handful of word operations per 64 frames.

use std::sync::Arc;

use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_linalg::FeatureBatch;
use pp_ml::dataset::LabeledSet;

use crate::catalog::PpCatalog;
use crate::expr::{PlannedPpExpr, PpExpr};
use crate::pp::ProbabilisticPredicate;

/// A set of validation frames, one bit each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSet {
    words: Vec<u64>,
}

impl FrameSet {
    fn from_bits(frames: usize, bits: impl IntoIterator<Item = bool>) -> FrameSet {
        let mut words = vec![0u64; frames.div_ceil(64)];
        for (i, bit) in bits.into_iter().take(frames).enumerate() {
            words[i / 64] |= u64::from(bit) << (i % 64);
        }
        FrameSet { words }
    }

    /// The number of frames in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no frame is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn zip(&self, other: &FrameSet, op: impl Fn(u64, u64) -> u64) -> FrameSet {
        let words = self.words.iter().zip(&other.words);
        FrameSet {
            words: words.map(|(&a, &b)| op(a, b)).collect(),
        }
    }

    fn and(&self, other: &FrameSet) -> FrameSet {
        self.zip(other, |a, b| a & b)
    }

    fn or(&self, other: &FrameSet) -> FrameSet {
        self.zip(other, |a, b| a | b)
    }

    fn minus(&self, other: &FrameSet) -> FrameSet {
        self.zip(other, |a, b| a & !b)
    }

    fn overlap(&self, other: &FrameSet) -> usize {
        let words = self.words.iter().zip(&other.words);
        words.map(|(a, b)| (a & b).count_ones() as usize).sum()
    }
}

/// A per-frame truth share `w ∈ [0, 1]`: each frame of a set holds that
/// set's weight, the sets are disjoint, and a frame in none holds 0.
#[derive(Debug, Clone, Default)]
struct Share(Vec<(f64, FrameSet)>);

impl Share {
    fn exact(set: FrameSet) -> Share {
        let mut share = Share::default();
        share.add(1.0, set);
        share
    }

    /// Adds `set` at `weight`; a set already held at the same weight
    /// takes it in, so the sets stay as few as the distinct weights.
    fn add(&mut self, weight: f64, set: FrameSet) {
        if weight <= 0.0 || set.is_empty() {
            return;
        }
        match self.0.iter_mut().find(|(w, _)| *w == weight) {
            Some((_, held)) => *held = held.or(&set),
            None => self.0.push((weight, set)),
        }
    }

    /// `1 − w` over the frames of `all`.
    fn not(&self, all: &FrameSet) -> Share {
        let rest = (self.0.iter()).fold(all.clone(), |rest, (_, set)| rest.minus(set));
        let mut out = Share::exact(rest);
        for (w, set) in &self.0 {
            out.add(1.0 - w, set.clone());
        }
        out
    }

    fn and(&self, other: &Share) -> Share {
        let mut out = Share::default();
        for (a, s) in &self.0 {
            for (b, t) in &other.0 {
                out.add(a * b, s.and(t));
            }
        }
        out
    }

    /// `Σ w` over the frames of `frames`.
    fn sum(&self, frames: &FrameSet) -> f64 {
        (self.0.iter())
            .map(|(w, set)| w * set.overlap(frames) as f64)
            .sum()
    }
}

/// The validation frames a catalog's PPs were certified on: each trained
/// clause's label bit and each PP's score, per frame.
pub struct ValidationSidecar {
    /// All frames.
    all: FrameSet,
    /// Each trained clause beside the frames it holds on.
    clauses: Vec<(Clause, FrameSet)>,
    /// Each PP beside its score per frame.
    scores: Vec<(Arc<ProbabilisticPredicate>, Vec<f64>)>,
}

impl std::fmt::Debug for ValidationSidecar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidationSidecar")
            .field("frames", &self.frames())
            .field("clauses", &self.clauses.len())
            .field("pps", &self.scores.len())
            .finish()
    }
}

/// The validation splits of one training run, gathered clause by clause:
/// the first split's frames, and each clause's labels on them while every
/// later split holds the same frames (compared in order: the same shared
/// blob, or failing that equal features).
#[derive(Default)]
pub(crate) struct SidecarBuilder {
    frames: Option<LabeledSet>,
    clauses: Vec<(Clause, FrameSet)>,
    same: bool,
}

impl SidecarBuilder {
    /// Adds a trained clause's validation split.
    pub(crate) fn add(&mut self, clause: &Clause, val: LabeledSet) {
        let labels = FrameSet::from_bits(val.len(), val.iter().map(|s| s.label));
        self.clauses.push((clause.clone(), labels));
        match &self.frames {
            None => {
                self.same = true;
                self.frames = Some(val);
            }
            Some(frames) => {
                self.same &= val.len() == frames.len()
                    && (val.iter().zip(frames.iter())).all(|(a, b)| {
                        Arc::ptr_eq(&a.features, &b.features) || a.features == b.features
                    });
            }
        }
    }

    /// The sidecar of `catalog`'s PPs over the splits; `None` unless they
    /// all held the same frames.
    pub(crate) fn build(self, catalog: &PpCatalog) -> Option<ValidationSidecar> {
        let frames = self.frames.filter(|_| self.same)?;
        let features = frames.features();
        let batch = FeatureBatch::Refs(&features);
        let scores = (catalog.all().iter())
            .map(|pp| (Arc::clone(pp), pp.pipeline().score_many(&batch)))
            .collect();
        Some(ValidationSidecar {
            all: FrameSet::from_bits(frames.len(), std::iter::repeat(true)),
            clauses: self.clauses,
            scores,
        })
    }
}

impl ValidationSidecar {
    /// The number of validation frames.
    pub fn frames(&self) -> usize {
        self.all.len()
    }

    /// Every validation frame: the survivors of a plan with no PP.
    pub fn all(&self) -> &FrameSet {
        &self.all
    }

    /// `pp`'s score on each validation frame; `None` when the sidecar did
    /// not score this PP's model (one inserted into the catalog after
    /// training).
    pub fn scores(&self, pp: &ProbabilisticPredicate) -> Option<&[f64]> {
        let (_, scores) = (self.scores.iter()).find(|(scored, _)| scored.same_model(pp))?;
        Some(scores)
    }

    /// The frames `pp` keeps at `threshold` (score `≥` threshold, as its
    /// filter compares); `None` as for [`Self::scores`].
    pub fn kept(&self, pp: &ProbabilisticPredicate, threshold: f64) -> Option<FrameSet> {
        let scores = self.scores(pp)?;
        Some(FrameSet::from_bits(
            scores.len(),
            scores.iter().map(|&s| s >= threshold),
        ))
    }

    /// The frames `planned` keeps at its thresholds.
    pub(crate) fn survivors(&self, planned: &PlannedPpExpr) -> Option<FrameSet> {
        let mut thresholds = planned.thresholds().iter();
        self.kept_by(planned.expr(), &mut thresholds)
    }

    fn kept_by<'a>(
        &self,
        expr: &PpExpr,
        thresholds: &mut impl Iterator<Item = &'a f64>,
    ) -> Option<FrameSet> {
        let (children, and) = match expr {
            PpExpr::Leaf(pp) => return self.kept(pp, *thresholds.next()?),
            PpExpr::And(children) => (children, true),
            PpExpr::Or(children) => (children, false),
        };
        let mut kept: Option<FrameSet> = None;
        for child in children {
            let child = self.kept_by(child, thresholds)?;
            kept = Some(match kept {
                None => child,
                Some(held) if and => held.and(&child),
                Some(held) => held.or(&child),
            });
        }
        kept
    }

    /// `Σ w` of `predicate`'s truth share over `frames`: for a predicate
    /// of clauses the corpus trained, the number of those frames it holds
    /// on. `None` when the corpus says nothing of it.
    pub fn count(&self, frames: &FrameSet, predicate: &Predicate) -> Option<f64> {
        Some(self.share(&predicate.to_nnf())?.sum(frames))
    }

    /// The share of `survivors` on which `conjunct` holds; 1 when it is
    /// unknown or no frame survives.
    pub(crate) fn pass_rate(&self, survivors: &FrameSet, conjunct: &Predicate) -> f64 {
        let n = survivors.len();
        match self.count(survivors, conjunct) {
            Some(count) if n > 0 => count / n as f64,
            _ => 1.0,
        }
    }

    fn share(&self, predicate: &Predicate) -> Option<Share> {
        match predicate {
            Predicate::True => Some(Share::exact(self.all.clone())),
            Predicate::False => Some(Share::default()),
            Predicate::Clause(c) => self.clause(c),
            Predicate::Not(p) => Some(self.share(p)?.not(&self.all)),
            Predicate::And(ps) => Some(
                (ps.iter().filter_map(|p| self.share(p)))
                    .fold(Share::exact(self.all.clone()), |acc, w| acc.and(&w)),
            ),
            Predicate::Or(ps) => {
                let mut none = Share::exact(self.all.clone());
                for p in ps {
                    none = none.and(&self.share(p)?.not(&self.all));
                }
                Some(none.not(&self.all))
            }
        }
    }

    fn labels(&self, clause: &Clause) -> Option<&FrameSet> {
        (self.clauses.iter())
            .find(|(c, _)| c == clause)
            .map(|(_, set)| set)
    }

    fn clause(&self, clause: &Clause) -> Option<Share> {
        if let Some(set) = self.labels(clause) {
            return Some(Share::exact(set.clone()));
        }
        if let Some(set) = self.labels(&clause.negated()) {
            return Some(Share::exact(set.clone()).not(&self.all));
        }
        match clause.op {
            CompareOp::Ge | CompareOp::Gt => self.above(clause),
            CompareOp::Le | CompareOp::Lt => Some(self.above(clause)?.not(&self.all)),
            CompareOp::Eq | CompareOp::Ne => None,
        }
    }

    /// The share of each frame above `clause`'s constant, from the
    /// corpus's order clauses on its column, each a boundary: a frame
    /// between the two boundaries round the constant counts the share of
    /// that bin above it, ½ if the bin is open.
    fn above(&self, clause: &Clause) -> Option<Share> {
        let at = clause.value.as_float().ok()?;
        let mut below: Option<(f64, &Clause, &FrameSet)> = None;
        let mut above: Option<(f64, &Clause, &FrameSet)> = None;
        for (c, set) in &self.clauses {
            let Ok(b) = c.value.as_float() else {
                continue;
            };
            if c.column != clause.column || matches!(c.op, CompareOp::Eq | CompareOp::Ne) {
                continue;
            }
            if b == at {
                return Some(Share::exact(self.over(c, set)));
            }
            let side = if b < at { &mut below } else { &mut above };
            if side.is_none_or(|(held, _, _)| (b - at).abs() < (held - at).abs()) {
                *side = Some((b, c, set));
            }
        }
        let below = below.map(|(b, c, set)| (b, self.over(c, set)));
        let above = above.map(|(b, c, set)| (b, self.over(c, set)));
        let mut share = Share::default();
        match (below, above) {
            (Some((lo, over_lo)), Some((hi, over_hi))) => {
                share.add((hi - at) / (hi - lo), over_lo.minus(&over_hi));
                share.add(1.0, over_hi);
            }
            (None, Some((_, over_hi))) => {
                share.add(0.5, self.all.minus(&over_hi));
                share.add(1.0, over_hi);
            }
            (Some((_, over_lo)), None) => share.add(0.5, over_lo),
            (None, None) => return None,
        }
        Some(share)
    }

    /// The frames above the boundary of order clause `c`, whose frames are
    /// `set`: a `≥`/`>` clause's own, a `≤`/`<` clause's complement.
    fn over(&self, c: &Clause, set: &FrameSet) -> FrameSet {
        match c.op {
            CompareOp::Ge | CompareOp::Gt => set.clone(),
            _ => self.all.minus(set),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEEDS: [f64; 8] = [30.0, 45.0, 55.0, 62.0, 68.0, 75.0, 35.0, 52.0];
    const SUV: [bool; 8] = [true, false, true, false, false, true, false, false];

    /// Eight frames, labeled for the TRAF corpus's order clauses on
    /// `speed` and for `vehType = SUV`; no PP.
    fn sidecar() -> ValidationSidecar {
        let set = |bits: &mut dyn Iterator<Item = bool>| FrameSet::from_bits(8, bits);
        let mut clauses = vec![(
            Clause::new("vehType", CompareOp::Eq, "SUV"),
            set(&mut SUV.into_iter()),
        )];
        for (op, at) in [
            (CompareOp::Ge, 40.0),
            (CompareOp::Ge, 50.0),
            (CompareOp::Ge, 60.0),
            (CompareOp::Le, 65.0),
            (CompareOp::Le, 70.0),
        ] {
            let holds = SPEEDS.map(|s| {
                if op == CompareOp::Ge {
                    s >= at
                } else {
                    s <= at
                }
            });
            clauses.push((Clause::new("speed", op, at), set(&mut holds.into_iter())));
        }
        ValidationSidecar {
            all: FrameSet::from_bits(8, [true; 8]),
            clauses,
            scores: Vec::new(),
        }
    }

    fn count(predicate: Predicate) -> Option<f64> {
        let s = sidecar();
        s.count(s.all(), &predicate)
    }

    fn speed(op: CompareOp, at: f64) -> Predicate {
        Predicate::from(Clause::new("speed", op, at))
    }

    fn suv() -> Predicate {
        Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"))
    }

    #[test]
    fn trained_clauses_and_their_negations_count_exactly() {
        assert_eq!(count(suv()), Some(3.0));
        assert_eq!(count(Predicate::Not(Box::new(suv()))), Some(5.0));
        let not_suv = Clause::new("vehType", CompareOp::Ne, "SUV");
        assert_eq!(count(Predicate::from(not_suv)), Some(5.0));
        assert_eq!(count(speed(CompareOp::Ge, 60.0)), Some(3.0));
        // `> 60` reads the `≥ 60` boundary, `< 40` the complement of `≥ 40`.
        assert_eq!(count(speed(CompareOp::Gt, 60.0)), Some(3.0));
        assert_eq!(count(speed(CompareOp::Lt, 40.0)), Some(2.0));
        assert_eq!(count(speed(CompareOp::Ge, 65.0)), Some(2.0));
    }

    #[test]
    fn an_order_comparison_counts_its_share_of_the_bin_it_falls_in() {
        // 45 lies between the boundaries 40 and 50: the one frame in
        // [40, 50) counts (50 − 45) / 10 and the five at or above 50 count 1.
        assert_eq!(count(speed(CompareOp::Gt, 45.0)), Some(5.5));
        assert_eq!(count(speed(CompareOp::Le, 45.0)), Some(2.5));
        // Below every boundary: the two frames under 40 count ½.
        assert_eq!(count(speed(CompareOp::Ge, 30.0)), Some(7.0));
        // Above every boundary: the one frame over 70 counts ½.
        assert_eq!(count(speed(CompareOp::Gt, 80.0)), Some(0.5));
    }

    #[test]
    fn gates_combine_per_frame_and_unknown_clauses_stay_unknown() {
        let fast = speed(CompareOp::Ge, 60.0);
        // SUV frames 0, 2, 5; fast frames 3, 4, 5.
        assert_eq!(count(Predicate::And(vec![suv(), fast.clone()])), Some(1.0));
        assert_eq!(count(Predicate::Or(vec![suv(), fast.clone()])), Some(5.0));
        // Frame 1 (45) holds `speed > 45` at ½, and SUV frames at 1.
        let half = speed(CompareOp::Gt, 45.0);
        assert_eq!(count(Predicate::Or(vec![suv(), half])), Some(6.5));
        let unknown = Predicate::from(Clause::new("toI", CompareOp::Eq, "pt101"));
        assert_eq!(count(unknown.clone()), None);
        assert_eq!(
            count(Predicate::And(vec![suv(), unknown.clone()])),
            Some(3.0)
        );
        assert_eq!(count(Predicate::Or(vec![suv(), unknown.clone()])), None);
        assert_eq!(
            count(Predicate::Not(Box::new(Predicate::And(vec![
                suv(),
                unknown.clone()
            ])))),
            None
        );
        let s = sidecar();
        assert_eq!(s.pass_rate(s.all(), &unknown), 1.0);
        assert_eq!(s.pass_rate(s.all(), &suv()), 3.0 / 8.0);
        let none = FrameSet::from_bits(8, [false; 8]);
        assert_eq!(s.pass_rate(&none, &suv()), 1.0);
    }
}
