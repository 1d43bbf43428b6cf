//! Table providers and zone-map pruning.
//!
//! A [`TableProvider`] exposes a table as a sequence of **row groups**
//! with per-column [`ZoneMap`] statistics (null/presence counts, min/max
//! for numeric columns). Every table the catalog holds is one: an
//! in-memory [`Rowset`] is a single group that publishes no zone maps
//! ([`MemoryProvider::whole`]), a segment directory is many groups that
//! do. The executor streams groups — each a [`Rowset`] of one row group,
//! in the layout its source already has — and a pushed-down predicate
//! may *prune* groups the predicate provably cannot match.
//!
//! Zone maps are coarse probabilistic predicates with accuracy 1.0 and
//! near-zero cost: the skip decision in [`group_may_match`] is
//! **conservative** — it only returns `false` when no row of the group
//! can satisfy the predicate under the engine's SQL comparison
//! semantics (`NULL` and `NaN` satisfy no comparison). Pruning therefore
//! never changes query verdicts; it only skips decode work.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::predicate::{Clause, CompareOp, Predicate};
use crate::row::Rowset;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// Per-column statistics for one row group.
///
/// `min`/`max` are populated only when every present (non-null) cell in
/// the group is numeric (`Int` or `Float`, excluding `NaN`); otherwise
/// the range is absent and the group is never range-pruned.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    /// Number of `NULL` cells in the group.
    pub nulls: u64,
    /// Number of non-`NULL` cells in the group.
    pub present: u64,
    /// Smallest numeric value, when the column is purely numeric.
    pub min: Option<Value>,
    /// Largest numeric value, when the column is purely numeric.
    pub max: Option<Value>,
}

impl ZoneMap {
    /// Computes the zone map of one column over a group's cells.
    pub fn from_values<'a>(values: impl Iterator<Item = &'a Value>) -> ZoneMap {
        let mut zone = ZoneMap::default();
        let mut numeric_only = true;
        for v in values {
            match v {
                Value::Null => {
                    zone.nulls += 1;
                    continue;
                }
                Value::Int(_) => {}
                Value::Float(f) if !f.is_nan() => {}
                // NaN satisfies no comparison, so it cannot widen the
                // range; any other non-numeric cell voids the range.
                Value::Float(_) => {
                    zone.present += 1;
                    continue;
                }
                _ => numeric_only = false,
            }
            zone.present += 1;
            if !numeric_only {
                continue;
            }
            match &zone.min {
                Some(m) if !CompareOp::Lt.eval(v, m) => {}
                _ => zone.min = Some(v.clone()),
            }
            match &zone.max {
                Some(m) if !CompareOp::Gt.eval(v, m) => {}
                _ => zone.max = Some(v.clone()),
            }
        }
        if !numeric_only {
            zone.min = None;
            zone.max = None;
        }
        zone
    }
}

/// Metadata for one row group of a provider-backed table.
#[derive(Debug, Clone)]
pub struct RowGroupMeta {
    /// Rows in the group.
    pub rows: usize,
    /// Encoded bytes the group occupies at rest (decode cost proxy).
    pub bytes: u64,
    /// Shard (segment file) the group lives in.
    pub shard: usize,
    /// Per-column zone maps, keyed by column name.
    pub zones: BTreeMap<String, ZoneMap>,
}

/// A table as a sequence of row groups. Implementations must be cheap to
/// query for metadata; only [`TableProvider::read_group`] may touch
/// storage.
pub trait TableProvider: fmt::Debug + Send + Sync {
    /// The table schema.
    fn schema(&self) -> Arc<Schema>;
    /// Total rows across all groups.
    fn row_count(&self) -> usize;
    /// Number of row groups (across all shards, in shard order).
    fn group_count(&self) -> usize;
    /// Metadata for one group (`index < group_count()`).
    fn group_meta(&self, index: usize) -> &RowGroupMeta;
    /// Decodes one group. Errors must be typed — never panic.
    fn read_group(&self, index: usize) -> Result<Rowset>;
    /// Whether the groups [`read_group`](Self::read_group) hands over are
    /// windows of rows the provider keeps resident anyway: a scan then
    /// keeps the rows it passes by index into them. Otherwise a group is
    /// decoded for the scan, which copies what it keeps out of it, so
    /// that no decoded group outlives its wave.
    fn resident(&self) -> bool {
        false
    }
    /// Number of shards backing the table.
    fn shard_count(&self) -> usize;
    /// Optional cap on the encoded bytes of the groups a scan holds
    /// decoded at once (see [`MemoryProvider::with_memory_budget`]).
    fn memory_budget(&self) -> Option<u64> {
        None
    }
}

/// Can a clause possibly hold for some row of a group with this zone?
fn clause_may_match(clause: &Clause, zones: &BTreeMap<String, ZoneMap>) -> bool {
    let Some(zone) = zones.get(&clause.column) else {
        return true; // no statistics: must assume a match
    };
    if zone.present == 0 {
        // All cells are NULL and NULL satisfies no comparison.
        return false;
    }
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        return true;
    };
    let v = &clause.value;
    match clause.op {
        // Some x in [min, max] equals v iff min <= v <= max. When v is
        // not comparable with the (purely numeric) range, no row can
        // equal it either, so the eval-false fall-through is sound.
        CompareOp::Eq => CompareOp::Le.eval(min, v) && CompareOp::Ge.eval(max, v),
        // Only a group whose every present value equals v fails x != v.
        CompareOp::Ne => !(CompareOp::Eq.eval(min, v) && CompareOp::Eq.eval(max, v)),
        CompareOp::Lt => CompareOp::Lt.eval(min, v),
        CompareOp::Le => CompareOp::Le.eval(min, v),
        CompareOp::Gt => CompareOp::Gt.eval(max, v),
        CompareOp::Ge => CompareOp::Ge.eval(max, v),
    }
}

fn may_match_nnf(p: &Predicate, zones: &BTreeMap<String, ZoneMap>) -> bool {
    match p {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::Clause(c) => clause_may_match(c, zones),
        // NNF leaves no negations above clauses; if one survives,
        // stay conservative.
        Predicate::Not(_) => true,
        Predicate::And(ps) => ps.iter().all(|p| may_match_nnf(p, zones)),
        Predicate::Or(ps) => ps.iter().any(|p| may_match_nnf(p, zones)),
    }
}

/// Conservative zone-map satisfiability test: `false` only when no row
/// of a group with statistics `zones` can satisfy `predicate`.
pub fn group_may_match(predicate: &Predicate, zones: &BTreeMap<String, ZoneMap>) -> bool {
    may_match_nnf(&predicate.to_nnf(), zones)
}

/// Indices of the groups a scan with this pushdown must decode.
pub fn kept_groups(provider: &dyn TableProvider, predicate: Option<&Predicate>) -> Vec<usize> {
    let mut kept = Vec::with_capacity(provider.group_count());
    kept.extend((0..provider.group_count()).filter(|&i| match predicate {
        Some(p) => group_may_match(p, &provider.group_meta(i).zones),
        None => true,
    }));
    kept
}

/// Whether any row group of `provider` publishes zone maps — what the
/// planner looks at to decide if a scan pushdown can prune anything.
pub fn publishes_zone_maps(provider: &dyn TableProvider) -> bool {
    (0..provider.group_count()).any(|g| !provider.group_meta(g).zones.is_empty())
}

/// Static pruning prediction for a scan with a pushdown: exact, because
/// zone maps are known before execution (an accuracy-1.0 "PP").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Row groups in the table.
    pub groups_total: usize,
    /// Row groups the pushdown provably rules out.
    pub groups_pruned: usize,
    /// Rows in the table.
    pub rows_total: usize,
    /// Rows inside pruned groups (skipped without decoding).
    pub rows_pruned: usize,
    /// Encoded bytes in the table.
    pub bytes_total: u64,
    /// Encoded bytes inside pruned groups.
    pub bytes_pruned: u64,
}

/// Computes exact [`PruneStats`] for a pushdown against a provider.
pub fn prune_stats(provider: &dyn TableProvider, predicate: &Predicate) -> PruneStats {
    let mut stats = PruneStats {
        groups_total: provider.group_count(),
        rows_total: provider.row_count(),
        ..Default::default()
    };
    for i in 0..provider.group_count() {
        let meta = provider.group_meta(i);
        stats.bytes_total += meta.bytes;
        if !group_may_match(predicate, &meta.zones) {
            stats.groups_pruned += 1;
            stats.rows_pruned += meta.rows;
            stats.bytes_pruned += meta.bytes;
        }
    }
    stats
}

/// Like [`prune_stats`] but per shard — pruning rates differ when data is
/// skewed across segment files (one camera's frames cluster in one
/// shard): element `s` covers only the groups of shard `s`.
pub fn shard_prune_stats(provider: &dyn TableProvider, predicate: &Predicate) -> Vec<PruneStats> {
    let mut per_shard = vec![PruneStats::default(); provider.shard_count()];
    for i in 0..provider.group_count() {
        let meta = provider.group_meta(i);
        let Some(stats) = per_shard.get_mut(meta.shard) else {
            continue;
        };
        stats.groups_total += 1;
        stats.rows_total += meta.rows;
        stats.bytes_total += meta.bytes;
        if !group_may_match(predicate, &meta.zones) {
            stats.groups_pruned += 1;
            stats.rows_pruned += meta.rows;
            stats.bytes_pruned += meta.bytes;
        }
    }
    per_shard
}

/// An in-memory [`TableProvider`] over a shared [`Rowset`]: either the
/// whole table as one group without statistics ([`whole`](Self::whole) —
/// how the catalog holds every registered `Rowset`), or chopped into
/// fixed-size row groups with computed zone maps ([`new`](Self::new), the
/// reference implementation of the pruning contract). On-disk segment
/// providers live in the `pp-store` crate.
///
/// The provider is [`resident`](TableProvider::resident): a group is a
/// window of the registered rowset itself, so what a query keeps of it
/// are the table's own rows, by index — blob identity
/// ([`Value::sql_eq`], and whatever matches blobs by `Arc`) survives a
/// scan. The first kernel to read a blob column gathers it, for the
/// whole table, into one contiguous block that the table keeps; every
/// later batch of every later query scores a window of it.
#[derive(Debug, Clone)]
pub struct MemoryProvider {
    table: Arc<Rowset>,
    groups: Vec<RowGroupMeta>,
    bounds: Vec<(usize, usize)>,
    shards: usize,
    budget: Option<u64>,
}

impl MemoryProvider {
    /// The whole table as one row group that publishes no zone maps and
    /// occupies no bytes at rest: nothing to prune, nothing to decode —
    /// `read_group(0)` is a view of the table.
    pub fn whole(table: Arc<Rowset>) -> MemoryProvider {
        MemoryProvider {
            groups: vec![RowGroupMeta {
                rows: table.len(),
                bytes: 0,
                shard: 0,
                zones: BTreeMap::new(),
            }],
            bounds: vec![(0, table.len())],
            table,
            shards: 1,
            budget: None,
        }
    }

    /// Splits `table` into groups of `rows_per_group` rows, spread over
    /// `shards` contiguous shards. `rows_per_group` and `shards` are
    /// clamped to at least 1.
    pub fn new(table: Arc<Rowset>, rows_per_group: usize, shards: usize) -> MemoryProvider {
        let rows_per_group = rows_per_group.max(1);
        let shards = shards.max(1);
        let n = table.len();
        let per_shard = n.div_ceil(shards).max(1);
        let mut groups = Vec::new();
        let mut bounds = Vec::new();
        let mut start = 0;
        while start < n {
            let shard = start / per_shard;
            let shard_end = ((shard + 1) * per_shard).min(n);
            let end = (start + rows_per_group).min(shard_end);
            let mut zones = BTreeMap::new();
            for (c, col) in table.schema().columns().iter().enumerate() {
                let cells = (start..end).map(|i| table.row_ref(i).get(c));
                zones.insert(col.name.clone(), ZoneMap::from_values(cells));
            }
            groups.push(RowGroupMeta {
                rows: end - start,
                // A coarse stand-in for encoded size: cells, so byte
                // accounting stays deterministic without an encoder.
                bytes: ((end - start) * table.schema().len()) as u64,
                shard,
                zones,
            });
            bounds.push((start, end));
            start = end;
        }
        MemoryProvider {
            table,
            groups,
            bounds,
            shards,
            budget: None,
        }
    }

    /// Sets the memory budget reported to the executor: a scan decodes
    /// the table in waves of groups whose `bytes` add up to at most this
    /// (a group over it decodes alone), and each wave is dropped once the
    /// rows the scan keeps of it are out (every row under a bare `Scan`,
    /// a filter's survivors under `Scan → Filter`), so the budget bounds
    /// the decoded data resident at once beside what is kept.
    pub fn with_memory_budget(mut self, bytes: u64) -> MemoryProvider {
        self.budget = Some(bytes);
        self
    }
}

impl TableProvider for MemoryProvider {
    fn schema(&self) -> Arc<Schema> {
        self.table.schema().clone()
    }

    fn row_count(&self) -> usize {
        self.table.len()
    }

    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn group_meta(&self, index: usize) -> &RowGroupMeta {
        &self.groups[index]
    }

    fn read_group(&self, index: usize) -> Result<Rowset> {
        let (start, end) = self.bounds.get(index).copied().ok_or_else(|| {
            crate::EngineError::Storage(format!("row group {index} out of range"))
        })?;
        Ok(self.table.window(start..end))
    }

    fn resident(&self) -> bool {
        true
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn memory_budget(&self) -> Option<u64> {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::{Column, DataType};

    fn zone(vals: &[Value]) -> BTreeMap<String, ZoneMap> {
        let mut zones = BTreeMap::new();
        zones.insert("x".to_string(), ZoneMap::from_values(vals.iter()));
        zones
    }

    fn clause(op: CompareOp, v: impl Into<Value>) -> Predicate {
        Predicate::from(Clause::new("x", op, v))
    }

    #[test]
    fn from_values_tracks_range_and_counts() {
        let z = ZoneMap::from_values(
            [Value::Int(3), Value::Null, Value::Int(-2), Value::Int(7)].iter(),
        );
        assert_eq!(z.nulls, 1);
        assert_eq!(z.present, 3);
        assert!(matches!(z.min, Some(Value::Int(-2))));
        assert!(matches!(z.max, Some(Value::Int(7))));
    }

    #[test]
    fn non_numeric_cells_void_the_range() {
        let z = ZoneMap::from_values([Value::Int(3), Value::str("a")].iter());
        assert_eq!(z.present, 2);
        assert!(z.min.is_none() && z.max.is_none());
        // Without a range, nothing prunes.
        let zones = zone(&[Value::Int(3), Value::str("a")]);
        assert!(group_may_match(&clause(CompareOp::Eq, "a"), &zones));
    }

    #[test]
    fn nan_does_not_widen_the_range() {
        let z = ZoneMap::from_values([Value::Float(1.0), Value::Float(f64::NAN)].iter());
        assert_eq!(z.present, 2);
        assert!(matches!(z.min, Some(Value::Float(v)) if v == 1.0));
        assert!(matches!(z.max, Some(Value::Float(v)) if v == 1.0));
    }

    #[test]
    fn range_pruning_per_operator() {
        let zones = zone(&[Value::Int(10), Value::Int(20)]);
        for (p, expect) in [
            (clause(CompareOp::Eq, 15i64), true),
            (clause(CompareOp::Eq, 25i64), false),
            (clause(CompareOp::Lt, 10i64), false),
            (clause(CompareOp::Lt, 11i64), true),
            (clause(CompareOp::Le, 10i64), true),
            (clause(CompareOp::Le, 9i64), false),
            (clause(CompareOp::Gt, 20i64), false),
            (clause(CompareOp::Gt, 19i64), true),
            (clause(CompareOp::Ge, 20i64), true),
            (clause(CompareOp::Ge, 21i64), false),
            (clause(CompareOp::Ne, 15i64), true),
        ] {
            assert_eq!(group_may_match(&p, &zones), expect, "{p}");
        }
        // Ne prunes only a constant group.
        let constant = zone(&[Value::Int(5), Value::Int(5)]);
        assert!(!group_may_match(&clause(CompareOp::Ne, 5i64), &constant));
        assert!(group_may_match(&clause(CompareOp::Ne, 6i64), &constant));
    }

    #[test]
    fn all_null_groups_prune_every_clause() {
        let zones = zone(&[Value::Null, Value::Null]);
        assert!(!group_may_match(&clause(CompareOp::Ne, 1i64), &zones));
        assert!(!group_may_match(&clause(CompareOp::Eq, 1i64), &zones));
        // ... but constants still behave.
        assert!(group_may_match(&Predicate::True, &zones));
        assert!(!group_may_match(&Predicate::False, &zones));
    }

    #[test]
    fn boolean_structure_is_conservative() {
        let zones = zone(&[Value::Int(10), Value::Int(20)]);
        // AND: one impossible conjunct kills the group.
        let and = Predicate::and(clause(CompareOp::Ge, 15i64), clause(CompareOp::Gt, 30i64));
        assert!(!group_may_match(&and, &zones));
        // OR: one possible disjunct keeps it.
        let or = Predicate::or(clause(CompareOp::Gt, 30i64), clause(CompareOp::Le, 12i64));
        assert!(group_may_match(&or, &zones));
        // NOT normalizes through NNF: NOT(x < 5) == x >= 5.
        let not = Predicate::Not(Box::new(clause(CompareOp::Lt, 5i64)));
        assert!(group_may_match(&not, &zones));
        let not_all = Predicate::Not(Box::new(clause(CompareOp::Le, 25i64)));
        assert!(!group_may_match(&not_all, &zones));
    }

    #[test]
    fn unknown_column_and_incomparable_constants() {
        let zones = zone(&[Value::Int(10), Value::Int(20)]);
        let other = Predicate::from(Clause::new("y", CompareOp::Eq, 1i64));
        assert!(group_may_match(&other, &zones));
        // A string can never equal a purely numeric column: prune.
        assert!(!group_may_match(&clause(CompareOp::Eq, "red"), &zones));
        // ... but != keeps the group (every numeric row differs).
        assert!(group_may_match(&clause(CompareOp::Ne, "red"), &zones));
    }

    fn provider(n: usize, per_group: usize, shards: usize) -> MemoryProvider {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect();
        MemoryProvider::new(
            Arc::new(Rowset::new(schema, rows).unwrap()),
            per_group,
            shards,
        )
    }

    #[test]
    fn memory_provider_round_trips() {
        let p = provider(10, 4, 2);
        assert_eq!(p.row_count(), 10);
        assert_eq!(p.shard_count(), 2);
        // Shards are 5 rows each, so groups are 4+1 | 4+1.
        assert_eq!(p.group_count(), 4);
        let mut all = Vec::new();
        for g in 0..p.group_count() {
            assert_eq!(p.group_meta(g).rows, p.read_group(g).unwrap().len());
            all.extend(p.read_group(g).unwrap().rows());
        }
        assert_eq!(all.len(), 10);
        assert!(p.read_group(99).is_err());
    }

    #[test]
    fn prune_stats_are_exact() {
        let p = provider(100, 10, 1);
        let pred = Predicate::from(Clause::new("x", CompareOp::Lt, 25i64));
        let stats = prune_stats(&p, &pred);
        assert_eq!(stats.groups_total, 10);
        assert_eq!(stats.groups_pruned, 7);
        assert_eq!(stats.rows_pruned, 70);
        assert_eq!(kept_groups(&p, Some(&pred)), vec![0, 1, 2]);
        assert_eq!(kept_groups(&p, None).len(), 10);
        let per_shard = shard_prune_stats(&provider(100, 10, 2), &pred);
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard[0].groups_pruned, 2);
        assert_eq!(per_shard[1].groups_pruned, 5);
    }
}
