//! The four workloads: which corpus they need and which request comes
//! `i`-th. Every schedule is a pure function of `(seed, i)`, so the same
//! seed sends the same requests whatever the timing.

use pp_data::traf20::traf20_queries;
use pp_data::traffic::{INTERSECTIONS, VEH_COLORS, VEH_TYPES};
use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_server::WireRequest;

use crate::spec::{CORPUS_SEED, MAX_CONNECTIONS, WORKLOADS};

/// The source (and table) name every workload queries.
pub const SOURCE: &str = "traffic";
/// The accuracy target of the TRAF-20 workloads.
pub const TRAF_ACCURACY: f64 = 0.95;
/// Ad-hoc queries `serve_cold` verifies for accuracy and cluster cost:
/// the first queries of its stream, drawn from [`CORPUS_SEED`] whatever
/// `--seed` is, so that those two metrics depend neither on the seed nor
/// on how many requests a run completed. The warm pass sends them; the
/// load loop goes on from there with the seed's own stream.
pub const COLD_VERIFIED_PREFIX: usize = 400;
/// Predicate shapes `serve_cold` draws its stream from. Every request
/// takes one of them and gives its speed comparison a constant no other
/// request has, so no query repeats and every one misses the plan cache,
/// while each shape's cost comes back hundreds of times in a run (see
/// `run::service_ns`).
pub const COLD_SHAPES: usize = 40;
/// Width of the band a shape's speed constant moves in, in km/h of a
/// 25–75 range: narrow enough that a shape's selectivity, and so its cost,
/// stays put.
const COLD_SPEED_BAND: f64 = 1.0;
/// After the verified prefix, `serve_cold` digests one answer in this
/// many against the in-process run (every answer must still complete):
/// each is a distinct query that has to be planned and run again, and
/// doing it for all of them took longer than the load loop itself.
const COLD_DIGEST_EVERY: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeWarm,
    ServeCold,
    SharedPairs,
    ScanSegments,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeWarm,
        Kind::ServeCold,
        Kind::SharedPairs,
        Kind::ScanSegments,
    ];

    /// The workload's name in the contract ([`WORKLOADS`] lists them in
    /// this enum's order).
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Frames generated; the first [`train_frames`](Self::train_frames)
    /// train the PP catalog and the rest are registered for querying.
    pub fn frames(self) -> usize {
        match self {
            Kind::ServeWarm | Kind::SharedPairs => 16_000,
            Kind::ServeCold => 3_000,
            Kind::ScanSegments => 28_000,
        }
    }

    pub fn train_frames(self) -> usize {
        match self {
            Kind::ServeCold => 2_000,
            _ => 4_000,
        }
    }

    /// Whether the registered frames live in `.pps` segment shards.
    pub fn on_disk(self) -> bool {
        self == Kind::ScanSegments
    }

    pub fn connections(self) -> usize {
        match self {
            Kind::SharedPairs => MAX_CONNECTIONS,
            _ => 1,
        }
    }

    /// Requests of the load loop after which the process's peak memory is
    /// read, on the workload whose server grows with every query served
    /// (the default server never drains its audit queue): read at the end
    /// of the run instead, it would follow how many queries the machine
    /// got through. Every run gets this far.
    pub fn rss_after_requests(self) -> Option<u64> {
        (self == Kind::ServeCold).then_some(2_500)
    }
}

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Identity of the distinct query: equal ids are the same query.
    pub query_id: usize,
    pub request: WireRequest,
    /// Input frames the query covers (the table, or its frameID range).
    pub input_rows: usize,
    /// What costs the same every time it is sent: the distinct query, or
    /// on `serve_cold` the predicate shape it was drawn from.
    pub shape: usize,
}

/// The request schedule of one workload for one seed.
pub struct Schedule {
    kind: Kind,
    seed: u64,
    /// First registered frameID and number of registered frames.
    first_frame: usize,
    registered: usize,
    traf: Vec<Predicate>,
    /// `shared_pairs`: each TRAF-20 query with the next one sharing a
    /// UDF column.
    pairs: Vec<[usize; 2]>,
}

impl Schedule {
    pub fn new(kind: Kind, seed: u64) -> Schedule {
        let traf: Vec<Predicate> = traf20_queries().into_iter().map(|q| q.predicate).collect();
        let pairs = (0..traf.len())
            .map(|a| {
                let cols = traf[a].columns();
                let b = (1..traf.len())
                    .map(|step| (a + step) % traf.len())
                    .find(|&b| !traf[b].columns().is_disjoint(&cols))
                    .expect("every TRAF-20 query shares a column with another");
                [a, b]
            })
            .collect();
        Schedule {
            kind,
            seed,
            first_frame: kind.train_frames(),
            registered: kind.frames() - kind.train_frames(),
            traf,
            pairs,
        }
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Distinct queries the workload cycles through, or `None` when every
    /// request is new (`serve_cold`).
    pub fn distinct(&self) -> Option<usize> {
        match self.kind {
            Kind::ServeWarm | Kind::SharedPairs => Some(self.traf.len()),
            Kind::ScanSegments => Some(self.traf.len()),
            Kind::ServeCold => None,
        }
    }

    /// The distinct queries whose accuracy and cluster cost are measured.
    pub fn verified_queries(&self) -> usize {
        self.distinct().unwrap_or(COLD_VERIFIED_PREFIX)
    }

    /// Whether answers to `query_id` are digested against the in-process
    /// run (all of them, but for `serve_cold`'s stream after its prefix).
    pub fn digest_checked(&self, query_id: usize) -> bool {
        self.kind != Kind::ServeCold
            || query_id < COLD_VERIFIED_PREFIX
            || query_id.is_multiple_of(COLD_DIGEST_EVERY)
    }

    /// The query behind a `query_id` (independent of request order).
    pub fn query(&self, query_id: usize) -> Scheduled {
        let mut shape = query_id;
        let (predicate, accuracy, input_rows) = match self.kind {
            Kind::ServeWarm | Kind::SharedPairs => {
                (self.traf[query_id].clone(), TRAF_ACCURACY, self.registered)
            }
            Kind::ServeCold => {
                let seed = if query_id < COLD_VERIFIED_PREFIX {
                    CORPUS_SEED
                } else {
                    self.seed
                };
                let i = query_id as u64;
                shape = shuffled(seed, i, COLD_SHAPES);
                let (p, a) = adhoc_query(shape as u64, weyl_unit(seed, i));
                (p, a, self.registered)
            }
            Kind::ScanSegments => {
                // Every second TRAF-20 query, as a full scan and as a scan
                // of a quarter of the frames at one of three offsets.
                let pair = query_id / 2;
                let base = self.traf[2 * pair].clone();
                if query_id.is_multiple_of(2) {
                    (base, TRAF_ACCURACY, self.registered)
                } else {
                    let len = self.registered / 4;
                    let lo = self.first_frame + (pair % 3) * (self.registered - len) / 2;
                    let range = Predicate::and(
                        Clause::new("frameID", CompareOp::Ge, lo as i64).into(),
                        Clause::new("frameID", CompareOp::Lt, (lo + len) as i64).into(),
                    );
                    (Predicate::and(range, base), TRAF_ACCURACY, len)
                }
            }
        };
        let mut request = WireRequest::new(SOURCE, predicate, accuracy);
        match self.kind {
            Kind::SharedPairs => request.shared = true,
            Kind::ScanSegments => request.parallelism = Some(2),
            _ => {}
        }
        Scheduled {
            query_id,
            request,
            input_rows,
            shape,
        }
    }

    /// The `i`-th request of the run. The repeating workloads go round
    /// their distinct queries (or pairs) in blocks, each block a freshly
    /// shuffled round: every query keeps exactly its share of the
    /// requests, and no stretch of a run is all cheap or all expensive
    /// queries, so a window cut anywhere sees the same mix.
    pub fn request(&self, i: u64) -> Scheduled {
        let query_id = match self.kind {
            Kind::ServeCold => i as usize,
            Kind::SharedPairs => {
                let pair = shuffled(self.seed, i / 2, self.pairs.len());
                self.pairs[pair][(i % 2) as usize]
            }
            Kind::ServeWarm | Kind::ScanSegments => {
                shuffled(self.seed, i, self.distinct().expect("a repeating workload"))
            }
        };
        self.query(query_id)
    }
}

/// Position `i` of an endless sequence of shuffled rounds of `0..n`.
fn shuffled(seed: u64, i: u64, n: usize) -> usize {
    let block = i / n as u64;
    let mut rng = SplitMix64::new(seed ^ block.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut round: Vec<usize> = (0..n).collect();
    for at in (1..n).rev() {
        round.swap(at, rng.below(at + 1));
    }
    round[(i % n as u64) as usize]
}

/// Element `i` of a Weyl sequence in `[0, 1)`: it visits 2⁵³ distinct
/// values before it repeats.
fn weyl_unit(seed: u64, i: u64) -> f64 {
    let weyl = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0x2545_F491_4F6C_DD1D);
    (weyl >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64: the benchmark's own generator, so a workload is a function
/// of the seed alone and not of any library's stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below noise).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An ad-hoc query of `serve_cold`'s predicate shape `shape`, by the
/// paper's TRAF-20 recipe (§8.2): one to four clauses, equality /
/// inequality / numeric / range checks over the five UDF columns,
/// conjunctions with the occasional same-column disjunction, and an
/// accuracy target from {0.90, 0.95, 0.99}. The shapes are drawn from
/// [`CORPUS_SEED`], the same in every run.
///
/// Every query carries one speed comparison, and `jitter` in `[0, 1)`
/// places its constant inside the shape's band: with a jitter no other
/// request has, no two queries of a run share a canonical predicate and
/// each one misses the plan cache.
pub fn adhoc_query(shape: u64, jitter: f64) -> (Predicate, f64) {
    let mut rng = SplitMix64::new(CORPUS_SEED ^ shape.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let clauses = 1 + rng.below(4);
    let speed = 25.0 + (50.0 - COLD_SPEED_BAND) * rng.unit() + COLD_SPEED_BAND * jitter;
    let op = [CompareOp::Gt, CompareOp::Ge, CompareOp::Lt, CompareOp::Le][rng.below(4)];
    let mut parts: Vec<Predicate> = vec![Clause::new("speed", op, speed).into()];
    let mut used = 1;
    let mut ranged = false;
    while used < clauses {
        let close_range = !ranged && rng.below(8) == 0;
        let (part, took) = if close_range {
            // Close the speed comparison into a range (R).
            ranged = true;
            let width = 3.0 + 12.0 * rng.unit();
            let clause = match op {
                CompareOp::Gt | CompareOp::Ge => Clause::new("speed", CompareOp::Lt, speed + width),
                _ => Clause::new("speed", CompareOp::Gt, speed - width),
            };
            (clause.into(), 1)
        } else {
            categorical_part(&mut rng, clauses - used)
        };
        parts.push(part);
        used += took;
    }
    // Rotate so the speed clause is not always first.
    let shift = rng.below(parts.len());
    parts.rotate_left(shift);
    let predicate = match parts.len() {
        1 => parts.pop().expect("one part"),
        _ => Predicate::And(parts),
    };
    let accuracy = [0.90, 0.95, 0.99][rng.below(3)];
    (predicate, accuracy)
}

/// One more conjunct over a categorical column using at most `left`
/// clauses; returns how many it used.
fn categorical_part(rng: &mut SplitMix64, left: usize) -> (Predicate, usize) {
    const CATEGORICAL: [(&str, &[&str]); 4] = [
        ("vehType", &VEH_TYPES),
        ("vehColor", &VEH_COLORS),
        ("fromI", &INTERSECTIONS),
        ("toI", &INTERSECTIONS),
    ];
    match rng.below(7) {
        // Same-column disjunction of two equalities (D).
        0 | 1 if left >= 2 => {
            let (column, domain) = CATEGORICAL[rng.below(CATEGORICAL.len())];
            let first = rng.below(domain.len());
            let second = (first + 1 + rng.below(domain.len() - 1)) % domain.len();
            (
                Predicate::or(
                    Clause::new(column, CompareOp::Eq, domain[first]).into(),
                    Clause::new(column, CompareOp::Eq, domain[second]).into(),
                ),
                2,
            )
        }
        // Inequality (I).
        2 => {
            let (column, domain) = CATEGORICAL[rng.below(CATEGORICAL.len())];
            let value = domain[rng.below(domain.len())];
            (Clause::new(column, CompareOp::Ne, value).into(), 1)
        }
        // Equality (E).
        _ => {
            let (column, domain) = CATEGORICAL[rng.below(CATEGORICAL.len())];
            let value = domain[rng.below(domain.len())];
            (Clause::new(column, CompareOp::Eq, value).into(), 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn adhoc_queries_are_a_pure_function_of_shape_and_jitter() {
        for shape in [0, 1, 17, 39] {
            let (p1, a1) = adhoc_query(shape, 0.25);
            let (p2, a2) = adhoc_query(shape, 0.25);
            assert_eq!(p1, p2);
            assert_eq!(a1, a2);
            // Another jitter moves the speed constant and nothing else.
            let (p3, a3) = adhoc_query(shape, 0.75);
            assert_ne!(p1, p3);
            assert_eq!(a1, a3);
            assert_eq!(p1.clauses().len(), p3.clauses().len());
            assert_eq!(p1.columns(), p3.columns());
        }
        assert_ne!(adhoc_query(4, 0.5).0, adhoc_query(5, 0.5).0);
    }

    #[test]
    fn serve_cold_does_not_repeat_a_query_within_a_run() {
        // Far more requests than a run completes; the server's cache key is
        // the simplified predicate's display form plus the accuracy bucket.
        let cold = Schedule::new(Kind::ServeCold, 7);
        let mut keys = HashSet::new();
        let mut per_shape = [0usize; COLD_SHAPES];
        for i in 0..50_000u64 {
            let scheduled = cold.request(i);
            let p = &scheduled.request.predicate;
            assert!((1..=4).contains(&p.clauses().len()), "{p}");
            assert!([0.90, 0.95, 0.99].contains(&scheduled.request.accuracy_target));
            assert!(
                keys.insert(format!(
                    "{}@{}",
                    p.simplify(),
                    scheduled.request.accuracy_target
                )),
                "query {i} repeats"
            );
            per_shape[scheduled.shape] += 1;
        }
        // Shuffled rounds: every shape has exactly its share.
        assert!(per_shape.iter().all(|&n| n == 50_000 / COLD_SHAPES));
        // "Each query is equally likely to have between one and four
        // predicate clauses" — roughly, over 40 shapes.
        let mut clause_counts = [0usize; 5];
        for shape in 0..COLD_SHAPES as u64 {
            clause_counts[adhoc_query(shape, 0.0).0.clauses().len()] += 1;
        }
        assert!(
            clause_counts[1..].iter().all(|&n| n >= 4),
            "{clause_counts:?}"
        );
    }

    #[test]
    fn kinds_carry_the_contract_names() {
        let names = Kind::ALL.map(Kind::name);
        assert_eq!(
            names,
            ["serve_warm", "serve_cold", "shared_pairs", "scan_segments"]
        );
        assert_eq!(Kind::from_name("scan_segments"), Some(Kind::ScanSegments));
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn schedules_are_deterministic_and_shaped_as_documented() {
        for kind in Kind::ALL {
            let a = Schedule::new(kind, 3);
            let b = Schedule::new(kind, 3);
            for i in [0u64, 1, 2, 39, 40, 81, 1_000] {
                let (x, y) = (a.request(i), b.request(i));
                assert_eq!(x.query_id, y.query_id);
                assert_eq!(x.request.predicate, y.request.predicate);
                assert_eq!(
                    x.request.predicate,
                    a.query(x.query_id).request.predicate,
                    "{} request {i}",
                    kind.name()
                );
            }
        }
        // serve_cold: the verified prefix is the same for every seed, the
        // stream after it is the seed's own.
        let (cold3, cold4) = (
            Schedule::new(Kind::ServeCold, 3),
            Schedule::new(Kind::ServeCold, 4),
        );
        let last = COLD_VERIFIED_PREFIX - 1;
        assert_eq!(
            cold3.query(last).request.predicate,
            cold4.query(last).request.predicate
        );
        assert_ne!(
            cold3.query(last + 1).request.predicate,
            cold4.query(last + 1).request.predicate
        );
        assert!(cold3.digest_checked(last) && cold3.digest_checked(last + 1));
        assert!(!cold3.digest_checked(last + 2));
        let shared = Schedule::new(Kind::SharedPairs, 3);
        for round in 0..40u64 {
            let (a, b) = (shared.request(2 * round), shared.request(2 * round + 1));
            assert!(a.request.shared && b.request.shared);
            assert_ne!(a.query_id, b.query_id);
            let cols = a.request.predicate.columns();
            assert!(!cols.is_disjoint(&b.request.predicate.columns()));
        }
        let scan = Schedule::new(Kind::ScanSegments, 3);
        assert_eq!(scan.distinct(), Some(20));
        // Every block of 20 requests is one round of the 20 queries.
        for block in 0..3u64 {
            let mut ids: Vec<usize> = (0..20)
                .map(|i| scan.request(block * 20 + i).query_id)
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..20).collect::<Vec<_>>());
        }
        let full = scan.query(0);
        let pruned = scan.query(1);
        assert_eq!((full.shape, pruned.shape), (0, 1));
        assert_eq!(full.input_rows, 24_000);
        assert_eq!(pruned.input_rows, 6_000);
        assert_eq!(full.request.parallelism, Some(2));
        assert!(pruned.request.predicate.columns().contains("frameID"));
        assert!(!full.request.predicate.columns().contains("frameID"));
        // The last of the three windows ends exactly at the last
        // registered frame.
        let last = scan.query(5).request.predicate.to_string();
        assert!(last.contains("frameID < 28000"), "{last}");
    }
}
