//! The five classification corpora of §8.1's micro-benchmarks.
//!
//! Each corpus is a set of blobs with per-category binary labels; "the
//! queries check for inputs that match a given category" (§8.1). The
//! generators are tuned so that the *technique ordering* of the paper's
//! Figure 9 / Table 4 holds:
//!
//! | Corpus | Real dataset | Structure | Best PP technique |
//! |---|---|---|---|
//! | [`lshtc_like`] | LSHTC documents | sparse bag-of-words, linearly separable signature words | FH + SVM |
//! | [`sun_like`] | SUNAttribute images | dense, moderate dimension, smooth attribute regions | PCA + KDE |
//! | [`coco_like`] | COCO images | dense, multi-object, sign-randomized embeddings (defeats linear probes) | DNN |
//! | [`imagenet_like`] | ImageNet images | single-object version of COCO's generative model (same class embeddings — enables cross-training) | DNN |
//! | [`ucf101_like`] | UCF101 videos | concatenated-frame features on non-linear activity manifolds | PCA + KDE |

// Generators index several parallel label vectors by blob position;
// iterator zips would obscure that structure.
#![allow(clippy::needless_range_loop)]
use std::sync::Arc;

use pp_linalg::{Features, SparseVector};
use pp_ml::dataset::{LabeledSet, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synth::{add_noise, embedding, standard_normal, weighted_choice, zipf_rank};

/// A generated corpus: blobs plus per-category labels.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Corpus display name ("LSHTC", "COCO", …).
    pub name: String,
    blobs: Vec<Arc<Features>>,
    categories: Vec<String>,
    /// `labels[c][i]` ⇔ blob `i` belongs to category `c`.
    labels: Vec<Vec<bool>>,
}

impl Corpus {
    /// Number of blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when the corpus holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Category names.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// The blobs.
    pub fn blobs(&self) -> &[Arc<Features>] {
        &self.blobs
    }

    /// Each blob's label for one category, in blob order.
    pub fn labels(&self, category: usize) -> &[bool] {
        &self.labels[category]
    }

    /// The labeled set for one category ("find blobs with category c"),
    /// sharing the corpus's blobs.
    pub fn labeled(&self, category: usize) -> LabeledSet {
        // Collected unchecked: each generator below emits every blob of a
        // corpus at its one `DIM`, so the samples share one dimension.
        self.blobs
            .iter()
            .zip(&self.labels[category])
            .map(|(b, &l)| Sample::shared(Arc::clone(b), l))
            .collect()
    }

    /// Selectivity of one category.
    pub fn selectivity(&self, category: usize) -> f64 {
        let pos = self.labels[category].iter().filter(|&&l| l).count();
        pos as f64 / self.blobs.len().max(1) as f64
    }
}

/// LSHTC-like sparse documents: `dim`-word vocabulary, ~40 tokens per
/// document drawn Zipf-style, plus category signature words. A document
/// belongs to a category iff it carries at least two of the category's
/// five signature words — linearly separable by construction.
pub fn lshtc_like(n: usize, seed: u64) -> Corpus {
    const DIM: usize = 20_000;
    const N_CATS: usize = 16;
    const SIG_WORDS: usize = 10;
    let mut rng = StdRng::seed_from_u64(seed);
    // Signature words live in the rare tail so background text does not
    // trigger them.
    let sig: Vec<Vec<u32>> = (0..N_CATS)
        .map(|c| {
            (0..SIG_WORDS)
                .map(|w| (10_000 + c * SIG_WORDS + w) as u32)
                .collect()
        })
        .collect();
    let mut blobs = Vec::with_capacity(n);
    let mut labels = vec![vec![false; n]; N_CATS];
    for i in 0..n {
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(48);
        for _ in 0..40 {
            pairs.push((zipf_rank(9_000, 1.1, &mut rng) as u32, 1.0));
        }
        // Each document joins each category independently w.p. ~6%
        // (documents can belong to many categories, as in LSHTC).
        for (c, words) in sig.iter().enumerate() {
            if rng.gen_bool(0.06) {
                labels[c][i] = true;
                if rng.gen_bool(0.25) {
                    // Hard positive: a single weak signature word, barely
                    // distinguishable from background noise. These force a
                    // low threshold at a = 1 (the paper's r(1] medians sit
                    // near 0.5) and are shed as the target relaxes.
                    pairs.push((words[rng.gen_range(0..SIG_WORDS)], 1.0));
                } else {
                    // A random small subset of the signature vocabulary —
                    // no single word covers the category, so per-column
                    // correlation filters cannot match an SVM that sums
                    // the evidence (Table 6's LSHTC column).
                    let k = rng.gen_range(2..=4);
                    let mut picks: Vec<u32> = words.clone();
                    for j in 0..k {
                        let swap = rng.gen_range(j..picks.len());
                        picks.swap(j, swap);
                    }
                    for w in picks.iter().take(k) {
                        pairs.push((*w, 1.0 + rng.gen_range(0.0..2.0)));
                    }
                }
            } else if rng.gen_bool(0.01) {
                // Rare single-signature-word noise (not enough to belong).
                pairs.push((words[0], 1.0));
            }
        }
        // `from_pairs` sorts and merges the pairs, so only an index past
        // DIM could fail it, and every index is a Zipf rank under 9 000 or
        // a signature word under 10 000 + N_CATS · SIG_WORDS.
        let Ok(document) = SparseVector::from_pairs(DIM, pairs) else {
            unreachable!("LSHTC word indices lie below DIM")
        };
        blobs.push(Arc::new(Features::Sparse(document)));
    }
    Corpus {
        name: "LSHTC".into(),
        blobs,
        categories: (0..N_CATS).map(|c| format!("cat{c}")).collect(),
        labels,
    }
}

/// SUNAttribute-like scenes: a latent 12-D scene vector embedded in `DIM`
/// dims; an attribute holds when the scene lies inside the attribute's
/// ball — smooth, mildly non-linear regions where PCA+KDE shines.
pub fn sun_like(n: usize, seed: u64) -> Corpus {
    const DIM: usize = 256;
    const LATENT: usize = 12;
    const N_ATTRS: usize = 12;
    let mut rng = StdRng::seed_from_u64(seed);
    let basis: Vec<Vec<f64>> = (0..LATENT)
        .map(|l| embedding(DIM, &format!("sun-basis-{l}"), seed))
        .collect();
    let centers: Vec<Vec<f64>> = (0..N_ATTRS)
        .map(|a| {
            let mut rng = StdRng::seed_from_u64(seed ^ (a as u64 + 101));
            (0..LATENT)
                .map(|_| 0.7 * standard_normal(&mut rng))
                .collect()
        })
        .collect();
    // Calibrate each attribute's ball radius to ~10% selectivity on a
    // reference latent sample (keeps selectivity stable across dims).
    let radius2: Vec<f64> = {
        let mut cal_rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
        let sample: Vec<Vec<f64>> = (0..2_000)
            .map(|_| (0..LATENT).map(|_| standard_normal(&mut cal_rng)).collect())
            .collect();
        centers
            .iter()
            .map(|c| {
                let d2: Vec<f64> = sample
                    .iter()
                    .map(|x| pp_linalg::dense::sq_dist(x, c))
                    .collect();
                // 2 000 distances and a quantile in [0, 1]: never `None`.
                let Some(radius2) = pp_linalg::stats::percentile(&d2, 0.10) else {
                    unreachable!("the calibration sample is not empty")
                };
                radius2
            })
            .collect()
    };
    let mut blobs = Vec::with_capacity(n);
    let mut labels = vec![vec![false; n]; N_ATTRS];
    for i in 0..n {
        let latent: Vec<f64> = (0..LATENT).map(|_| standard_normal(&mut rng)).collect();
        for (a, c) in centers.iter().enumerate() {
            labels[a][i] = pp_linalg::dense::sq_dist(&latent, c) < radius2[a];
        }
        let mut v = vec![0.0; DIM];
        for (l, b) in basis.iter().enumerate() {
            pp_linalg::dense::axpy(latent[l], b, &mut v);
        }
        add_noise(&mut v, 0.08, &mut rng);
        blobs.push(Arc::new(Features::Dense(v)));
    }
    Corpus {
        name: "SUNAttribute".into(),
        blobs,
        categories: (0..N_ATTRS).map(|a| format!("attr{a}")).collect(),
        labels,
    }
}

const IMG_DIM: usize = 128;
const IMG_CLASSES: usize = 16;

/// COCO-like images: each image carries 1–4 objects; object `k`
/// contributes `±1 × e_k` with a random sign, so the class-conditional
/// mean is zero and linear probes fail, while the energy `(x·e_k)²` is
/// informative — the structure a small DNN learns and an SVM cannot.
pub fn coco_like(n: usize, seed: u64) -> Corpus {
    image_corpus("COCO", n, seed, 1..=4, 0.35, 0.0)
}

/// ImageNet-like images: *nearly* the same class embeddings as
/// [`coco_like`] (so PPs cross-train, §8.1) but mildly perturbed (domain
/// shift), single-object, and low-clutter — cleaner class structure,
/// matching ImageNet's higher Table 4 reductions, while cross-trained PPs
/// land slightly below natively trained ones.
pub fn imagenet_like(n: usize, seed: u64) -> Corpus {
    image_corpus("ImageNet", n, seed, 1..=1, 0.12, 0.45)
}

/// Fraction of ImageNet-like images carrying a *distractor*: an object
/// resembling the shared (COCO-side) appearance of a class the image does
/// not contain. Natively trained PPs separate distractors through the
/// domain-shifted embedding; cross-trained PPs partially confuse them —
/// producing Table 4's "cross-trained PPs are not as good" gap.
const IMAGENET_DISTRACTOR_PROB: f64 = 0.15;

fn image_corpus(
    name: &str,
    n: usize,
    seed: u64,
    objects_per_image: std::ops::RangeInclusive<usize>,
    noise: f64,
    domain_shift: f64,
) -> Corpus {
    // Class embeddings are seeded independently of the corpus seed so COCO
    // and ImageNet share them (cross-training); `domain_shift` tilts each
    // class embedding toward a dataset-specific direction.
    const EMB_SEED: u64 = 0xC0C0;
    let embs: Vec<Vec<f64>> = (0..IMG_CLASSES)
        .map(|k| {
            let mut e = embedding(IMG_DIM, &format!("img-class-{k}"), EMB_SEED);
            if domain_shift > 0.0 {
                let p = embedding(IMG_DIM, &format!("img-shift-{name}-{k}"), EMB_SEED);
                pp_linalg::dense::axpy(domain_shift, &p, &mut e);
                let norm = pp_linalg::dense::norm2(&e).max(1e-12);
                pp_linalg::dense::scale(1.0 / norm, &mut e);
            }
            e
        })
        .collect();
    let weights: Vec<f64> = (0..IMG_CLASSES)
        .map(|k| 1.0 / (1.0 + k as f64 * 0.3))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blobs = Vec::with_capacity(n);
    let mut labels = vec![vec![false; n]; IMG_CLASSES];
    let single_object = objects_per_image == (1..=1);
    for i in 0..n {
        let mut v = vec![0.0; IMG_DIM];
        let n_obj = rng.gen_range(objects_per_image.clone());
        for _ in 0..n_obj {
            let k = weighted_choice(&weights, &mut rng);
            labels[k][i] = true;
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            // Single-object (ImageNet-like) images have a steady object
            // scale; cluttered (COCO-like) ones jitter.
            let scale = if single_object {
                sign * 2.5
            } else {
                sign * rng.gen_range(2.0..3.0)
            };
            pp_linalg::dense::axpy(scale, &embs[k], &mut v);
        }
        // Domain-shifted corpora occasionally carry a distractor: an
        // object matching the *shared* (COCO-side) appearance of an absent
        // class while anti-correlating with the dataset-specific cue.
        // Natively trained PPs key on the shifted embedding and separate
        // it cleanly; cross-trained PPs key on the shared appearance and
        // partially confuse it.
        if domain_shift > 0.0 && rng.gen_bool(IMAGENET_DISTRACTOR_PROB) {
            let k = weighted_choice(&weights, &mut rng);
            if !labels[k][i] {
                let core = embedding(IMG_DIM, &format!("img-class-{k}"), EMB_SEED);
                let p = embedding(IMG_DIM, &format!("img-shift-{name}-{k}"), EMB_SEED);
                let mut h = embedding(IMG_DIM, &format!("img-distract-{seed}-{i}"), EMB_SEED);
                pp_linalg::dense::scale(0.25, &mut h);
                pp_linalg::dense::axpy(0.95, &core, &mut h);
                pp_linalg::dense::axpy(-0.6, &p, &mut h);
                let hn = pp_linalg::dense::norm2(&h).max(1e-12);
                pp_linalg::dense::scale(1.0 / hn, &mut h);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                pp_linalg::dense::axpy(sign * 2.5, &h, &mut v);
            }
        }
        add_noise(&mut v, noise, &mut rng);
        blobs.push(Arc::new(Features::Dense(v)));
    }
    Corpus {
        name: name.into(),
        blobs,
        categories: (0..IMG_CLASSES).map(|k| format!("class{k}")).collect(),
        labels,
    }
}

/// UCF101-like video clips: each activity occupies *two* well-separated
/// modes built from ±-sign patterns of equal magnitude, and every clip is
/// globally sign-flipped with probability ½ (modeling the translation/
/// illumination variance that makes single raw-pixel marginals useless).
///
/// Design rationale, tied to the paper's measurements:
/// * the flip makes every dimension's marginal identical across
///   activities, so per-dimension correlation filters (Joglekar et al.)
///   see nothing — Table 6's UCF101 column;
/// * the (now four) symmetric modes per activity defeat a single
///   separating hyperplane, so a linear SVM underperforms — KDE beats SVM
///   by a clear margin, Table 4's UCF101 rows;
/// * jointly, the modes are far apart relative to noise, so density-ratio
///   classifiers (PCA + KDE) retrieve activities well.
pub fn ucf101_like(n: usize, seed: u64) -> Corpus {
    const DIM: usize = 96;
    const N_ACTS: usize = 10;
    const MAG: f64 = 0.45;
    let mut rng = StdRng::seed_from_u64(seed);
    // Two sign-pattern modes per activity, derived deterministically.
    let mode = |a: usize, m: usize| -> Vec<f64> {
        let mut mrng = StdRng::seed_from_u64(pp_linalg::rng::derive_seed(
            seed,
            &format!("ucf-mode-{a}-{m}"),
        ));
        (0..DIM)
            .map(|_| if mrng.gen_bool(0.5) { MAG } else { -MAG })
            .collect()
    };
    let modes: Vec<[Vec<f64>; 2]> = (0..N_ACTS).map(|a| [mode(a, 0), mode(a, 1)]).collect();
    let dirs: Vec<(Vec<f64>, Vec<f64>)> = (0..N_ACTS)
        .map(|a| {
            (
                embedding(DIM, &format!("ucf-dir1-{a}"), seed),
                embedding(DIM, &format!("ucf-dir2-{a}"), seed),
            )
        })
        .collect();
    let mut blobs = Vec::with_capacity(n);
    let mut labels = vec![vec![false; n]; N_ACTS];
    for i in 0..n {
        let a = rng.gen_range(0..N_ACTS);
        labels[a][i] = true;
        let m = usize::from(rng.gen_bool(0.4));
        // A point on the mode's curved local trajectory.
        let t = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut v = modes[a][m].clone();
        // Ambiguous clips (~15%): partially blended toward a different
        // activity's mode (occlusion, camera motion). They sit mid-ranking
        // and cap r(1] below the selectivity ceiling, as in Figure 9.
        if rng.gen_bool(0.15) {
            let other = (a + rng.gen_range(1..N_ACTS)) % N_ACTS;
            let alpha = rng.gen_range(0.40..0.60);
            pp_linalg::dense::scale(1.0 - alpha, &mut v);
            pp_linalg::dense::axpy(alpha, &modes[other][m], &mut v);
        }
        pp_linalg::dense::axpy(0.6 * t.cos(), &dirs[a].0, &mut v);
        pp_linalg::dense::axpy(0.6 * t.sin(), &dirs[a].1, &mut v);
        // Global sign flip: symmetric marginals in every dimension.
        if rng.gen_bool(0.5) {
            pp_linalg::dense::scale(-1.0, &mut v);
        }
        add_noise(&mut v, 0.25, &mut rng);
        blobs.push(Arc::new(Features::Dense(v)));
    }
    Corpus {
        name: "UCF101".into(),
        blobs,
        categories: (0..N_ACTS).map(|a| format!("act{a}")).collect(),
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ml::pipeline::{Approach, ModelSpec, Pipeline};
    use pp_ml::reduction::ReducerSpec;
    use pp_ml::svm::SvmParams;

    #[test]
    fn lshtc_is_sparse_with_low_selectivity() {
        let c = lshtc_like(300, 1);
        assert_eq!(c.len(), 300);
        assert!(c.blobs()[0].is_sparse());
        for cat in 0..c.categories().len() {
            let s = c.selectivity(cat);
            assert!((0.005..0.2).contains(&s), "cat {cat} selectivity {s}");
        }
    }

    #[test]
    fn a_labeled_set_shares_the_corpus_blobs_and_labels() {
        let c = sun_like(50, 4);
        for cat in 0..c.categories().len() {
            let set = c.labeled(cat);
            for ((s, blob), &label) in set.samples().iter().zip(c.blobs()).zip(c.labels(cat)) {
                assert!(Arc::ptr_eq(&s.features, blob));
                assert_eq!(s.label, label);
            }
            assert_eq!(set.samples().len(), c.len());
        }
    }

    #[test]
    fn lshtc_is_linearly_separable() {
        let c = lshtc_like(900, 2);
        let set = c.labeled(0);
        let (train, val, _) = set.split(0.7, 0.3, 3).unwrap();
        let approach = Approach {
            reducer: ReducerSpec::FeatureHash { dr: 2048 },
            model: ModelSpec::Svm(SvmParams::default()),
        };
        let pp = Pipeline::train(&approach, &train, &val, 4).unwrap();
        // The 25% weak positives cap high-accuracy reduction by design;
        // at a = 0.9 the strong signature structure must dominate.
        assert!(
            pp.reduction(0.9).unwrap() > 0.3,
            "r={}",
            pp.reduction(0.9).unwrap()
        );
    }

    #[test]
    fn sun_attributes_have_reasonable_selectivity() {
        let c = sun_like(500, 3);
        let mean_sel: f64 = (0..c.categories().len())
            .map(|a| c.selectivity(a))
            .sum::<f64>()
            / c.categories().len() as f64;
        assert!(
            (0.02..0.35).contains(&mean_sel),
            "mean selectivity {mean_sel}"
        );
    }

    #[test]
    fn coco_defeats_linear_probes() {
        // The class-conditional mean is ~0, so a raw linear SVM gains
        // little reduction at high accuracy.
        let c = coco_like(800, 4);
        let set = c.labeled(0);
        let (train, val, _) = set.split(0.7, 0.3, 5).unwrap();
        let svm = Pipeline::train(
            &Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            },
            &train,
            &val,
            6,
        )
        .unwrap();
        assert!(
            svm.reduction(0.99).unwrap() < 0.45,
            "svm r={}",
            svm.reduction(0.99).unwrap()
        );
    }

    #[test]
    fn imagenet_shares_embeddings_with_coco() {
        // Cross-training: a DNN trained on COCO should transfer signal to
        // ImageNet-like blobs for the same class index. Verified here at
        // the generative level: the class embedding is identical.
        let a = crate::synth::embedding(128, "img-class-3", 0xC0C0);
        let b = crate::synth::embedding(128, "img-class-3", 0xC0C0);
        assert_eq!(a, b);
        // And the corpora use it: ImageNet blobs for class k correlate
        // with e_k in magnitude.
        let img = imagenet_like(200, 7);
        let e0 = crate::synth::embedding(128, "img-class-0", 0xC0C0);
        let mut pos_mag = 0.0;
        let mut pos_n = 0.0;
        let mut neg_mag = 0.0;
        let mut neg_n = 0.0;
        let set = img.labeled(0);
        for s in set.iter() {
            let proj = s.features.dot(&e0).abs();
            if s.label {
                pos_mag += proj;
                pos_n += 1.0;
            } else {
                neg_mag += proj;
                neg_n += 1.0;
            }
        }
        assert!(pos_mag / pos_n > 4.0 * (neg_mag / neg_n + 1e-9));
    }

    #[test]
    fn ucf_clusters_exist() {
        let c = ucf101_like(400, 8);
        // Every clip belongs to exactly one activity.
        for i in 0..c.len() {
            let count = (0..c.categories().len())
                .filter(|&a| c.labels[a][i])
                .count();
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = coco_like(50, 9);
        let b = coco_like(50, 9);
        assert_eq!(a.blobs()[10], b.blobs()[10]);
        assert_eq!(a.labels, b.labels);
    }
}
