//! A small fully-connected neural network (§5.3, Figure 6).
//!
//! `f_fcn^i(x) = g_i(W_i · f_fcn^{i-1}(x) + b_i)` with ReLU activations on
//! hidden layers and a single linear output unit (the logit); training
//! minimizes class-weighted logistic loss with SGD + momentum. This is the
//! "relatively very light-weight" network the paper uses for PPs — a few
//! small layers, not a ResNet.

use pp_linalg::dense::Matrix;
use pp_linalg::{FeatureBatch, Features};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dataset::LabeledSet;
use crate::pipeline::ScoreModel;
use crate::{MlError, Result};

/// Hyper-parameters for [`Dnn::train`].
#[derive(Debug, Clone)]
pub struct DnnParams {
    /// Hidden layer widths, e.g. `[32, 16]`.
    pub hidden: Vec<usize>,
    /// Number of passes over the training set (`b` epochs in Table 2).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Weight positives by `n_neg / n_pos` when true.
    pub balance_classes: bool,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for DnnParams {
    fn default() -> Self {
        DnnParams {
            hidden: vec![32, 16],
            epochs: 30,
            learning_rate: 0.01,
            momentum: 0.9,
            balance_classes: true,
            seed: 0,
        }
    }
}

/// One fully-connected layer with its momentum buffers.
#[derive(Debug, Clone)]
struct Layer {
    /// `out x in` weights.
    w: Matrix,
    b: Vec<f64>,
    vw: Matrix,
    vb: Vec<f64>,
}

impl Layer {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        // He-uniform initialization.
        let limit = (6.0 / input as f64).sqrt();
        let mut w = Matrix::zeros(output, input);
        for r in 0..output {
            for c in 0..input {
                w.set(r, c, rng.gen_range(-limit..limit));
            }
        }
        Layer {
            w,
            b: vec![0.0; output],
            vw: Matrix::zeros(output, input),
            vb: vec![0.0; output],
        }
    }

    fn forward(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = self.w.matvec(x)?;
        for (o, b) in out.iter_mut().zip(&self.b) {
            *o += b;
        }
        Ok(out)
    }
}

/// A trained multi-layer perceptron emitting a single logit.
#[derive(Debug, Clone)]
pub struct Dnn {
    layers: Vec<Layer>,
}

impl Dnn {
    /// Trains the network. Inputs must be dense (or cheap to densify) after
    /// reduction — DNN PPs target dense image/video blobs (Table 2).
    pub fn train(data: &LabeledSet, params: &DnnParams) -> Result<Self> {
        if data.is_empty() {
            return Err(MlError::EmptyInput);
        }
        let n_pos = data.positives();
        if n_pos == 0 || n_pos == data.len() {
            return Err(MlError::SingleClass);
        }
        if params.epochs == 0 {
            return Err(MlError::InvalidParameter("epochs must be positive"));
        }
        if params.learning_rate <= 0.0 {
            return Err(MlError::InvalidParameter("learning_rate must be positive"));
        }
        if !(0.0..1.0).contains(&params.momentum) {
            return Err(MlError::InvalidParameter("momentum must be in [0,1)"));
        }
        let d = data.dim();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut sizes = vec![d];
        sizes.extend_from_slice(&params.hidden);
        sizes.push(1);
        let mut layers: Vec<Layer> = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();

        let pos_weight = if params.balance_classes {
            (data.len() - n_pos) as f64 / n_pos as f64
        } else {
            1.0
        };

        // Densify once; DNN training revisits every row each epoch.
        let dense: Vec<(Vec<f64>, bool)> = data
            .iter()
            .map(|s| (s.features.to_dense(), s.label))
            .collect();

        let mut order: Vec<usize> = (0..dense.len()).collect();
        for _epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (x, label) = &dense[i];
                Self::sgd_step(&mut layers, x, *label, pos_weight, params)?;
            }
        }
        Ok(Dnn { layers })
    }

    /// One forward/backward pass and parameter update for a single sample.
    ///
    /// A sample whose dimension does not match the first layer is a
    /// [`MlError::Linalg`] dimension mismatch.
    fn sgd_step(
        layers: &mut [Layer],
        x: &[f64],
        label: bool,
        pos_weight: f64,
        params: &DnnParams,
    ) -> Result<()> {
        // Forward, remembering each layer's input (the previous layer's
        // post-activation values).
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(layers.len());
        let mut z = x.to_vec();
        for (li, layer) in layers.iter().enumerate() {
            let mut next = layer.forward(&z)?;
            let is_output = li == layers.len() - 1;
            if !is_output {
                for v in &mut next {
                    *v = v.max(0.0); // ReLU
                }
            }
            activations.push(std::mem::replace(&mut z, next));
        }
        // The output layer has one unit, the logit.
        let logit = z[0];
        let y = if label { 1.0 } else { 0.0 };
        let p = 1.0 / (1.0 + (-logit).exp());
        let weight = if label { pos_weight } else { 1.0 };
        // dL/dlogit for weighted BCE.
        let mut delta = vec![weight * (p - y)];

        // Backward.
        for li in (0..layers.len()).rev() {
            let input = &activations[li];
            // Gradient wrt this layer's input, for the next iteration.
            let prev_delta = if li > 0 {
                let mut g = layers[li].w.matvec_t(&delta)?;
                // ReLU derivative uses the post-activation values (>0 ⇔ active).
                for (gi, a) in g.iter_mut().zip(&activations[li]) {
                    if *a <= 0.0 {
                        *gi = 0.0;
                    }
                }
                Some(g)
            } else {
                None
            };
            let layer = &mut layers[li];
            for (r, dr) in delta.iter().enumerate() {
                let vrow = layer.vw.row_mut(r);
                for (c, inp) in input.iter().enumerate() {
                    vrow[c] = params.momentum * vrow[c] - params.learning_rate * dr * inp;
                }
                layer.vb[r] = params.momentum * layer.vb[r] - params.learning_rate * dr;
            }
            for r in 0..delta.len() {
                let (wrow, vrow) = (r, r);
                for c in 0..input.len() {
                    let nv = layer.vw.get(vrow, c);
                    let nw = layer.w.get(wrow, c) + nv;
                    layer.w.set(wrow, c, nw);
                }
                layer.b[r] += layer.vb[r];
            }
            if let Some(g) = prev_delta {
                delta = g;
            }
        }
        Ok(())
    }

    /// Number of layers (hidden + output).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters (`d_m` in Table 2).
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Forward pass over a dense input, ping-ponging between two caller
    /// scratch buffers so batch scoring allocates nothing per row. Every
    /// inference entry point ([`ScoreModel::score`] and both
    /// [`ScoreModel::score_many`] variants) funnels through this one
    /// function, and its matvec uses the chunked inference kernel
    /// ([`pp_linalg::kernels::dot`]), so scores are bit-identical across
    /// scalar, row-batch and columnar execution. (Training's
    /// [`Layer::forward`] keeps the strict left-fold dot.)
    fn score_dense_into(&self, x: &[f64], cur: &mut Vec<f64>, next: &mut Vec<f64>) -> f64 {
        cur.clear();
        cur.extend_from_slice(x);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            next.clear();
            for r in 0..layer.w.rows() {
                let mut z = pp_linalg::kernels::dot(layer.w.row(r), cur) + layer.b[r];
                if li != last {
                    z = z.max(0.0); // ReLU
                }
                next.push(z);
            }
            std::mem::swap(cur, next);
        }
        cur[0]
    }

    /// Forward pass over a whole contiguous block: the batch walk is one
    /// linear pass over the block buffer, each row funneling through
    /// [`Self::score_dense_into`] with shared scratch, so per-row results
    /// are bit-identical to the scalar path by construction. (A paired-row
    /// variant over [`pp_linalg::kernels::dot2`] was measured slower on
    /// narrow-SIMD hosts — the extra accumulator set spills — so the block
    /// path keeps the per-row walk and lets the contiguous layout do the
    /// work.)
    fn score_block(&self, block: &pp_linalg::FeatureBlock) -> Vec<f64> {
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        let mut out = Vec::with_capacity(block.len());
        for row in block.rows() {
            out.push(self.score_dense_into(row, &mut cur, &mut next));
        }
        out
    }
}

impl ScoreModel for Dnn {
    fn score(&self, x: &Features) -> f64 {
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        self.score_dense_into(&x.to_dense(), &mut cur, &mut next)
    }

    fn score_many(&self, xs: &FeatureBatch<'_>) -> Vec<f64> {
        match xs {
            FeatureBatch::Refs(refs) => {
                let (mut cur, mut next) = (Vec::new(), Vec::new());
                let mut out = Vec::with_capacity(refs.len());
                let mut dense: Vec<f64> = Vec::new();
                for x in *refs {
                    let input: &[f64] = match x.as_dense() {
                        Some(d) => d,
                        None => {
                            dense.clear();
                            dense.resize(x.dim(), 0.0);
                            for (i, v) in x.iter_nonzero() {
                                dense[i as usize] = v;
                            }
                            &dense
                        }
                    };
                    out.push(self.score_dense_into(input, &mut cur, &mut next));
                }
                out
            }
            FeatureBatch::Block(block) => self.score_block(block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    /// XOR-style data: positive iff the two coordinates have the same sign.
    fn xor_data(n: usize, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        LabeledSet::new(
            (0..n)
                .map(|_| {
                    let x: f64 = rng.gen_range(-1.0..1.0);
                    let y: f64 = rng.gen_range(-1.0..1.0);
                    Sample::new(vec![x, y], x * y > 0.0)
                })
                .collect(),
        )
        .unwrap()
    }

    fn accuracy(dnn: &Dnn, data: &LabeledSet) -> f64 {
        let correct = data
            .iter()
            .filter(|s| (dnn.score(&s.features) > 0.0) == s.label)
            .count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn learns_xor() {
        let data = xor_data(500, 21);
        let params = DnnParams {
            epochs: 60,
            ..Default::default()
        };
        let dnn = Dnn::train(&data, &params).unwrap();
        let acc = accuracy(&dnn, &data);
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let data = xor_data(50, 1);
        let params = DnnParams {
            hidden: vec![4, 3],
            epochs: 1,
            ..Default::default()
        };
        let dnn = Dnn::train(&data, &params).unwrap();
        // (2*4 + 4) + (4*3 + 3) + (3*1 + 1) = 12 + 15 + 4 = 31
        assert_eq!(dnn.parameter_count(), 31);
        assert_eq!(dnn.depth(), 3);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(
            Dnn::train(&LabeledSet::empty(), &DnnParams::default()),
            Err(MlError::EmptyInput)
        ));
        let single = LabeledSet::new(vec![Sample::new(vec![0.0], false); 3]).unwrap();
        assert!(matches!(
            Dnn::train(&single, &DnnParams::default()),
            Err(MlError::SingleClass)
        ));
        let data = xor_data(20, 2);
        let bad = DnnParams {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(Dnn::train(&data, &bad).is_err());
        let bad_m = DnnParams {
            momentum: 1.0,
            ..Default::default()
        };
        assert!(Dnn::train(&data, &bad_m).is_err());
        let bad_e = DnnParams {
            epochs: 0,
            ..Default::default()
        };
        assert!(Dnn::train(&data, &bad_e).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = xor_data(100, 5);
        let params = DnnParams {
            epochs: 5,
            ..Default::default()
        };
        let a = Dnn::train(&data, &params).unwrap();
        let b = Dnn::train(&data, &params).unwrap();
        let x = Features::Dense(vec![0.3, -0.4]);
        assert_eq!(a.score(&x), b.score(&x));
    }

    #[test]
    fn no_hidden_layers_degrades_to_linear() {
        // A depth-1 network is a linear model and cannot solve XOR.
        let data = xor_data(400, 8);
        let params = DnnParams {
            hidden: vec![],
            epochs: 40,
            ..Default::default()
        };
        let dnn = Dnn::train(&data, &params).unwrap();
        let acc = accuracy(&dnn, &data);
        assert!(acc < 0.75, "linear model unexpectedly solved XOR: {acc}");
    }
}
