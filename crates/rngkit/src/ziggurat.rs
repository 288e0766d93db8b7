//! Marsaglia–Tsang ziggurat sampler for the standard normal.
//!
//! The fast sampling profile draws one normal per table lookup in the
//! common case: a single `next_u64` supplies the layer index (low 8
//! bits) and a signed 53-bit uniform, and ~98.8% of draws accept
//! immediately with one multiply and one compare. The remaining draws
//! fall through to the wedge test (one exp) or, for layer 0, the
//! Marsaglia exponential tail.
//!
//! The tables are built once per process (`OnceLock`) from the classic
//! 256-layer construction: `R = 3.654152885361008796` and the layer
//! area `V = R·f(R) + ∫_R^∞ f` with `f(x) = exp(-x²/2)`. The tail
//! integral is evaluated with a Mills-ratio continued fraction so the
//! crate stays free of `mathkit` (rngkit sits below it in the
//! dependency graph).
//!
//! [`skip_standard_normals`] advances a generator past `count` draws
//! without computing them. The core test `|u·x[i]| < x[i+1]` sees the
//! draw's 53-bit uniform as `u = s·2⁻⁵²` exactly, with
//! `s = (bits >> 11) − 2⁵²`, and the rounded product grows
//! monotonically with `|s|`, so each layer's test is `|s| < k[i]` for one
//! integer threshold `k[i]`. The thresholds are found when the tables
//! are built, by binary search over the float test itself; a skipped
//! draw that passes its core then costs one word, one table load and one
//! integer compare. Every other draw runs the same wedge and tail code
//! as [`standard_normal`] on the same words.
//!
//! This sampler is **not** used by the `Reference` sampling profile —
//! that path keeps its pinned polar-method byte stream. `Fast` is held
//! to distributional equality instead (see the workspace DESIGN.md).

use crate::RngCore;
use std::sync::OnceLock;

/// Number of ziggurat layers.
const LAYERS: usize = 256;

/// Rightmost layer edge of the 256-layer normal ziggurat.
const NORM_R: f64 = 3.654_152_885_361_009;

/// Unnormalised standard-normal density `exp(-x²/2)`.
#[inline]
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Inverse of [`pdf`] on `x ≥ 0`: `sqrt(-2 ln y)`.
#[inline]
fn pdf_inv(y: f64) -> f64 {
    (-2.0 * y.ln()).sqrt()
}

/// Upper tail mass `∫_r^∞ exp(-x²/2) dx` via the Mills-ratio continued
/// fraction `f(r) / (r + 1/(r + 2/(r + 3/(r + …))))`, evaluated
/// backwards over 64 terms — far more than needed for r ≈ 3.65, where
/// the fraction converges to full double precision in ~25 terms.
fn tail_area(r: f64) -> f64 {
    let mut cf = 0.0;
    for k in (1..=64).rev() {
        cf = k as f64 / (r + cf);
    }
    pdf(r) / (r + cf)
}

/// Precomputed layer edges `x[0..=256]`, densities `f[i] = pdf(x[i])`
/// and core thresholds: a draw in layer `i` passes the core test exactly
/// when its [`core_magnitude`] is below `k[i]`.
struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
    k: [u64; LAYERS],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Common layer area: base strip [0, R] × f(R) plus the tail.
        let v = NORM_R * pdf(NORM_R) + tail_area(NORM_R);
        let mut x = [0.0; LAYERS + 1];
        // x[0] is the virtual base-strip edge V / f(R) (> R); x[1] = R.
        x[0] = v / pdf(NORM_R);
        x[1] = NORM_R;
        for i in 1..LAYERS - 1 {
            // Each layer has area v: f(x[i+1]) = f(x[i]) + v / x[i].
            x[i + 1] = pdf_inv(pdf(x[i]) + v / x[i]);
        }
        x[LAYERS] = 0.0;
        let mut f = [0.0; LAYERS + 1];
        for i in 0..=LAYERS {
            f[i] = pdf(x[i]);
        }
        let mut k = [0; LAYERS];
        for (i, k) in k.iter_mut().enumerate() {
            *k = core_threshold(&x, i);
        }
        Tables { x, f, k }
    })
}

/// The signed uniform in `[-1, 1)` of a draw's top 53 bits. It equals
/// `s·2⁻⁵²` exactly, with `s = (bits >> 11) − 2⁵²`: every step is exact
/// in `f64`.
#[inline]
fn signed_uniform(bits: u64) -> f64 {
    2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0
}

/// `|s|` of a draw's [`signed_uniform`], in `[0, 2⁵²]`.
#[inline]
fn core_magnitude(bits: u64) -> u64 {
    ((bits >> 11) as i64 - (1 << 52)).unsigned_abs()
}

/// Whether `bits` passes its layer's core test: the float test
/// [`standard_normal`] runs.
#[inline]
fn in_core(x: &[f64; LAYERS + 1], bits: u64) -> bool {
    let i = (bits & 0xff) as usize;
    (signed_uniform(bits) * x[i]).abs() < x[i + 1]
}

/// The draw of layer `i` whose uniform is `−a·2⁻⁵²`, so that its
/// [`core_magnitude`] is `a` (`a ≤ 2⁵²`).
fn draw_with_magnitude(i: usize, a: u64) -> u64 {
    (((1 << 52) - a) << 11) | i as u64
}

/// The least `a` at which layer `i`'s core test fails, found by binary
/// search over the float test. The test is monotone in `a`: `|u|` is
/// exact and rounding the product is monotone and symmetric in sign.
/// It fails at `a = 2⁵²` (`|u| = 1`, and `x[i] ≥ x[i+1]`), so the
/// result is at most `2⁵²`.
fn core_threshold(x: &[f64; LAYERS + 1], i: usize) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 52);
    debug_assert!(!in_core(x, draw_with_magnitude(i, hi)));
    // Invariant: the test fails at `hi` and passes below `lo`.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if in_core(x, draw_with_magnitude(i, mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Uniform in the *open* interval `(0, 1)` — safe to pass to `ln`.
#[inline]
fn open01<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    loop {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u > 0.0 {
            return u;
        }
    }
}

/// Draws one standard-normal variate with the 256-layer ziggurat.
///
/// Consumes a variable number of `next_u64` words (one in ~98.8% of
/// calls); callers that need a reproducible stream must therefore fix
/// the *sequence of calls*, not a per-call word budget.
pub fn standard_normal<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    let t = tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let x = signed_uniform(bits) * t.x[i];
        if x.abs() < t.x[i + 1] {
            // Inside the layer's rectangle core: accept immediately.
            return x;
        }
        if let Some(x) = outside_core(rng, t, bits) {
            return x;
        }
    }
}

/// Advances `rng` exactly as `count` calls of [`standard_normal`] would,
/// without computing the draws a core accepts.
///
/// A draw passes its layer's core test exactly when the integer `|s|` of
/// its uniform is below the layer's threshold (see the module docs), so
/// deciding it takes one compare. Every other draw goes through the same
/// wedge and tail code as [`standard_normal`], which consumes the same
/// words and accepts or rejects alike.
pub fn skip_standard_normals<G: RngCore + ?Sized>(rng: &mut G, count: usize) {
    let t = tables();
    for _ in 0..count {
        loop {
            let bits = rng.next_u64();
            if core_magnitude(bits) < t.k[(bits & 0xff) as usize]
                || outside_core(rng, t, bits).is_some()
            {
                break;
            }
        }
    }
}

/// The draw `bits` makes when it misses its layer's core: the layer-0
/// tail, or the wedge test of any other layer. `None` rejects it, and
/// the caller starts over with a fresh word.
#[cold]
fn outside_core<G: RngCore + ?Sized>(rng: &mut G, t: &Tables, bits: u64) -> Option<f64> {
    let i = (bits & 0xff) as usize;
    let u = signed_uniform(bits);
    if i == 0 {
        // Tail: Marsaglia's exponential method beyond R.
        loop {
            let ex = -open01(rng).ln() / NORM_R;
            let ey = -open01(rng).ln();
            if 2.0 * ey > ex * ex {
                return Some(if u < 0.0 { -(NORM_R + ex) } else { NORM_R + ex });
            }
        }
    }
    // Wedge: accept iff a uniform height under the layer falls below
    // the density at x.
    let x = u * t.x[i];
    let h = t.f[i + 1]
        + (t.f[i] - t.f[i + 1]) * ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
    (h < pdf(x)).then_some(x)
}

/// Fills `out` with independent standard-normal draws; identical to
/// calling [`standard_normal`] once per slot.
pub fn fill_standard_normal<G: RngCore + ?Sized>(rng: &mut G, out: &mut [f64]) {
    for slot in out {
        *slot = standard_normal(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn tables_are_monotone_and_anchored() {
        let t = tables();
        assert_eq!(t.x[1], NORM_R);
        assert_eq!(t.x[LAYERS], 0.0);
        assert!(t.x[0] > t.x[1], "virtual edge exceeds R");
        for i in 1..LAYERS {
            assert!(t.x[i] > t.x[i + 1], "x must strictly decrease at {i}");
        }
        // f is pdf evaluated on x: increasing as x decreases, ending at 1.
        assert_eq!(t.f[LAYERS], 1.0);
        for i in 0..LAYERS {
            assert!(t.f[i] < t.f[i + 1], "f must strictly increase at {i}");
        }
    }

    #[test]
    fn layer_areas_are_equal() {
        // Every rectangle x[i] × (f(x[i+1]) - f(x[i])) has the common
        // area v, by construction; spot-check it holds numerically.
        let t = tables();
        let v = NORM_R * pdf(NORM_R) + tail_area(NORM_R);
        for i in 1..LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!(
                (area - v).abs() < 1e-12,
                "layer {i} area {area} deviates from {v}"
            );
        }
    }

    #[test]
    fn tail_area_matches_erfc_pin() {
        // sqrt(pi/2) * erfc(R / sqrt(2)) for R = 3.654152885361008796,
        // computed independently to 30 significant digits.
        let want = 3.233_957_646_633_212_6e-4;
        let got = tail_area(NORM_R);
        assert!((got - want).abs() < 1e-15, "tail area {got} vs {want}");
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..10_000 {
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                standard_normal(&mut b).to_bits()
            );
        }
    }

    /// The core test as [`standard_normal`] states it, spelled out
    /// again so the thresholds are checked against it and not against
    /// the search that found them.
    fn float_core_test(bits: u64) -> bool {
        let t = tables();
        let i = (bits & 0xff) as usize;
        let u = 2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0;
        (u * t.x[i]).abs() < t.x[i + 1]
    }

    /// The draws of layer `i` whose uniform is `−a·2⁻⁵²` and `+a·2⁻⁵²`
    /// (only the negative one exists at `a = 2⁵²`).
    fn draws_at(i: usize, a: u64) -> Vec<u64> {
        let mut draws = vec![draw_with_magnitude(i, a)];
        if a < 1 << 52 {
            draws.push((((1 << 52) + a) << 11) | i as u64);
        }
        draws
    }

    #[test]
    fn every_threshold_sits_on_its_float_boundary() {
        let t = tables();
        for i in 0..LAYERS {
            let k = t.k[i];
            assert!(k <= 1 << 52, "layer {i}: threshold {k} out of range");
            if k > 0 {
                for bits in draws_at(i, k - 1) {
                    assert_eq!(core_magnitude(bits), k - 1);
                    assert!(float_core_test(bits), "layer {i}: rejects |s| = k - 1");
                }
            }
            for bits in draws_at(i, k) {
                assert_eq!(core_magnitude(bits), k);
                assert!(!float_core_test(bits), "layer {i}: accepts |s| = k");
            }
        }
        // The top layer has no core; every other layer's core is most
        // of its width.
        assert_eq!(t.k[LAYERS - 1], 0);
        for i in 0..LAYERS - 1 {
            assert!(t.k[i] > 1 << 51, "layer {i}: threshold {}", t.k[i]);
        }
    }

    /// A generator that returns scripted words, counting how many it
    /// gave out; it panics when the script runs out.
    struct Script {
        words: Vec<u64>,
        used: usize,
    }

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.used += 1;
            self.words[self.used - 1]
        }
    }

    /// Runs one draw and one skipped draw over `words`, checks that both
    /// consume `want` words, and returns the draw.
    fn draw_and_skip(words: &[u64], want: usize) -> f64 {
        let mut drawn = Script {
            words: words.to_vec(),
            used: 0,
        };
        let value = standard_normal(&mut drawn);
        let mut skipped = Script {
            words: words.to_vec(),
            used: 0,
        };
        skip_standard_normals(&mut skipped, 1);
        assert_eq!(drawn.used, want, "standard_normal over {words:x?}");
        assert_eq!(skipped.used, want, "skip_standard_normals over {words:x?}");
        value
    }

    #[test]
    fn skip_consumes_the_words_of_the_draw_on_every_path() {
        let t = tables();
        let layer = 100;
        let k = t.k[layer];
        let core_accept = draws_at(layer, 0)[0];

        // Core accept at |s| = k - 1 (both signs); core reject at k, where
        // the wedge draws a height word: the highest word (a height near
        // f(x[i])) accepts, and the lowest (height f(x[i+1]) ≥ f(x))
        // rejects, so a fresh word starts over.
        for bits in draws_at(layer, k - 1) {
            let value = draw_and_skip(&[bits], 1);
            assert!(value.abs() < t.x[layer + 1]);
        }
        for bits in draws_at(layer, k) {
            let value = draw_and_skip(&[bits, u64::MAX], 2);
            assert!(value.abs() >= t.x[layer + 1]);
            draw_and_skip(&[bits, 0, core_accept], 3);
        }

        // Wedge accept and reject midway between the core and the edge.
        let wedge = draws_at(layer, k + ((1 << 52) - k) / 2)[1];
        let value = draw_and_skip(&[wedge, u64::MAX], 2);
        assert!(value.abs() >= t.x[layer + 1] && value.abs() < t.x[layer]);
        draw_and_skip(&[wedge, 0, core_accept], 3);

        // The top layer, which has no core: every draw is a wedge draw.
        draw_and_skip(&[draws_at(LAYERS - 1, 1 << 40)[0], u64::MAX], 2);

        // Layer-0 tail beyond R: a zero word retries inside `open01`, a
        // pair with a large exponential rejects, then a pair accepts.
        let tail = draws_at(0, t.k[0])[1];
        let value = draw_and_skip(&[tail, 0, 1 << 11, u64::MAX, 1 << 62, 1 << 63], 6);
        assert!(value > NORM_R, "positive tail draw {value}");
        let tail = draws_at(0, 1 << 52)[0];
        let value = draw_and_skip(&[tail, 1 << 62, 1 << 63], 3);
        assert!(value < -NORM_R, "negative tail draw {value}");
    }

    #[test]
    fn skipping_zero_draws_consumes_nothing() {
        let mut script = Script {
            words: Vec::new(),
            used: 0,
        };
        skip_standard_normals(&mut script, 0);
        assert_eq!(script.used, 0);
    }

    #[test]
    fn fill_matches_sequential_draws() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut buf = [0.0; 257];
        fill_standard_normal(&mut a, &mut buf);
        for &v in &buf {
            assert_eq!(v.to_bits(), standard_normal(&mut b).to_bits());
        }
    }
}
