//! Shapes and exact rational throughputs (Tbl. 1 of the paper).

use serde::{Deserialize, Serialize};

/// A data shape `[points, attributes]` — the paper's `i_shape`/`o_shape`
/// tuples (e.g. `[1, 3]` is one xyz point, `[4, 3]` is four points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Number of points (`x` in the paper's `[x, y]`).
    pub points: u32,
    /// Attributes per point (`y`).
    pub attrs: u32,
}

impl Shape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(points: u32, attrs: u32) -> Self {
        assert!(points > 0 && attrs > 0, "shape dimensions must be positive");
        Shape { points, attrs }
    }

    /// Total elements (`points × attrs`).
    pub fn elements(&self) -> u64 {
        self.points as u64 * self.attrs as u64
    }
}

/// An exact non-negative rational, used for throughputs (ρ/f elements per
/// cycle). Exact arithmetic keeps the ILP constraint coefficients free of
/// float drift.
///
/// # Examples
///
/// ```
/// use streamgrid_dataflow::Rate;
///
/// let tau = Rate::new(12, 8); // 12 elements every 8 cycles
/// assert_eq!(tau, Rate::new(3, 2));
/// assert_eq!(tau.as_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Rate {
    num: i64,
    den: i64,
}

impl Rate {
    /// Creates `num / den`, reduced to lowest terms (zero is `0 / 1`).
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or either part is negative.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "zero denominator");
        assert!(num >= 0 && den > 0, "rates must be non-negative");
        let g = gcd(num, den);
        Rate {
            num: num / g,
            den: den / g,
        }
    }

    /// Zero.
    pub const ZERO: Rate = Rate { num: 0, den: 1 };

    /// One element per cycle.
    pub const ONE: Rate = Rate { num: 1, den: 1 };

    /// Numerator after reduction.
    pub fn num(&self) -> i64 {
        self.num
    }

    /// Denominator after reduction.
    pub fn den(&self) -> i64 {
        self.den
    }

    /// The rate as a float.
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `true` when the rate is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Multiplies by an integer.
    pub fn scale(&self, k: i64) -> Rate {
        assert!(k >= 0, "negative scale");
        Rate::new(self.num * k, self.den)
    }

    /// Divides by an integer.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn div(&self, k: i64) -> Rate {
        assert!(k > 0, "divisor must be positive");
        Rate::new(self.num, self.den * k)
    }

    /// Exact reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn recip(&self) -> Rate {
        assert!(self.num > 0, "reciprocal of zero rate");
        Rate {
            num: self.den,
            den: self.num,
        }
    }

    /// Cycles needed to move `elements` at this rate, rounded up.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn cycles_for(&self, elements: u64) -> u64 {
        assert!(self.num > 0, "zero rate never finishes");
        let num = elements as i128 * self.den as i128;
        let den = self.num as i128;
        ((num + den - 1) / den) as u64
    }
}

impl PartialEq for Rate {
    fn eq(&self, other: &Self) -> bool {
        self.num as i128 * other.den as i128 == other.num as i128 * self.den as i128
    }
}

impl Eq for Rate {}

impl PartialOrd for Rate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.num as i128 * other.den as i128).cmp(&(other.num as i128 * self.den as i128))
    }
}

/// The integer allowance discipline of a [`Rate`]: a side moving
/// `num / den` elements per cycle is allowed exactly `⌊k·num/den⌋`
/// elements after `k` steps, never a fraction. The rate is pre-split
/// into its whole and fractional parts so a step needs no division. The
/// caller keeps the phase (`k·num mod den`), so one accumulator serves
/// every track that moves at its rate. The execution engines and the
/// certifier both step allowances through this type, so they cannot
/// drift apart.
///
/// # Examples
///
/// ```
/// use streamgrid_dataflow::{Rate, RateAcc};
///
/// let acc = RateAcc::new(Rate::new(3, 2));
/// let mut phase = 0;
/// let steps: Vec<u64> = (0..4).map(|_| acc.step(&mut phase)).collect();
/// assert_eq!(steps, [1, 2, 1, 2]);
/// assert_eq!(acc.period(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RateAcc {
    /// `num / den`: elements every step emits.
    whole: u64,
    /// `num % den`: what the phase gains each step.
    frac: u64,
    den: u64,
}

impl RateAcc {
    /// The accumulator of `rate`.
    pub fn new(rate: Rate) -> Self {
        let (num, den) = (rate.num as u64, rate.den as u64);
        RateAcc {
            whole: num / den,
            frac: num % den,
            den,
        }
    }

    /// Steps after which the phase repeats: `den`, since a [`Rate`] is
    /// always reduced.
    pub fn period(&self) -> u64 {
        self.den
    }

    /// Elements this step emits; advances `phase`, which stays `< den`.
    #[inline]
    pub fn step(&self, phase: &mut u64) -> u64 {
        *phase += self.frac;
        if *phase >= self.den {
            *phase -= self.den;
            self.whole + 1
        } else {
            self.whole
        }
    }

    /// Elements `steps` consecutive [`RateAcc::step`]s emit, in closed
    /// form: `steps · whole` plus one for each time the phase wraps.
    /// Leaves `phase` where those steps would, so a caller can jump a
    /// track across a stretch it need not visit and step on from there.
    ///
    /// # Examples
    ///
    /// ```
    /// use streamgrid_dataflow::{Rate, RateAcc};
    ///
    /// let acc = RateAcc::new(Rate::new(3, 2));
    /// let (mut stepped, mut jumped) = (1, 1);
    /// let emitted: u64 = (0..5).map(|_| acc.step(&mut stepped)).sum();
    /// assert_eq!(acc.advance(&mut jumped, 5), emitted);
    /// assert_eq!((emitted, jumped), (8, stepped));
    /// ```
    pub fn advance(&self, phase: &mut u64, steps: u64) -> u64 {
        let acc = *phase as u128 + steps as u128 * self.frac as u128;
        let den = self.den as u128;
        *phase = (acc % den) as u64;
        (steps as u128 * self.whole as u128 + acc / den) as u64
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Rate::new(6, 4);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 2);
    }

    #[test]
    fn zero_rate() {
        let z = Rate::new(0, 5);
        assert!(z.is_zero());
        assert_eq!(z.as_f64(), 0.0);
        assert_eq!((z.num(), z.den()), (0, 1));
    }

    #[test]
    fn ordering() {
        assert!(Rate::new(1, 2) < Rate::new(2, 3));
        assert_eq!(Rate::new(2, 4), Rate::new(1, 2));
        assert!(Rate::new(3, 1) > Rate::ONE);
    }

    #[test]
    fn cycles_for_rounds_up() {
        // 3 elements every 2 cycles → 10 elements need ceil(20/3) = 7.
        let r = Rate::new(3, 2);
        assert_eq!(r.cycles_for(10), 7);
        assert_eq!(r.cycles_for(0), 0);
        assert_eq!(Rate::ONE.cycles_for(42), 42);
    }

    #[test]
    fn scale_and_div() {
        let r = Rate::new(1, 2);
        assert_eq!(r.scale(4), Rate::new(2, 1));
        assert_eq!(r.div(2), Rate::new(1, 4));
        assert_eq!(r.recip(), Rate::new(2, 1));
    }

    /// Every rate `num/den` with `den` up to 7 and up to three elements
    /// per cycle, from every phase, over 0 to 40 steps: one jump emits
    /// what the steps emit and leaves the same phase.
    #[test]
    fn advance_matches_repeated_steps() {
        for den in 1..=7 {
            for num in 0..=3 * den {
                let acc = RateAcc::new(Rate::new(num, den));
                for start in 0..acc.period() {
                    let mut stepped = start;
                    let mut emitted = 0;
                    for steps in 0..=40 {
                        let mut jumped = start;
                        assert_eq!(
                            acc.advance(&mut jumped, steps),
                            emitted,
                            "{num}/{den} from phase {start}, {steps} steps"
                        );
                        assert_eq!(jumped, stepped, "{num}/{den} from phase {start}");
                        emitted += acc.step(&mut stepped);
                    }
                }
            }
        }
    }

    #[test]
    fn shape_elements() {
        assert_eq!(Shape::new(4, 3).elements(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shape_panics() {
        let _ = Shape::new(0, 3);
    }
}
