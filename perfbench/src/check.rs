//! Correctness checks: every workload's outputs against the benchmark's
//! own exact computation, or against the sampling law the method must
//! have. Each check has a self-test that plants a wrong answer.

use pts_util::stats::chi_square_test;
use std::collections::BTreeMap;
use std::fmt;

/// A law test rejects when its χ² p-value falls below this. Every run
/// makes at most one law test, so a correct sampler fails about one run
/// in a million, while the planted wrong laws below score p-values under
/// 1e-30.
pub const LAW_P_MIN: f64 = 1e-6;

/// An index whose expected count reaches this has a cell of its own;
/// lighter indices are pooled (the textbook rule for the χ² approximation).
pub const LAW_MIN_EXPECTED: f64 = 5.0;

/// Relative tolerance of a reported mass against the exact one.
pub const MASS_REL_TOL: f64 = 1e-9;

/// A failed check, named.
#[derive(Debug)]
pub struct CheckFailure {
    pub check: &'static str,
    pub detail: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

pub fn fail(check: &'static str, detail: String) -> Result<(), CheckFailure> {
    Err(CheckFailure { check, detail })
}

/// Keeps the first check failure of a run; outputs are checked as they
/// arrive, so the run keeps no per-operation record.
#[derive(Debug, Default)]
pub struct Verdict(Option<CheckFailure>);

impl Verdict {
    pub fn note(&mut self, result: Result<(), CheckFailure>) {
        if let (None, Err(f)) = (&self.0, result) {
            self.0 = Some(f);
        }
    }

    pub fn take(&mut self) -> Result<(), CheckFailure> {
        self.0.take().map_or(Ok(()), Err)
    }
}

/// Observed and expected draw counts per index.
#[derive(Debug, Clone)]
pub struct Law {
    observed: Vec<u64>,
    expected: Vec<f64>,
}

impl Law {
    /// A law over the universe `[0, n)`.
    pub fn new(n: usize) -> Self {
        Self {
            observed: vec![0; n],
            expected: vec![0.0; n],
        }
    }

    /// Adds one draw from the L_p law of `x` as it stands at draw time
    /// (index `i` with probability `|x_i|^p / Σ_j |x_j|^p`); `drawn` is the
    /// index returned.
    pub fn add(&mut self, x: &[i64], p: i32, drawn: u64) {
        let weight = |v: i64| (v.unsigned_abs() as f64).powi(p);
        let total: f64 = x.iter().map(|&v| weight(v)).sum();
        for (e, &v) in self.expected.iter_mut().zip(x) {
            *e += weight(v) / total;
        }
        self.observed[drawn as usize] += 1;
    }

    /// Pearson χ² of observed against expected counts. Every index whose
    /// expected count reaches [`LAW_MIN_EXPECTED`] is a cell of its own;
    /// the lighter ones are pooled by the power-of-two class of their
    /// expected count (for a fixed vector, their magnitude class), and
    /// `chi_square_test` pools whatever is still light into one cell.
    pub fn test(&self, check: &'static str) -> Result<(), CheckFailure> {
        let draws: u64 = self.observed.iter().sum();
        if draws == 0 {
            return fail(check, "no draw returned an index".into());
        }
        let (mut observed, mut expected) = (Vec::new(), Vec::new());
        let mut pooled: BTreeMap<i32, (u64, f64)> = BTreeMap::new();
        for (&o, &e) in self.observed.iter().zip(&self.expected) {
            if e >= LAW_MIN_EXPECTED {
                observed.push(o);
                expected.push(e);
            } else {
                let class = if e > 0.0 {
                    e.log2().floor() as i32
                } else {
                    i32::MIN
                };
                let cell = pooled.entry(class).or_default();
                cell.0 += o;
                cell.1 += e;
            }
        }
        let singles = observed.len();
        for (o, e) in pooled.into_values() {
            observed.push(o);
            expected.push(e);
        }
        let chi = chi_square_test(&observed, &expected, LAW_MIN_EXPECTED);
        if chi.p_value < LAW_P_MIN {
            // The single-index cell that deviates most, to name in the failure.
            let dev = |i: usize| {
                let (o, e) = (self.observed[i] as f64, self.expected[i]);
                (o - e) * (o - e) / e
            };
            let worst = (0..self.expected.len())
                .filter(|&i| self.expected[i] >= LAW_MIN_EXPECTED)
                .max_by(|&a, &b| dev(a).total_cmp(&dev(b)))
                .map(|i| (i, self.observed[i], self.expected[i].round()));
            return fail(
                check,
                format!(
                    "chi2 {:.2} on {} dof, p = {:.3e} < {LAW_P_MIN:e} over {draws} draws \
                     ({singles} single-index cells; worst index, observed, expected: {:?})",
                    chi.statistic, chi.dof, chi.p_value, worst
                ),
            );
        }
        Ok(())
    }
}

/// The sorted sparse `(index, value)` entries of a dense vector.
pub fn entries(x: &[i64]) -> Vec<(u64, i64)> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| **v != 0)
        .map(|(i, v)| (i as u64, *v))
        .collect()
}

/// A snapshot's sorted sparse entries equal the exact vector.
pub fn snapshot_matches(entries: &[(u64, i64)], exact: &[i64]) -> Result<(), CheckFailure> {
    let want = self::entries(exact);
    if entries.len() != want.len() {
        return fail(
            "snapshot",
            format!("{} entries, expected {}", entries.len(), want.len()),
        );
    }
    if let Some((got, exp)) = entries.iter().zip(&want).find(|(g, w)| g != w) {
        return fail("snapshot", format!("entry {got:?}, expected {exp:?}"));
    }
    Ok(())
}

/// A drawn index lies in the support of `x` at draw time.
pub fn in_support(check: &'static str, index: u64, x: &[i64]) -> Result<(), CheckFailure> {
    match x.get(index as usize) {
        Some(v) if *v != 0 => Ok(()),
        Some(_) => fail(check, format!("index {index} drawn where x_i = 0")),
        None => fail(
            check,
            format!("index {index} outside the universe {}", x.len()),
        ),
    }
}

/// A reported mass matches the exact one to [`MASS_REL_TOL`].
pub fn mass_matches(check: &'static str, got: f64, exact: f64) -> Result<(), CheckFailure> {
    let rel = (got - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
    if rel > MASS_REL_TOL {
        return fail(
            check,
            format!("mass {got}, exact {exact} (relative {rel:e})"),
        );
    }
    Ok(())
}

/// A tenant's L0 draw: the index is in that tenant's support and the
/// estimate is its exact value.
pub fn tenant_sample(ns: u64, index: u64, estimate: f64, x: &[i64]) -> Result<(), CheckFailure> {
    in_support("tenant sample support", index, x)?;
    let exact = x[index as usize] as f64;
    if estimate != exact {
        return fail(
            "tenant sample value",
            format!("namespace {ns} index {index}: estimate {estimate}, exact {exact}"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vector with values spread over several magnitude classes.
    fn spread() -> Vec<i64> {
        (0..512).map(|i| 1 + (i % 9) * (i % 9) * (i % 9)).collect()
    }

    /// A zipf-like vector: `500 / r` at rank `r`.
    fn zipf() -> Vec<i64> {
        (1..=64)
            .map(|r| (500.0 / r as f64).round() as i64)
            .collect()
    }

    /// `draws` draws from the L_p law of `x`, each index drawn in exact
    /// proportion (rounded) to its probability.
    fn exact_draws(x: &[i64], p: i32, draws: f64) -> Vec<u64> {
        let w: Vec<f64> = x
            .iter()
            .map(|v| (v.unsigned_abs() as f64).powi(p))
            .collect();
        let total: f64 = w.iter().sum();
        (0..x.len() as u64)
            .flat_map(|i| {
                std::iter::repeat(i).take((draws * w[i as usize] / total).round() as usize)
            })
            .collect()
    }

    fn law_of(x: &[i64], p: i32, drawn: &[u64]) -> Law {
        let mut law = Law::new(x.len());
        for &i in drawn {
            law.add(x, p, i);
        }
        law
    }

    #[test]
    fn law_test_accepts_the_true_law() {
        let x = spread();
        assert!(law_of(&x, 2, &exact_draws(&x, 2, 3000.0))
            .test("law")
            .is_ok());
        let x = zipf();
        assert!(law_of(&x, 3, &exact_draws(&x, 3, 3000.0))
            .test("law")
            .is_ok());
    }

    #[test]
    fn law_test_rejects_a_uniform_law_offered_as_l2() {
        let x = spread();
        // Uniform draws: every coordinate equally likely.
        let uniform: Vec<u64> = (0..5).flat_map(|_| 0..x.len() as u64).collect();
        assert!(law_of(&x, 2, &uniform).test("law").is_err());
    }

    #[test]
    fn law_test_rejects_a_uniform_law_offered_as_l3() {
        let x = spread();
        let uniform: Vec<u64> = (0..100).collect();
        assert!(law_of(&x, 3, &uniform).test("law").is_err());
    }

    #[test]
    fn law_test_rejects_two_indices_of_one_magnitude_swapped() {
        // Indices 1 and 2 (250 and 220) share a magnitude class, and their
        // expected counts (about 3070 and 2380) share a power-of-two class,
        // so only a test with a cell per index tells them apart.
        let mut x = zipf();
        x[2] = 220;
        // The true L2 law, except that every draw of index 1 returns
        // index 2 and the other way round.
        let swapped: Vec<u64> = exact_draws(&x, 2, 20_000.0)
            .into_iter()
            .map(|i| match i {
                1 => 2,
                2 => 1,
                i => i,
            })
            .collect();
        assert!(law_of(&x, 2, &swapped).test("law").is_err());
    }

    #[test]
    fn snapshot_check_rejects_one_entry_off_by_one() {
        let x = vec![0, 5, -3, 0, 7];
        let good = [(1, 5), (2, -3), (4, 7)];
        assert!(snapshot_matches(&good, &x).is_ok());
        let bad = [(1, 5), (2, -2), (4, 7)];
        assert!(snapshot_matches(&bad, &x).is_err());
        assert!(snapshot_matches(&good[..2], &x).is_err());
    }

    #[test]
    fn support_check_rejects_an_index_outside_the_support() {
        let x = vec![0, 5, -3, 0];
        assert!(in_support("s", 1, &x).is_ok());
        assert!(in_support("s", 3, &x).is_err());
        assert!(in_support("s", 4, &x).is_err());
    }

    #[test]
    fn tenant_check_rejects_a_sample_from_another_tenant() {
        let a = vec![0, 4, 0, -2];
        let b = [3, 4, 0, -1];
        assert!(tenant_sample(1, 3, -2.0, &a).is_ok());
        // Drawn from tenant b: index 0 is outside a's support, and index 3
        // carries b's value.
        assert!(tenant_sample(1, 0, b[0] as f64, &a).is_err());
        assert!(tenant_sample(1, 3, b[3] as f64, &a).is_err());
    }

    #[test]
    fn mass_check_rejects_a_relative_error_above_tolerance() {
        assert!(mass_matches("m", 1e12 + 1e2, 1e12).is_ok());
        assert!(mass_matches("m", 1e12 + 1e4, 1e12).is_err());
    }
}
