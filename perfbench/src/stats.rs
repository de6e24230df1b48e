//! Order statistics.

/// The `q` quantile of `v` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn pctl(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    pctl(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::pctl;

    #[test]
    fn interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(pctl(&v, 0.0), 1.0);
        assert_eq!(pctl(&v, 1.0), 4.0);
        assert_eq!(pctl(&v, 0.5), 2.5);
        assert_eq!(pctl(&[], 0.5), 0.0);
    }
}
