//! Order statistics for timings.

/// The `q`-quantile (`0 < q ≤ 1`) by nearest rank: the smallest sample with
/// at least a share `q` of the samples at or below it. `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A time per repetition, summarised so that every draw weighs the same:
/// the mean over draws of each draw's median over its repetitions. Sample
/// `i` belongs to draw `i % draws`.
pub fn per_draw_mean(samples: &[f64], draws: usize) -> f64 {
    let draws = draws.min(samples.len()).max(1);
    let medians: Vec<f64> = (0..draws)
        .map(|d| {
            let of_draw: Vec<f64> = samples.iter().skip(d).step_by(draws).copied().collect();
            median(&of_draw)
        })
        .collect();
    medians.iter().sum::<f64>() / draws as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_above_p99_of_a_thousand() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&xs, 0.99);
        assert_eq!(p99, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(quantile(&xs, 0.5), 500.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn every_draw_weighs_the_same() {
        // Draw 0 ran three times, draw 1 twice: draw 0's extra runs do not
        // pull the result towards it.
        assert_eq!(per_draw_mean(&[1.0, 10.0, 3.0, 12.0, 2.0], 2), 6.5);
        assert_eq!(per_draw_mean(&[4.0, 1.0, 2.0], 1), 2.0);
        assert_eq!(per_draw_mean(&[5.0], 3), 5.0);
    }
}
