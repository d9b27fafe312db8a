//! Order statistics for latency samples.

/// Fewest samples a reported percentile must leave above it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`.
///
/// Refuses (returns `Err`) unless at least [`MIN_BEYOND`] samples lie
/// beyond the chosen rank, so a tail figure is never read off a handful
/// of points.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it; {n} samples leave {}",
            q * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Chunk sizes: throughput and p50 are taken over chunks of at least
/// `RATE_CHUNK` samples, p99 over chunks of at least `TAIL_CHUNK` (enough
/// for 10 samples beyond it); at most `MAX_CHUNKS` of either.
const RATE_CHUNK: usize = 250;
const TAIL_CHUNK: usize = 1000;
const MAX_CHUNKS: usize = 20;

/// Closed-loop figures of one timed pass.
#[derive(Debug, PartialEq)]
pub struct Chunked {
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
    /// Throughput of each rate chunk, in order.
    pub rates: Vec<f64>,
}

/// Consecutive chunks of at least `min` items (at most [`MAX_CHUNKS`]).
fn chunks<T>(items: &[T], min: usize) -> Vec<&[T]> {
    let count = (items.len() / min).clamp(1, MAX_CHUNKS);
    let size = items.len() / count;
    (0..count)
        .map(|c| {
            let end = if c + 1 == count {
                items.len()
            } else {
                (c + 1) * size
            };
            &items[c * size..end]
        })
        .collect()
}

/// Cuts a pass into consecutive chunks and reports the median over
/// chunks of each chunk's throughput, p50 and p99. A burst of load from
/// outside the benchmark then moves a chunk or two, not the figure.
///
/// `done_s` is when each request completed, in seconds since the pass
/// started; `latencies` and `positions` (stream positions) are aligned
/// with it. With no `span_starts`, throughput and p50 chunks are runs of
/// at least [`RATE_CHUNK`] completions. Otherwise chunk `j` holds the
/// requests at positions `span_starts[j]..span_starts[j + 1]`: with a
/// reload sent at each span start, every chunk then carries one reload's
/// stall and the refill after it, and the median keeps that cost. p99
/// chunks are always runs of at least [`TAIL_CHUNK`] completions.
pub fn chunked(
    done_s: &[f64],
    latencies: &[f64],
    positions: &[usize],
    span_starts: &[usize],
) -> Result<Chunked, String> {
    let mut samples: Vec<(f64, f64, usize)> = done_s
        .iter()
        .zip(latencies)
        .zip(positions)
        .map(|((&done, &latency), &position)| (done, latency, position))
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let pairs: Vec<(f64, f64)> = samples.iter().map(|s| (s.0, s.1)).collect();
    let rate_chunks: Vec<Vec<(f64, f64)>> = if span_starts.is_empty() {
        chunks(&pairs, RATE_CHUNK)
            .into_iter()
            .map(<[(f64, f64)]>::to_vec)
            .collect()
    } else {
        let mut spans = vec![Vec::new(); span_starts.len()];
        for &(done, latency, position) in &samples {
            let span = span_starts.partition_point(|&b| b <= position);
            spans[span.saturating_sub(1)].push((done, latency));
        }
        spans
    };
    let latencies_of = |chunk: &[(f64, f64)]| chunk.iter().map(|p| p.1).collect::<Vec<f64>>();
    let (mut rates, mut p50s, mut since) = (Vec::new(), Vec::new(), 0.0);
    for (c, chunk) in rate_chunks.iter().enumerate() {
        let until = chunk.last().map_or(since, |p| p.0);
        if until <= since {
            return Err(format!(
                "chunk {c} has no requests completed after the one before"
            ));
        }
        rates.push(chunk.len() as f64 / (until - since));
        since = until;
        p50s.push(median(&latencies_of(chunk)));
    }
    let p99s = chunks(&pairs, TAIL_CHUNK)
        .into_iter()
        .map(|chunk| percentile(&latencies_of(chunk), 0.99))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Chunked {
        throughput: median(&rates),
        p50: median(&p50s),
        p99: median(&p99s),
        rates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990.0));
        assert!(percentile(&samples[..5], 0.5).is_err());
        assert_eq!(percentile(&samples[..100], 0.5), Ok(50.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.99), Ok(1980.0));
    }

    #[test]
    fn chunked_figures_ignore_one_disturbed_chunk() {
        // 5,000 requests, one per millisecond at 2 ms each, except the
        // third chunk, which runs ten times slower.
        let (mut done, mut lat, mut t) = (Vec::new(), Vec::new(), 0.0);
        for i in 0..5000 {
            let slow = (2000..3000).contains(&i);
            t += if slow { 0.01 } else { 0.001 };
            done.push(t);
            lat.push(if slow { 20.0 } else { 2.0 });
        }
        let positions: Vec<usize> = (0..5000).collect();
        let c = chunked(&done, &lat, &positions, &[]).unwrap();
        assert_eq!(c.rates.len(), 20);
        assert!((c.throughput - 1000.0).abs() < 1e-6, "{c:?}");
        assert_eq!((c.p50, c.p99), (2.0, 2.0));
        assert!(chunked(&done[..999], &lat[..999], &positions[..999], &[]).is_err());
    }

    /// 2,500 requests at one per millisecond, with a stall of `stall_s`
    /// (a reload) before each block of 500.
    fn reloading_pass(stall_s: f64) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let (mut done, mut t) = (Vec::new(), 0.0);
        for i in 0..2500 {
            if i % 500 == 0 {
                t += stall_s;
            }
            t += 0.001;
            done.push(t);
        }
        (done, vec![2.0; 2500], (0..2500).collect())
    }

    #[test]
    fn span_aligned_chunks_keep_the_cost_of_every_reload() {
        let starts = [0, 500, 1000, 1500, 2000];
        let (done, lat, pos) = reloading_pass(0.4);
        let c = chunked(&done, &lat, &pos, &starts).unwrap();
        assert_eq!(c.rates.len(), 5);
        assert!((c.throughput - 500.0 / 0.9).abs() < 1e-6, "{c:?}");
        // Twice as slow a reload shows in the figure.
        let (done, lat, pos) = reloading_pass(0.8);
        let slower = chunked(&done, &lat, &pos, &starts).unwrap();
        assert!((slower.throughput - 500.0 / 1.3).abs() < 1e-6, "{slower:?}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
