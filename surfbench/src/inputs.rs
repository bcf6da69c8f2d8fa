//! Every input the benchmark feeds the program, generated from the run's seed: the
//! datasets and paper-default configuration, the schedule of mining thresholds, and the
//! stream of `/predict` and `/mine` requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_core::objective::Threshold;
use surf_core::SurfConfig;
use surf_data::region::Region;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_serve::routes::{MineRequest, PredictRequest, RegionSpec, ThresholdSpec};

/// The paper's density threshold `y_R`; mining thresholds are drawn around it.
pub const REFERENCE_THRESHOLD: f64 = 1000.0;
/// Thresholds are drawn uniformly from `REFERENCE_THRESHOLD ± THRESHOLD_SPREAD`.
pub const THRESHOLD_SPREAD: f64 = 100.0;
/// Name the served model is registered under.
pub const MODEL: &str = "bench";
/// Every `BATCH_EVERY`-th `/predict` request carries `BATCH_REGIONS` regions; the rest
/// carry one.
const BATCH_EVERY: usize = 4;
const BATCH_REGIONS: usize = 8;

/// Derives an independent stream seed from the run seed (SplitMix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The density dataset of dimensionality `d`: `SyntheticSpec::density(d, 1)`, 10,000
/// points, one planted region.
pub fn dataset(seed: u64, d: usize) -> SyntheticDataset {
    SyntheticDataset::generate(&SyntheticSpec::density(d, 1).with_seed(derive(seed, d as u64)))
}

/// The paper-default configuration: 2,000 training queries, GBRT 100 x 7, GSO 100 x 100,
/// KDE sample 2,000, automatic threads.
pub fn config(seed: u64) -> SurfConfig {
    SurfConfig::builder()
        .threshold(Threshold::above(REFERENCE_THRESHOLD))
        .seed(derive(seed, 10))
        .build()
}

/// The seeded schedule of `len` mining thresholds, whole numbers around `y_R`.
pub fn thresholds(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 11));
    (0..len)
        .map(|_| {
            (REFERENCE_THRESHOLD + rng.random_range(-THRESHOLD_SPREAD..=THRESHOLD_SPREAD)).round()
        })
        .collect()
}

/// One pre-rendered `/predict` request: its complete HTTP bytes. Only the bytes are
/// kept, so the stream's memory stays small next to the program's; the body and regions
/// are read back from them for the checks.
pub struct PredictCall {
    pub bytes: Vec<u8>,
}

impl PredictCall {
    pub fn body(&self) -> &str {
        let text = std::str::from_utf8(&self.bytes).expect("rendered as UTF-8");
        text.split_once("\r\n\r\n").map_or("", |(_, body)| body)
    }

    /// The request's regions, in request order.
    pub fn regions(&self) -> Vec<Region> {
        let request: PredictRequest = serde_json::from_str(self.body()).expect("own body parses");
        request
            .region
            .into_iter()
            .chain(request.regions.unwrap_or_default())
            .map(|spec| spec.to_region().expect("own regions are valid"))
            .collect()
    }
}

/// A stream of `count` `/predict` requests over unique `d`-dimensional regions whose half
/// side lengths cover 1–15 % of the unit domain; one in [`BATCH_EVERY`] is a batch.
pub fn predict_calls(seed: u64, stream: u64, count: usize, d: usize) -> Vec<PredictCall> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 20 + stream));
    (0..count)
        .map(|i| {
            let size = if i % BATCH_EVERY == BATCH_EVERY - 1 {
                BATCH_REGIONS
            } else {
                1
            };
            let regions: Vec<Region> = (0..size)
                .map(|_| {
                    let center: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
                    let half: Vec<f64> = (0..d).map(|_| rng.random_range(0.01..=0.15)).collect();
                    Region::new(center, half).expect("positive half lengths")
                })
                .collect();
            let specs: Vec<RegionSpec> = regions.iter().map(RegionSpec::from_region).collect();
            let (region, batch) = if size == 1 {
                (specs.into_iter().next(), None)
            } else {
                (None, Some(specs))
            };
            let body = serde_json::to_string(&PredictRequest {
                model: MODEL.to_string(),
                region,
                regions: batch,
            })
            .expect("request serializes");
            PredictCall {
                bytes: http_post("/predict", &body),
            }
        })
        .collect()
}

/// The `/mine` request for one threshold, with its HTTP head.
pub fn mine_call(threshold: f64) -> Vec<u8> {
    http_post("/mine", &mine_body(threshold))
}

/// The `/mine` body for one threshold.
pub fn mine_body(threshold: f64) -> String {
    serde_json::to_string(&MineRequest {
        model: MODEL.to_string(),
        threshold: Some(ThresholdSpec {
            value: threshold,
            direction: "above".to_string(),
        }),
        top: None,
    })
    .expect("request serializes")
}

pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(thresholds(3, 6), thresholds(3, 6));
        assert_ne!(thresholds(3, 6), thresholds(4, 6));
        assert!(thresholds(5, 50)
            .iter()
            .all(|t| (t - REFERENCE_THRESHOLD).abs() <= THRESHOLD_SPREAD && t.fract() == 0.0));
        let a = predict_calls(1, 0, 8, 2);
        let b = predict_calls(1, 0, 8, 2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.bytes == y.bytes));
        assert_eq!(a[3].regions().len(), BATCH_REGIONS);
        assert_eq!(a[0].regions().len(), 1);
        assert!(a[0].body().starts_with('{') && a[0].body().ends_with('}'));
        assert_ne!(predict_calls(1, 1, 1, 2)[0].bytes, a[0].bytes);
        assert_eq!(predict_calls(1, 0, 1, 4)[0].regions()[0].dimensions(), 4);
        assert_eq!(dataset(2, 2).dataset.len(), dataset(2, 2).dataset.len());
        assert_eq!(dataset(2, 2).ground_truth, dataset(2, 2).ground_truth);
        assert_ne!(dataset(2, 2).ground_truth, dataset(3, 2).ground_truth);
    }
}
