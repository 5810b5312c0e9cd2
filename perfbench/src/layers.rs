//! The workloads and the metric registry. The registry is `BENCHMARK.json`
//! at the repository root, compiled in: a run prints exactly the metrics
//! listed there, in its order and with its units. The layer → end-to-end
//! metric → workload map is in `perfbench/README.md`.

use locec_obs::json::Value;
use std::collections::BTreeMap;

/// The full LoCEC-XGB batch pipeline on a ~20k-user world.
pub const OFFLINE_XGB: &str = "offline_xgb";
/// The same pipeline with LoCEC-CNN on a ~5k-user world.
pub const OFFLINE_CNN: &str = "offline_cnn";
/// The serve daemon answering reads beside live graph updates.
pub const SERVE_LIVE: &str = "serve_live";

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric: its name and unit as printed.
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
}

/// The metrics `BENCHMARK.json` lists under `key` (`"end_to_end"` or
/// `"per_layer"`).
pub fn registry(key: &str) -> Result<Vec<Metric>, String> {
    let json = Value::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    json.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
            match (field("name"), field("unit")) {
                (Some(name), Some(unit)) => Ok(Metric { name, unit }),
                _ => Err(format!("BENCHMARK.json: a {key} entry lacks name or unit")),
            }
        })
        .collect()
}

/// Metric values collected by a workload, keyed by registry name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric; a value that is not finite reads 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every name set here.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// Names set here that `registry` does not list.
    pub fn unknown(&self, registry: &[Metric]) -> Vec<&'static str> {
        self.0
            .keys()
            .filter(|k| !registry.iter().any(|m| m.name == **k))
            .copied()
            .collect()
    }

    /// `(name, value, unit)` for every metric of `registry`, in registry
    /// order; metrics this workload does not exercise read 0.
    pub fn render(&self, registry: &[Metric]) -> Vec<(String, f64, String)> {
        registry
            .iter()
            .map(|m| {
                let value = self.get(&m.name).unwrap_or(0.0);
                (m.name.clone(), value, m.unit.clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_reads_both_lists() {
        let e2e = registry("end_to_end").unwrap();
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!registry("per_layer").unwrap().is_empty());
        assert!(registry("nope").is_err());
    }

    #[test]
    fn render_fills_unexercised_metrics_with_zero() {
        let e2e = registry("end_to_end").unwrap();
        let mut v = Values::default();
        v.set("edge_f1", 0.9);
        v.set("freshness_s", f64::NAN);
        let out = v.render(&e2e);
        assert_eq!(out.len(), e2e.len());
        assert!(out.iter().any(|(n, x, _)| n == "edge_f1" && *x == 0.9));
        assert!(out.iter().any(|(n, x, _)| n == "freshness_s" && *x == 0.0));
        v.set("nope", 1.0);
        assert_eq!(v.unknown(&e2e), vec!["nope"]);
    }
}
