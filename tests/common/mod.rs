//! Helpers shared by the golden tests that compare `pluto-profile/3`
//! documents across runs.

use pluto_obs::json::Json;

/// Zeroes what a clock decides, at any depth: every `total_ns`, `wall_ns`
/// and `sum_ns`, and the contents of every `buckets` array (a sample's
/// bucket is its latency's log2, so a loaded machine moves samples
/// between buckets; the `count` beside it stays pinned). Everything left
/// — phase paths and call counts, counter values, histogram names and
/// sample counts — is deterministic.
pub fn zero_timing(doc: &mut Json) {
    match doc {
        Json::Object(fields) => {
            for (key, value) in fields {
                match key.as_str() {
                    "total_ns" | "wall_ns" | "sum_ns" => *value = Json::Number(0.0),
                    "buckets" => *value = Json::Array(Vec::new()),
                    _ => zero_timing(value),
                }
            }
        }
        Json::Array(items) => items.iter_mut().for_each(zero_timing),
        _ => {}
    }
}
