//! `service_mix`: one client in a closed loop against one
//! `plutod --cache-cap 32` child over stdio. Of the requests, 85 % repeat
//! one of 8 hot sources (source-memo hits), 8 % respell a hot source
//! (memo miss, then parse + dependences + content-key hit), 5 % draw
//! from a 48-source cold pool that does not fit the cache (misses with
//! FIFO evictions, which also push hot entries out), 2 % ask for `stats`.
//! Why: the same compile layers, used differently — JSON parsing and
//! serialization, profile aggregation and the schedule cache dominate by
//! request count, the search only on the misses; and reads sit beside
//! writes in one cache, so a faster hit path that slows inserts or
//! evictions (or the reverse) shows.

use crate::common::{Ctx, Tally};
use crate::gen::{self, Intent, Request, Requests};
use crate::layers::{self, Daemon};
use crate::proc::Plutod;
use crate::setup::{
    count_label, raw_string_value, response_ok, Inputs, CACHE_CAP, HOT_SOURCES, STREAM_REQUESTS,
};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// The class a latency sample is filed under: what the request was meant
/// to do, corrected by what the cache actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Exact-source repeat answered from the source memo.
    Hit,
    /// Respelled source answered through the content key.
    Content,
    /// Full compile (first sight of a cold source, or any source whose
    /// entry had been evicted).
    Miss,
    Stats,
}

fn classify(intent: Intent, label: Option<&str>) -> Option<Class> {
    match (intent, label) {
        (Intent::Stats, _) => Some(Class::Stats),
        (_, Some("miss")) => Some(Class::Miss),
        (Intent::Respelled, Some("hit")) => Some(Class::Content),
        (Intent::HotRepeat | Intent::Cold, Some("hit")) => Some(Class::Hit),
        _ => None,
    }
}

/// The request generator and response checker of one run; the piped and
/// the in-process variant each build one from the same seed, so both see
/// the same stream.
pub struct Stream {
    requests: Requests,
    /// Escaped `code` of the first response per source.
    first_code: Vec<Option<String>>,
    /// `cache` labels seen, warm-up included: (hits, misses).
    pub labels: (u64, u64),
    pub intents: [u64; 4],
}

impl Stream {
    pub fn new(ctx: &Ctx, inputs: &Inputs) -> Stream {
        let (hot, cold) = inputs.service_sources.split_at(HOT_SOURCES);
        let mut first_code: Vec<Option<String>> = vec![None; inputs.service_sources.len()];
        for (slot, code) in first_code.iter_mut().zip(&inputs.warm.hot_code) {
            *slot = Some(code.clone());
        }
        Stream {
            requests: Requests::new(ctx.seed, STREAM_REQUESTS, hot.to_vec(), cold.to_vec()),
            first_code,
            labels: inputs.warm.warmup_labels,
            intents: [0; 4],
        }
    }

    pub fn batch(&mut self, count: usize) -> Vec<Request> {
        let reqs = self.requests.batch(count);
        for r in &reqs {
            self.intents[r.intent as usize] += 1;
        }
        reqs
    }

    /// Checks one response and returns its class. A failure is
    /// `ok: false`, a missing label, or a `code` that differs from the
    /// first one served for the same source.
    fn check(&mut self, req: &Request, response: &str, tally: &mut Tally) -> Option<Class> {
        let ok = response_ok(response);
        if req.intent == Intent::Stats {
            tally.check(ok, || format!("stats request failed: {}", head(response)));
            return Some(Class::Stats);
        }
        let label = raw_string_value(response, "cache");
        count_label(&mut self.labels, label);
        let code = raw_string_value(response, "code");
        let first = &mut self.first_code[req.source];
        let same = match (first.as_deref(), code) {
            (_, None) => false,
            (Some(first), Some(code)) => first == code,
            (None, Some(code)) => {
                *first = Some(code.to_string());
                true
            }
        };
        let class = classify(req.intent, label);
        tally.check(ok && same && class.is_some(), || {
            format!(
                "compile request failed (ok {ok}, code same {same}): {}",
                head(response)
            )
        });
        class
    }
}

fn head(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

pub struct ServiceSamples {
    /// Latency, µs: request line written → response line read (piped),
    /// or around `handle_line` (in-process).
    pub hit_us: Vec<f64>,
    /// Respelled-source and miss latencies, µs, by shape of the source
    /// (`gen::SHAPES` strata).
    pub content_us: Vec<Vec<f64>>,
    pub miss_us: Vec<Vec<f64>>,
    pub stats_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub requests: u64,
    /// Wall time of the request loops, checks included.
    pub wall: Duration,
}

impl Default for ServiceSamples {
    fn default() -> ServiceSamples {
        ServiceSamples {
            hit_us: Vec::new(),
            content_us: vec![Vec::new(); gen::SHAPES],
            miss_us: vec![Vec::new(); gen::SHAPES],
            stats_us: Vec::new(),
            response_bytes: Vec::new(),
            requests: 0,
            wall: Duration::ZERO,
        }
    }
}

/// The p50 of a class whose latency depends on the program compiled:
/// the median within each shape of source, then the geometric mean over
/// the shapes that occurred. A plain median over all samples of such a
/// class sits between the clusters of cheap and dear shapes and jumps
/// from one to the other with the order of requests; this one moves only
/// when a shape's own median does.
pub fn stratified_p50(by_shape: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = by_shape
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    geomean(&medians)
}

impl ServiceSamples {
    fn file(&mut self, class: Option<Class>, source: usize, took: Duration, bytes: usize) {
        let us = took.as_secs_f64() * 1e6;
        match class {
            Some(Class::Hit) => self.hit_us.push(us),
            Some(Class::Content) => self.content_us[source % gen::SHAPES].push(us),
            Some(Class::Miss) => self.miss_us[source % gen::SHAPES].push(us),
            Some(Class::Stats) => self.stats_us.push(us),
            None => {}
        }
        self.response_bytes.push(bytes as f64);
        self.requests += 1;
    }

    pub fn serve_rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }
    pub fn hit_p50_us(&self) -> f64 {
        median(&self.hit_us)
    }
    pub fn hit_p90_us(&self) -> f64 {
        percentile(&self.hit_us, 90.0)
    }
    pub fn content_p50_ms(&self) -> f64 {
        stratified_p50(&self.content_us) / 1e3
    }
    pub fn miss_p50_ms(&self) -> f64 {
        stratified_p50(&self.miss_us) / 1e3
    }
}

/// Sends one batch through the pipe, closed loop.
pub fn batch(
    plutod: &mut Plutod,
    stream: &mut Stream,
    samples: &mut ServiceSamples,
    tally: &mut Tally,
) -> Result<(), String> {
    let requests = stream.batch(gen::BATCH);
    let mut response = String::new();
    let _same_cpu = plutod.share_cpu();
    let start = Instant::now();
    for req in &requests {
        let took = plutod.request(&req.line, &mut response)?;
        let class = stream.check(req, &response, tally);
        samples.file(class, req.source, took, response.len());
    }
    samples.wall += start.elapsed();
    Ok(())
}

/// The cache totals the daemon reports must be the ones the responses
/// implied: hits and misses equal the labels seen (warm-up included),
/// and every miss inserted an entry that is either resident or evicted.
fn check_totals(
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: u64,
    stream: &Stream,
    tally: &mut Tally,
) {
    let want = stream.labels;
    tally.check(
        (hits, misses) == want && evictions + entries == misses && entries <= CACHE_CAP as u64,
        || {
            format!(
                "stats say {hits} hits / {misses} misses / {evictions} evictions / {entries} entries, \
                 responses said {} hits / {} misses",
                want.0, want.1
            )
        },
    );
}

/// Asks the piped daemon for its totals and checks them.
pub fn finish(plutod: &mut Plutod, stream: &Stream, tally: &mut Tally) -> Result<(), String> {
    let mut response = String::new();
    plutod.request(&gen::stats_request(0), &mut response)?;
    let doc = layers::json_parse(&response)?;
    let field = |name: &str| layers::json_u64(&doc, &["result", "cache", name]);
    match (
        field("hits"),
        field("misses"),
        field("evictions"),
        field("entries"),
    ) {
        (Some(h), Some(m), Some(e), Some(n)) => check_totals(h, m, e, n, stream, tally),
        _ => tally.check(false, || {
            format!("stats response lacks cache totals: {}", head(&response))
        }),
    }
    Ok(())
}

pub struct ServiceTrace {
    pub in_process: ServiceSamples,
    pub cache: (u64, u64, u64),
    pub json_parse_us: f64,
    pub json_emit_us: f64,
}

/// The same request stream through `Daemon::handle_line` in this
/// process, a span per request, plus the cost of one request line and
/// one response document through the JSON layer.
pub fn trace(
    ctx: &Ctx,
    inputs: &Inputs,
    tr: &mut Tracer,
    count: usize,
    tally: &mut Tally,
) -> Result<ServiceTrace, String> {
    let daemon: Daemon = layers::daemon(CACHE_CAP);
    let mut stream = Stream::new(ctx, inputs);
    stream.labels = (0, 0);
    // The same warm-up the piped daemon got in set-up.
    let warm = inputs.kernels.iter().map(|k| &k.text);
    for (id, text) in warm
        .chain(&inputs.service_sources[..HOT_SOURCES])
        .enumerate()
    {
        let response = layers::handle_line(&daemon, &gen::compile_request(id as u64, text));
        count_label(&mut stream.labels, raw_string_value(&response, "cache"));
    }
    let mut samples = ServiceSamples::default();
    let requests = stream.batch(count);
    let (mut typical_request, mut typical_response) = (String::new(), String::new());
    let start = Instant::now();
    for req in &requests {
        let t = Instant::now();
        let response = tr.span("daemon.handle_line", req.id, |_| {
            layers::handle_line(&daemon, &req.line)
        });
        let took = t.elapsed();
        let class = stream.check(req, &response, tally);
        samples.file(class, req.source, took, response.len());
        if class == Some(Class::Hit) && typical_request.is_empty() {
            (typical_request, typical_response) = (req.line.clone(), response);
        }
    }
    samples.wall = start.elapsed();
    let (hits, misses, evictions) = layers::cache_totals(&daemon);
    let entries = layers::cache_entries(&daemon) as u64;
    check_totals(hits, misses, evictions, entries, &stream, tally);

    // One hot request line in, one hit response document out.
    let doc = layers::json_parse(&typical_response)?;
    let mut parse_us = Vec::new();
    let mut emit_us = Vec::new();
    for i in 0..200 {
        let t = Instant::now();
        let parsed = tr.span("obs.json_parse", i, |_| {
            layers::json_parse(&typical_request)
        });
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed)?;
        let t = Instant::now();
        let text = tr.span("obs.json_emit", i, |_| layers::json_emit(&doc));
        emit_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(text);
    }
    Ok(ServiceTrace {
        in_process: samples,
        cache: (hits, misses, evictions),
        json_parse_us: median(&parse_us),
        json_emit_us: median(&emit_us),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_p50_ignores_how_often_each_shape_occurs() {
        let mut few_dear = vec![Vec::new(); 4];
        few_dear[0] = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.1];
        few_dear[2] = vec![100.0];
        let mut many_dear = few_dear.clone();
        many_dear[2] = vec![100.0; 9];
        assert!((stratified_p50(&few_dear) - 10.0).abs() < 1e-9);
        assert_eq!(stratified_p50(&few_dear), stratified_p50(&many_dear));
    }

    #[test]
    fn classes_follow_intent_and_label() {
        assert_eq!(classify(Intent::HotRepeat, Some("hit")), Some(Class::Hit));
        assert_eq!(classify(Intent::Cold, Some("hit")), Some(Class::Hit));
        assert_eq!(
            classify(Intent::Respelled, Some("hit")),
            Some(Class::Content)
        );
        for intent in [Intent::HotRepeat, Intent::Respelled, Intent::Cold] {
            assert_eq!(classify(intent, Some("miss")), Some(Class::Miss));
            assert_eq!(classify(intent, None), None);
            assert_eq!(classify(intent, Some("maybe")), None);
        }
        assert_eq!(classify(Intent::Stats, None), Some(Class::Stats));
    }
}
