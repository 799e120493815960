//! Set-up: everything a run does before the first timed operation,
//! the build excepted (`run.sh` builds before the harness starts, and a
//! build cannot be repeated within a run). One call of [`set_up`] is one
//! repetition; `main` repeats it and reports the median as `setup_s`,
//! keeping the last repetition's products.
//!
//! A repetition (1) reads and checks the 13 kernel files, (2) generates
//! the seeded sources and request material, (3) compiles the five
//! execution kernels and computes their expected digests natively,
//! (4) starts `plutod` and warms it with the kernels and the hot set.

use crate::common::{compile, Ctx, Tally};
use crate::gen::{self, Source};
use crate::kernels::{self, ExecKernel};
use crate::layers::{self, Ast, CompiledKernel, Program};
use crate::proc::Plutod;
use crate::trace::Tracer;
use crate::verify::{digest_vectors, Expected, TextCheck};
use std::path::PathBuf;

/// Streams of the seed: one per kind of input.
pub const STREAM_AUDIT: u64 = 1;
pub const STREAM_SERVICE_SOURCES: u64 = 2;
pub const STREAM_REQUESTS: u64 = 3;
pub const STREAM_ORDER: u64 = 4;

pub const AUDIT_SOURCES: usize = 32;
pub const HOT_SOURCES: usize = 8;
pub const COLD_SOURCES: usize = 48;
pub const CACHE_CAP: usize = 32;

pub struct KernelFile {
    pub name: &'static str,
    pub path: String,
    pub text: String,
}

/// One execution kernel, compiled: both schedules as bytecode at one
/// problem size, and the digest a correct run must produce.
pub struct ExecCase {
    pub spec: &'static ExecKernel,
    pub program: Program,
    pub params: Vec<i64>,
    pub extents: Vec<Vec<usize>>,
    /// `[original, transformed]`.
    pub asts: [Ast; 2],
    /// The two ASTs lowered for `params` and `extents`.
    pub bytecode: [CompiledKernel; 2],
    pub instances: u64,
    pub expected_digest: u64,
}

pub struct AuditFile {
    pub path: String,
    pub verify_arg: String,
    pub source: Source,
}

pub struct Inputs {
    pub kernels: Vec<KernelFile>,
    pub exec: Vec<ExecCase>,
    pub audit: Vec<AuditFile>,
    /// Hot set first, then the cold pool.
    pub service_sources: Vec<String>,
    pub warm: Warm,
}

/// The text of one of the 13 kernel files.
pub fn kernel_text<'a>(kernels: &'a [KernelFile], name: &str) -> &'a str {
    &kernels
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not one of the 13 kernels"))
        .text
}

/// The warmed-up daemon and what its warm-up responses established.
pub struct Warm {
    pub plutod: Plutod,
    /// C text per kernel as `plutod` served it during warm-up: the first
    /// text filed under each kernel name.
    pub code: TextCheck,
    /// `cache` labels of the warm-up responses: (hits, misses).
    pub warmup_labels: (u64, u64),
    /// Escaped `code` of the warm-up response of each hot source.
    pub hot_code: Vec<String>,
}

/// The value of a string-valued key of a compact JSON document: the raw
/// (still escaped) text between the quotes of the first `"key": "…"`.
/// Tolerant of spacing around the colon; used on `plutod` responses,
/// where the first `cache` and `code` keys are those of the result.
pub fn raw_string_value<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let after_key = doc.find(&needle)? + needle.len();
    let rest = doc[after_key..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start();
    let body = rest.strip_prefix('"')?;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&body[..i]),
            _ => i += 1,
        }
    }
    None
}

/// Files one response's `cache` label under `(hits, misses)`.
pub fn count_label(labels: &mut (u64, u64), label: Option<&str>) {
    match label {
        Some("hit") => labels.0 += 1,
        Some("miss") => labels.1 += 1,
        _ => {}
    }
}

/// Whether the response says `"ok": true`.
pub fn response_ok(doc: &str) -> bool {
    doc.find("\"ok\"")
        .map(|at| doc[at + 4..].trim_start())
        .and_then(|rest| rest.strip_prefix(':'))
        .is_some_and(|rest| rest.trim_start().starts_with("true"))
}

fn read_kernels(tally: &mut Tally) -> Result<Vec<KernelFile>, String> {
    let mut files = Vec::new();
    for k in &kernels::ALL {
        let path = kernels::path(k.name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // The file must parse, and running it as written must execute
        // exactly the closed-form number of statement instances.
        let unit = layers::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let extents = layers::extents(&unit, k.check_params)?;
        let mut arrays = layers::new_arrays(&extents, |_, _| 1.0);
        let ast = layers::generate_original(&unit.program);
        let ran = layers::exec_reference(&unit.program, &ast, k.check_params, &mut arrays);
        let want = (k.instances)(k.check_params);
        tally.check(ran as i64 == want, || {
            format!(
                "{}: {ran} instances at {:?}, closed form says {want}",
                k.name, k.check_params
            )
        });
        files.push(KernelFile {
            name: k.name,
            path,
            text,
        });
    }
    Ok(files)
}

/// Compiles one execution kernel at `params` and computes its expected
/// digest with the native reference, which must be the frozen one
/// (`frozen` is `None` only while the frozen digests are being written).
pub fn exec_case(
    spec: &'static ExecKernel,
    params: &[i64],
    text: &str,
    seed: u64,
    frozen: Option<&Expected>,
    tally: &mut Tally,
) -> Result<ExecCase, String> {
    let compiled = compile(&mut Tracer::off(), 0, text, false)?;
    let program = compiled.unit.program.clone();
    let extents = layers::extents(&compiled.unit, params)?;
    let asts = [layers::generate_original(&program), compiled.ast];
    let bytecode = [
        layers::bytecode_compile(&program, &asts[0], params, &extents),
        layers::bytecode_compile(&program, &asts[1], params, &extents),
    ];
    let mut vectors: Vec<Vec<f64>> = extents
        .iter()
        .enumerate()
        .map(|(a, e)| {
            (0..e.iter().product::<usize>())
                .map(|off| kernels::init_value(seed, spec.name, &extents, a, off))
                .collect()
        })
        .collect();
    (spec.reference)(params, &mut vectors);
    let expected_digest = digest_vectors(&vectors);
    if let Some(frozen) = frozen {
        let verdict = frozen.check(spec.name, params, seed, expected_digest);
        tally.check(verdict.is_ok(), || {
            format!("native reference: {}", verdict.unwrap_err())
        });
    }
    let instances = (kernels::by_name(spec.name).instances)(params) as u64;
    Ok(ExecCase {
        spec,
        program,
        params: params.to_vec(),
        extents,
        asts,
        bytecode,
        instances,
        expected_digest,
    })
}

pub fn read_expected() -> Result<Expected, String> {
    let path = "benchmark/expected/kernel_exec.fnv";
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Expected::parse(&text)
}

fn write_audit_files(ctx: &Ctx) -> Result<Vec<AuditFile>, String> {
    let dir: PathBuf = ctx.out_dir.join(format!("audit-{:x}", ctx.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    gen::sources(ctx.seed, STREAM_AUDIT, AUDIT_SOURCES)
        .into_iter()
        .enumerate()
        .map(|(k, source)| {
            let path = dir.join(format!("{k:02}.c"));
            std::fs::write(&path, &source.text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let params: Vec<String> = source.verify_params.iter().map(i64::to_string).collect();
            Ok(AuditFile {
                path: path.to_string_lossy().into_owned(),
                verify_arg: params.join(","),
                source,
            })
        })
        .collect()
}

/// Starts the daemon and sends it, once each, the 13 kernels (so that
/// `plutoc`'s C text can be compared with the service's) and then the
/// hot set. The kernels are the oldest entries of the FIFO cache and
/// the first to be evicted once the cold pool arrives.
fn warm_plutod(
    ctx: &Ctx,
    kernel_files: &[KernelFile],
    hot: &[String],
    tally: &mut Tally,
) -> Result<Warm, String> {
    let mut plutod = Plutod::start(&ctx.plutod, CACHE_CAP)?;
    let mut code = TextCheck::default();
    let mut labels = (0, 0);
    let mut hot_code = Vec::new();
    let mut response = String::new();
    let texts = kernel_files.iter().map(|k| (Some(k.name), k.text.as_str()));
    let texts = texts.chain(hot.iter().map(|h| (None, h.as_str())));
    for (id, (kernel, text)) in texts.enumerate() {
        plutod.request(&gen::compile_request(id as u64, text), &mut response)?;
        // Warm-up responses are parsed in full: they establish the
        // reference texts, and they check the line scanner used on the
        // timed path against the real JSON parser.
        let doc = layers::json_parse(&response)?;
        let served = layers::json_str(&doc, &["result", "code"]);
        let label = layers::json_str(&doc, &["result", "cache"]);
        let ok = layers::json_bool(&doc, &["ok"]) == Some(true);
        tally.check(ok && served.is_some(), || {
            format!(
                "plutod warm-up request {id} failed: {}",
                &response[..response.len().min(200)]
            )
        });
        count_label(&mut labels, label);
        let raw = raw_string_value(&response, "code").unwrap_or("");
        let unescaped = layers::json_parse(&format!("\"{raw}\""))?;
        if response_ok(&response) != ok
            || raw_string_value(&response, "cache") != label
            || served.is_some_and(|s| layers::json_str(&unescaped, &[]) != Some(s))
        {
            return Err(format!(
                "the response scanner disagrees with the JSON parser on warm-up request {id}"
            ));
        }
        match kernel {
            Some(name) => {
                code.same(name, served.unwrap_or(""));
            }
            None => hot_code.push(raw.to_string()),
        }
    }
    Ok(Warm {
        plutod,
        code,
        warmup_labels: labels,
        hot_code,
    })
}

/// One repetition of the set-up.
pub fn set_up(ctx: &Ctx, tally: &mut Tally) -> Result<Inputs, String> {
    let kernels = read_kernels(tally)?;
    let audit = write_audit_files(ctx)?;
    let service_sources: Vec<String> =
        gen::sources(ctx.seed, STREAM_SERVICE_SOURCES, HOT_SOURCES + COLD_SOURCES)
            .into_iter()
            .map(|s| s.text)
            .collect();

    let frozen = read_expected()?;
    let mut exec = Vec::new();
    for spec in &kernels::EXEC {
        exec.push(exec_case(
            spec,
            spec.bench_params,
            kernel_text(&kernels, spec.name),
            ctx.seed,
            Some(&frozen),
            tally,
        )?);
    }

    let warm = warm_plutod(ctx, &kernels, &service_sources[..HOT_SOURCES], tally)?;
    Ok(Inputs {
        kernels,
        exec,
        audit,
        service_sources,
        warm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_reads_the_first_string_value_and_ok_flag() {
        let doc = r#"{"schema": "pluto-rpc/1", "id": 3, "ok": true, "result": {"cache": "hit", "code": "a \"q\" \\ b\n", "profile": {"cache": "no"}}}"#;
        assert!(response_ok(doc));
        assert_eq!(raw_string_value(doc, "cache"), Some("hit"));
        assert_eq!(raw_string_value(doc, "code"), Some(r#"a \"q\" \\ b\n"#));
        assert_eq!(raw_string_value(doc, "absent"), None);
        // Spacing is free; other values are not strings.
        assert_eq!(
            raw_string_value(r#"{"cache":"miss"}"#, "cache"),
            Some("miss")
        );
        assert_eq!(raw_string_value(r#"{"id" : 4}"#, "id"), None);
        assert!(response_ok(r#"{"ok":true}"#));
        assert!(!response_ok(r#"{"ok": false, "error": "true"}"#));
        assert!(!response_ok("{}"));
        // An unterminated string is not a value.
        assert_eq!(raw_string_value(r#"{"code": "abc"#, "code"), None);
    }
}
