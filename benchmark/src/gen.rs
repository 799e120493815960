//! Seeded input generation: mini-C sources from four templates, and the
//! request stream of the service workload. Nothing here calls the
//! library under test — the program receives only the generated text.
//!
//! A generated set is *stratified*: slot `k` always has the same template
//! and shape (depth, statement count, parameter count), and the seed
//! draws what is inside it (offsets, transpositions, dropped terms,
//! coefficients, problem sizes). It is also *paired*: slots `k` and
//! `k + 16` of a block of 32 make the same structural draws, the second
//! one mirrored (offset 1 ↔ 2, transposed ↔ not), so that what a draw
//! adds to the cost of one program it takes from its partner's. Every
//! seed therefore poses a comparable amount of work, which keeps a sum
//! over a set steady from seed to seed, while no two seeds give the
//! compiler the same programs.

use crate::rng::Rng;
use std::collections::HashSet;
use std::fmt::Write as _;

/// One generated program and the parameter values its audited compile
/// executes it at (`plutoc --verify`).
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    pub text: String,
    pub verify_params: Vec<i64>,
    /// `template/shape`, e.g. `stencil/2d-inplace` — printed with results.
    pub family: &'static str,
}

/// Number of distinct (template, shape) slots before the pattern repeats.
pub const SHAPES: usize = 16;

/// The draws of one slot: structural ones (which change the polyhedra)
/// from a generator its partner slot shares, mirrored for the partner;
/// cosmetic ones (coefficients, problem sizes) from the slot's own.
struct Draws {
    shape: Rng,
    mirrored: bool,
    cosmetic: Rng,
}

impl Draws {
    fn new(seed: u64, stream: u64, slot: usize) -> Draws {
        let pair = slot % SHAPES + SHAPES * (slot / (2 * SHAPES));
        Draws {
            shape: Rng::new(seed, stream * 4096 + pair as u64),
            mirrored: (slot / SHAPES) % 2 == 1,
            cosmetic: Rng::new(seed, stream * 4096 + 2048 + slot as u64),
        }
    }

    /// A structural draw from `lo..=hi`; the partner slot gets the
    /// value mirrored within the range.
    fn pick(&mut self, lo: i64, hi: i64) -> i64 {
        let v = self.shape.range(lo, hi);
        if self.mirrored {
            lo + hi - v
        } else {
            v
        }
    }

    fn flag(&mut self) -> bool {
        self.pick(0, 1) == 1
    }

    fn coef(&mut self) -> String {
        format!("0.{:03}", self.cosmetic.range(101, 899))
    }

    fn size(&mut self) -> i64 {
        self.cosmetic.range(13, 17)
    }

    fn steps(&mut self) -> i64 {
        self.cosmetic.range(3, 5)
    }
}

/// A program-unique array name: template letter + slot number.
fn name(base: &str, slot: usize) -> String {
    format!("{base}{slot}")
}

/// Draws `count` sources; slot `k` gets shape `k % SHAPES`.
pub fn sources(seed: u64, stream: u64, count: usize) -> Vec<Source> {
    (0..count)
        .map(|k| source(&mut Draws::new(seed, stream, k), k))
        .collect()
}

fn source(rng: &mut Draws, slot: usize) -> Source {
    match slot % SHAPES {
        0 => stencil_1d_inplace(rng, slot),
        1 => dense_matmul(rng, slot),
        2 => triangular_solve(rng, slot),
        3 => imperfect_matvec(rng, slot),
        4 => stencil_1d_jacobi(rng, slot),
        5 => dense_matvec_pair(rng, slot),
        6 => triangular_update(rng, slot),
        7 => imperfect_scaled_gemm(rng, slot),
        8 => stencil_2d_inplace(rng, slot),
        9 => dense_axpy_chain(rng, slot),
        10 => triangular_elimination(rng, slot),
        11 => imperfect_row_sums(rng, slot),
        12 => stencil_scan(rng, slot),
        13 => dense_rect_matvec(rng, slot),
        14 => triangular_trmm(rng, slot),
        _ => stencil_2d_jacobi(rng, slot),
    }
}

// ---- stencil templates ------------------------------------------------

/// depth 1, 1 statement, 1 parameter: a prefix recurrence.
fn stencil_scan(rng: &mut Draws, slot: usize) -> Source {
    let a = name("s", slot);
    let o = rng.pick(1, 3);
    let text = format!(
        "params N;\nassume N >= 8;\narray {a}[N];\n\
         for (i = {o}; i < N; i++)\n  {a}[i] = {c} * {a}[i-{o}] + {d};\n",
        c = rng.coef(),
        d = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size() * 4],
        family: "stencil/scan",
    }
}

/// depth 2, 1 statement, 2 parameters: time-iterated in-place 1-d stencil.
fn stencil_1d_inplace(rng: &mut Draws, slot: usize) -> Source {
    let a = name("s", slot);
    let (l, r) = (rng.pick(1, 2), rng.pick(1, 2));
    let text = format!(
        "params T, N;\nassume N >= 8;\narray {a}[N];\n\
         for (t = 0; t < T; t++)\n  for (i = {l}; i <= N - {hi}; i++)\n    \
         {a}[i] = {c} * ({a}[i-{l}] + {a}[i] + {a}[i+{r}]);\n",
        hi = r + 1,
        c = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.steps(), rng.size() * 2],
        family: "stencil/1d-inplace",
    }
}

/// depth 2, 2 statements, 2 parameters: imperfectly nested 1-d Jacobi.
fn stencil_1d_jacobi(rng: &mut Draws, slot: usize) -> Source {
    let (a, b) = (name("s", slot), name("w", slot));
    let (l, r) = (rng.pick(1, 2), rng.pick(1, 2));
    let text = format!(
        "params T, N;\nassume N >= 8;\narray {a}[N]; array {b}[N];\n\
         for (t = 0; t < T; t++) {{\n  for (i = {l}; i <= N - {hi}; i++)\n    \
         {b}[i] = {c} * ({a}[i-{l}] + {a}[i+{r}]) + {d} * {a}[i];\n  \
         for (j = {l}; j <= N - {hi}; j++)\n    {a}[j] = {b}[j];\n}}\n",
        hi = r + 1,
        c = rng.coef(),
        d = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.steps(), rng.size() * 2],
        family: "stencil/1d-jacobi",
    }
}

/// depth 3, 1 statement, 2 parameters: in-place 2-d stencil (seidel class).
fn stencil_2d_inplace(rng: &mut Draws, slot: usize) -> Source {
    let a = name("s", slot);
    // Neighbours of the 5-point star; the seed drops one of them.
    let mut terms = vec![
        format!("{a}[i-1][j]"),
        format!("{a}[i][j-1]"),
        format!("{a}[i][j+1]"),
        format!("{a}[i+1][j]"),
    ];
    terms.remove(rng.pick(0, 3) as usize);
    let text = format!(
        "params T, N;\nassume N >= 8;\narray {a}[N][N];\n\
         for (t = 0; t < T; t++)\n  for (i = 1; i <= N - 2; i++)\n    \
         for (j = 1; j <= N - 2; j++)\n      \
         {a}[i][j] = {c} * ({a}[i][j] + {sum});\n",
        c = rng.coef(),
        sum = terms.join(" + ")
    );
    Source {
        text,
        verify_params: vec![rng.steps(), rng.size()],
        family: "stencil/2d-inplace",
    }
}

/// depth 3, 2 statements, 2 parameters: imperfectly nested 2-d Jacobi.
fn stencil_2d_jacobi(rng: &mut Draws, slot: usize) -> Source {
    let (a, b) = (name("s", slot), name("w", slot));
    let vertical = rng.flag();
    let pair = if vertical {
        format!("{a}[i-1][j] + {a}[i+1][j]")
    } else {
        format!("{a}[i][j-1] + {a}[i][j+1]")
    };
    let text = format!(
        "params T, N;\nassume N >= 8;\narray {a}[N][N]; array {b}[N][N];\n\
         for (t = 0; t < T; t++) {{\n  for (i = 1; i <= N - 2; i++)\n    \
         for (j = 1; j <= N - 2; j++)\n      \
         {b}[i][j] = {c} * ({a}[i][j] + {pair});\n  \
         for (i = 1; i <= N - 2; i++)\n    for (j = 1; j <= N - 2; j++)\n      \
         {a}[i][j] = {b}[i][j];\n}}\n",
        c = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.steps(), rng.size()],
        family: "stencil/2d-jacobi",
    }
}

// ---- dense templates ---------------------------------------------------

fn sub2(arr: &str, transposed: bool, x: &str, y: &str) -> String {
    if transposed {
        format!("{arr}[{y}][{x}]")
    } else {
        format!("{arr}[{x}][{y}]")
    }
}

/// depth 3, 1 statement, 1 parameter: matmul with seeded transpositions.
fn dense_matmul(rng: &mut Draws, slot: usize) -> Source {
    let (c, a, b) = (name("C", slot), name("A", slot), name("B", slot));
    let lhs = sub2(&a, rng.flag(), "i", "k");
    let rhs = sub2(&b, rng.flag(), "k", "j");
    let text = format!(
        "params N;\nassume N >= 4;\narray {c}[N][N]; array {a}[N][N]; array {b}[N][N];\n\
         for (i = 0; i < N; i++)\n  for (j = 0; j < N; j++)\n    for (k = 0; k < N; k++)\n      \
         {c}[i][j] = {c}[i][j] + {w} * {lhs} * {rhs};\n",
        w = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "dense/matmul",
    }
}

/// depth 2, 2 statements, 1 parameter: a product and a transposed product
/// sharing the matrix (mvt class).
fn dense_matvec_pair(rng: &mut Draws, slot: usize) -> Source {
    let (a, x, y) = (name("A", slot), name("x", slot), name("y", slot));
    let (p, q) = (name("p", slot), name("q", slot));
    let first_transposed = rng.flag();
    let text = format!(
        "params N;\nassume N >= 4;\n\
         array {a}[N][N]; array {x}[N]; array {y}[N]; array {p}[N]; array {q}[N];\n\
         for (i = 0; i < N; i++)\n  for (j = 0; j < N; j++)\n    \
         {x}[i] = {x}[i] + {c} * {m1} * {p}[j];\n\
         for (i = 0; i < N; i++)\n  for (j = 0; j < N; j++)\n    \
         {y}[i] = {y}[i] + {d} * {m2} * {q}[j];\n",
        c = rng.coef(),
        d = rng.coef(),
        m1 = sub2(&a, first_transposed, "i", "j"),
        m2 = sub2(&a, !first_transposed, "i", "j"),
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "dense/matvec-pair",
    }
}

/// depth 1, 3 statements, 1 parameter: a chain of vector updates.
fn dense_axpy_chain(rng: &mut Draws, slot: usize) -> Source {
    let (x, y, z) = (name("x", slot), name("y", slot), name("z", slot));
    let text = format!(
        "params N;\nassume N >= 4;\narray {x}[N]; array {y}[N]; array {z}[N];\n\
         for (i = 0; i < N; i++)\n  {y}[i] = {c} * {x}[i] + {y}[i];\n\
         for (i = 0; i < N; i++)\n  {z}[i] = {d} * {y}[i] + {z}[i];\n\
         for (i = 0; i < N; i++)\n  {x}[i] = {e} * {z}[i];\n",
        c = rng.coef(),
        d = rng.coef(),
        e = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size() * 4],
        family: "dense/axpy-chain",
    }
}

/// depth 2, 1 statement, 2 parameters: rectangular matrix-vector product.
fn dense_rect_matvec(rng: &mut Draws, slot: usize) -> Source {
    let (a, x, y) = (name("A", slot), name("x", slot), name("y", slot));
    let text = format!(
        "params N, M;\nassume N >= 4;\nassume M >= 4;\n\
         array {a}[N][M]; array {x}[M]; array {y}[N];\n\
         for (i = 0; i < N; i++)\n  for (j = 0; j < M; j++)\n    \
         {y}[i] = {y}[i] + {c} * {a}[i][j] * {x}[j];\n",
        c = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size(), rng.size() + 3],
        family: "dense/rect-matvec",
    }
}

// ---- triangular templates ------------------------------------------------

/// depth 2, 2 statements, 1 parameter: forward substitution without the
/// division (trisolv class).
fn triangular_solve(rng: &mut Draws, slot: usize) -> Source {
    let (l, x, b) = (name("L", slot), name("x", slot), name("b", slot));
    let text = format!(
        "params N;\nassume N >= 4;\narray {l}[N][N]; array {x}[N]; array {b}[N];\n\
         for (i = 0; i < N; i++) {{\n  {x}[i] = {c} * {b}[i];\n  \
         for (j = 0; j < i; j++)\n    {x}[i] = {x}[i] - {d} * {l}[i][j] * {x}[j];\n}}\n",
        c = rng.coef(),
        d = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "triangular/solve",
    }
}

/// depth 2, 1 statement, 1 parameter: update of one triangle from the
/// other.
fn triangular_update(rng: &mut Draws, slot: usize) -> Source {
    let (a, b) = (name("A", slot), name("B", slot));
    let strict = rng.flag();
    let text = format!(
        "params N;\nassume N >= 4;\narray {a}[N][N]; array {b}[N][N];\n\
         for (i = {lo}; i < N; i++)\n  for (j = 0; j {cmp} i; j++)\n    \
         {b}[i][j] = {b}[i][j] + {c} * {a}[j][i];\n",
        lo = i64::from(strict),
        cmp = if strict { "<" } else { "<=" },
        c = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "triangular/update",
    }
}

/// depth 3, 1 statement, 1 parameter: the elimination step of LU.
fn triangular_elimination(rng: &mut Draws, slot: usize) -> Source {
    let a = name("a", slot);
    let text = format!(
        "params N;\nassume N >= 4;\narray {a}[N][N];\n\
         for (k = 0; k < N; k++)\n  for (i = k + 1; i < N; i++)\n    \
         for (j = k + 1; j < N; j++)\n      \
         {a}[i][j] = {a}[i][j] - {c} * {a}[i][k] * {a}[k][j];\n",
        c = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "triangular/elimination",
    }
}

/// depth 3, 1 statement, 1 parameter: triangular matrix multiply.
fn triangular_trmm(rng: &mut Draws, slot: usize) -> Source {
    let (a, b) = (name("A", slot), name("B", slot));
    let text = format!(
        "params N;\nassume N >= 4;\narray {a}[N][N]; array {b}[N][N];\n\
         for (i = 1; i < N; i++)\n  for (j = 0; j < N; j++)\n    for (k = 0; k < i; k++)\n      \
         {b}[i][j] = {b}[i][j] + {c} * {lhs} * {b}[k][j];\n",
        c = rng.coef(),
        lhs = sub2(&a, rng.flag(), "i", "k")
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "triangular/trmm",
    }
}

// ---- imperfect-nest templates --------------------------------------------

/// depth 2, 3 statements at depths 1/2/1, 1 parameter.
fn imperfect_matvec(rng: &mut Draws, slot: usize) -> Source {
    let (a, x, y, s) = (
        name("A", slot),
        name("x", slot),
        name("y", slot),
        name("t", slot),
    );
    let text = format!(
        "params N;\nassume N >= 4;\n\
         array {a}[N][N]; array {x}[N]; array {y}[N]; array {s}[N];\n\
         for (i = 0; i < N; i++) {{\n  {s}[i] = {c};\n  \
         for (j = 0; j < N; j++)\n    {s}[i] = {s}[i] + {m} * {x}[j];\n  \
         {y}[i] = {d} * {s}[i];\n}}\n",
        c = rng.coef(),
        d = rng.coef(),
        m = sub2(&a, rng.flag(), "i", "j")
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "imperfect/matvec",
    }
}

/// depth 3, 2 statements at depths 2/3, 1 parameter: gemm with the
/// scaling of C hoisted.
fn imperfect_scaled_gemm(rng: &mut Draws, slot: usize) -> Source {
    let (c, a, b) = (name("C", slot), name("A", slot), name("B", slot));
    let text = format!(
        "params N;\nassume N >= 4;\narray {c}[N][N]; array {a}[N][N]; array {b}[N][N];\n\
         for (i = 0; i < N; i++)\n  for (j = 0; j < N; j++) {{\n    \
         {c}[i][j] = {beta} * {c}[i][j];\n    for (k = 0; k < N; k++)\n      \
         {c}[i][j] = {c}[i][j] + {alpha} * {a}[i][k] * {rhs};\n  }}\n",
        beta = rng.coef(),
        alpha = rng.coef(),
        rhs = sub2(&b, rng.flag(), "k", "j")
    );
    Source {
        text,
        verify_params: vec![rng.size()],
        family: "imperfect/scaled-gemm",
    }
}

/// depth 2, 2 statements at depths 1/2, 2 parameters.
fn imperfect_row_sums(rng: &mut Draws, slot: usize) -> Source {
    let (a, r) = (name("A", slot), name("r", slot));
    let text = format!(
        "params N, M;\nassume N >= 4;\nassume M >= 4;\narray {a}[N][M]; array {r}[N];\n\
         for (i = 0; i < N; i++) {{\n  {r}[i] = {c};\n  \
         for (j = 0; j < M; j++)\n    {r}[i] = {r}[i] + {d} * {a}[i][j];\n}}\n",
        c = rng.coef(),
        d = rng.coef()
    );
    Source {
        text,
        verify_params: vec![rng.size(), rng.size() + 3],
        family: "imperfect/row-sums",
    }
}

// ---- service request stream ----------------------------------------------

/// What a request is meant to exercise. The class a latency sample is
/// filed under also depends on the `cache` label of the response (an
/// evicted hot source comes back as a miss), see `service.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Exact repeat of a hot source: source-memo hit while resident.
    HotRepeat,
    /// Hot source with different whitespace, never sent before: memo
    /// miss, then parse + dependence analysis + content-key hit.
    Respelled,
    /// Draw from the cold pool, which is larger than the cache.
    Cold,
    /// `stats` request.
    Stats,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub intent: Intent,
    /// Index into the combined source table (hot sources first, then the
    /// cold pool); `usize::MAX` for `stats`.
    pub source: usize,
    /// The complete `pluto-rpc/1` request line.
    pub line: String,
}

/// Mix of the service workload, in percent of compile + stats requests.
pub const MIX_HOT: u64 = 85;
pub const MIX_RESPELLED: u64 = 8;
pub const MIX_COLD: u64 = 5;
// The remaining 2 % are `stats` requests.

/// Requests sent between two looks at the clock: 272 hot repeats, 25
/// respellings, 16 cold draws (one of each shape) and 7 `stats`.
pub const BATCH: usize = 320;

/// JSON string literal for `s` (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn compile_request(id: u64, source: &str) -> String {
    format!(
        "{{\"schema\":\"pluto-rpc/1\",\"id\":{id},\"method\":\"compile\",\
         \"options\":{{\"tile\":32}},\"source\":{}}}",
        json_string(source)
    )
}

pub fn stats_request(id: u64) -> String {
    format!("{{\"schema\":\"pluto-rpc/1\",\"id\":{id},\"method\":\"stats\"}}")
}

/// The same token sequence with every run of whitespace redrawn.
fn respell(source: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(source.len() * 2);
    let mut in_gap = false;
    for c in source.chars() {
        if c.is_ascii_whitespace() {
            if !in_gap {
                in_gap = true;
                // Keep line structure (a `//` comment must still end),
                // vary everything else.
                out.push(if c == '\n' { '\n' } else { ' ' });
                for _ in 0..rng.below(4) {
                    out.push(' ');
                }
            } else if c == '\n' {
                out.push('\n');
            }
        } else {
            in_gap = false;
            out.push(c);
        }
    }
    out
}

/// The request stream of one run. Every batch holds the stated mix
/// exactly (by quota, in seeded order) rather than on average, and cold
/// sources are taken in turn from a seeded permutation of the pool
/// rather than drawn with replacement — a permutation in which every
/// run of [`SHAPES`] draws holds each shape once, since a miss costs
/// 0.4 ms on one shape and 40 ms on another. The number of requests of
/// each kind, and with it the amount of work in a batch, is then the same
/// for every seed, and only order and content change.
pub struct Requests {
    rng: Rng,
    next_id: u64,
    hot: Vec<String>,
    cold: Vec<String>,
    /// Permutation of the cold pool and the position in it.
    cold_order: Vec<usize>,
    cold_at: usize,
    /// Every respelling sent so far: a repeat would be a memo hit.
    seen: HashSet<String>,
}

impl Requests {
    pub fn new(seed: u64, stream: u64, hot: Vec<String>, cold: Vec<String>) -> Requests {
        let mut rng = Rng::new(seed, stream);
        // Pool slots are consecutive source slots, so any SHAPES of them
        // in a row are one of each shape.
        let slots: Vec<usize> = (0..cold.len()).collect();
        let mut blocks: Vec<Vec<usize>> = slots.chunks(SHAPES).map(<[usize]>::to_vec).collect();
        rng.shuffle(&mut blocks);
        for block in &mut blocks {
            rng.shuffle(block);
        }
        let cold_order = blocks.concat();
        Requests {
            rng,
            next_id: 1000,
            hot,
            cold,
            cold_order,
            cold_at: 0,
            seen: HashSet::new(),
        }
    }

    /// The next `count` requests.
    pub fn batch(&mut self, count: usize) -> Vec<Request> {
        let quota = |percent: u64| count * percent as usize / 100;
        let mut intents = vec![Intent::Stats; count];
        let (a, b, c) = (quota(MIX_HOT), quota(MIX_RESPELLED), quota(MIX_COLD));
        intents[..a].fill(Intent::HotRepeat);
        intents[a..a + b].fill(Intent::Respelled);
        intents[a + b..a + b + c].fill(Intent::Cold);
        self.rng.shuffle(&mut intents);
        intents
            .into_iter()
            .map(|intent| self.request(intent))
            .collect()
    }

    fn request(&mut self, intent: Intent) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        let (source, line) = match intent {
            Intent::HotRepeat => {
                let source = self.rng.below(self.hot.len() as u64) as usize;
                (source, compile_request(id, &self.hot[source]))
            }
            Intent::Respelled => {
                let source = self.rng.below(self.hot.len() as u64) as usize;
                // A respelling that was drawn before (or is the source
                // itself) grows trailing blanks until it is new.
                let mut text = respell(&self.hot[source], &mut self.rng);
                while text == self.hot[source] || !self.seen.insert(text.clone()) {
                    text.push(' ');
                }
                (source, compile_request(id, &text))
            }
            Intent::Cold => {
                let pick = self.cold_order[self.cold_at % self.cold_order.len()];
                self.cold_at += 1;
                (self.hot.len() + pick, compile_request(id, &self.cold[pick]))
            }
            Intent::Stats => (usize::MAX, stats_request(id)),
        };
        Request {
            id,
            intent,
            source,
            line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_sources_and_requests() {
        let a = sources(0x5EED_2008, 3, 48);
        let b = sources(0x5EED_2008, 3, 48);
        assert_eq!(a, b);
        let c = sources(0x5EED_2009, 3, 48);
        assert_ne!(a, c);
        // Same shape per slot whatever the seed.
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.family, y.family);
        }

        let hot: Vec<String> = a[..8].iter().map(|s| s.text.clone()).collect();
        let cold: Vec<String> = a[8..].iter().map(|s| s.text.clone()).collect();
        let stream = |seed| Requests::new(seed, 9, hot.clone(), cold.clone()).batch(500);
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn every_shape_appears_and_texts_are_distinct() {
        let set = sources(42, 1, 2 * SHAPES);
        let families: HashSet<_> = set.iter().map(|s| s.family).collect();
        assert_eq!(families.len(), SHAPES);
        let texts: HashSet<_> = set.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts.len(), set.len());
    }

    #[test]
    fn request_mix_has_the_stated_proportions_in_every_batch() {
        let hot: Vec<String> = (0..8)
            .map(|k| format!("array a{k}[4];\na{k}[0] = 1.0;\n"))
            .collect();
        let cold: Vec<String> = (0..48)
            .map(|k| format!("array b{k}[4];\nb{k}[0] = 2.0;\n"))
            .collect();
        let mut stream = Requests::new(5, 9, hot, cold);
        let mut cold_seen = Vec::new();
        for batch in 0..6 {
            let reqs = stream.batch(BATCH);
            let count = |i: Intent| reqs.iter().filter(|r| r.intent == i).count();
            assert_eq!(count(Intent::HotRepeat), 272);
            assert_eq!(count(Intent::Respelled), 25);
            assert_eq!(count(Intent::Cold), 16);
            assert_eq!(count(Intent::Stats), 7);
            // Ids are consecutive across batches and every line is one line.
            assert!(reqs.iter().all(|r| !r.line.contains('\n')));
            assert_eq!(reqs[7].id, (1000 + BATCH * batch + 7) as u64);
            assert!(reqs[7].line.contains(&format!("\"id\":{},", reqs[7].id)));
            cold_seen.extend(
                reqs.iter()
                    .filter(|r| r.intent == Intent::Cold)
                    .map(|r| r.source),
            );
        }
        // Cold sources come in turn: the first 48 draws are the whole
        // pool once, and the cycle then repeats in the same order.
        let mut first_cycle = cold_seen[..48].to_vec();
        first_cycle.sort_unstable();
        assert_eq!(first_cycle, (8..56).collect::<Vec<_>>());
        assert_eq!(cold_seen[48..96], cold_seen[..48]);
        // Every run of 16 draws holds each of the 16 shapes once.
        for block in cold_seen.chunks(SHAPES) {
            let shapes: HashSet<usize> = block.iter().map(|s| s % SHAPES).collect();
            assert_eq!(shapes.len(), block.len());
        }
        // The shuffle really mixes the kinds.
        let reqs = stream.batch(BATCH);
        assert!(reqs[..272].iter().any(|r| r.intent != Intent::HotRepeat));
    }

    #[test]
    fn respellings_keep_tokens_and_never_repeat() {
        let src = "params N; // note\narray a[N];\nfor (i = 1; i < N; i++)\n  a[i] = a[i-1];\n";
        let tokens = |s: &str| {
            s.split_ascii_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let mut rng = Rng::new(1, 1);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            let r = respell(src, &mut rng);
            assert_eq!(tokens(&r), tokens(src));
            assert_eq!(r.matches('\n').count(), src.matches('\n').count());
            seen.insert(r);
        }
        assert!(seen.len() > 150);
    }

    #[test]
    fn json_string_escapes_what_json_requires() {
        assert_eq!(json_string("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
