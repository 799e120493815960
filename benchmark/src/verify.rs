//! Output verification: FNV-1a digests of result arrays against frozen
//! and natively recomputed expectations, and byte equality of generated
//! C text. Failures are counted, never filtered.

use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds the exact bit pattern of `v`, so `-0.0`, `0.0` and every NaN
    /// payload digest differently.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of arrays given as plain vectors (the native references).
pub fn digest_vectors(arrays: &[Vec<f64>]) -> u64 {
    let mut h = Fnv::default();
    for a in arrays {
        for &v in a {
            h.f64(v);
        }
    }
    h.finish()
}

/// The frozen digests of `benchmark/expected/kernel_exec.fnv`: one line
/// per kernel, `<kernel> <params,comma-separated> <seed hex> <digest hex>`;
/// `#` starts a comment.
#[derive(Debug, Default, PartialEq)]
pub struct Expected {
    /// (kernel, params, seed) → digest.
    entries: BTreeMap<(String, Vec<i64>, u64), u64>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| format!("expected digests, line {}: {what}", n + 1);
            let f: Vec<&str> = line.split_ascii_whitespace().collect();
            let [kernel, params, seed, digest] = f[..] else {
                return Err(bad("want `<kernel> <params> <seed> <digest>`"));
            };
            let params = params
                .split(',')
                .map(|p| p.parse::<i64>().map_err(|_| bad("bad parameter value")))
                .collect::<Result<Vec<_>, _>>()?;
            let seed = u64::from_str_radix(seed, 16).map_err(|_| bad("bad seed"))?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad("bad digest"))?;
            if entries
                .insert((kernel.to_string(), params, seed), digest)
                .is_some()
            {
                return Err(bad("duplicate entry"));
            }
        }
        Ok(Expected { entries })
    }

    pub fn get(&self, kernel: &str, params: &[i64], seed: u64) -> Option<u64> {
        self.entries
            .get(&(kernel.to_string(), params.to_vec(), seed))
            .copied()
    }

    /// Whether `digest` is what the file says about this kernel, size and
    /// seed. At the default seed the file must say something: a size or a
    /// kernel it does not list would otherwise be checked against nothing
    /// but a reference computed in the same run. Other seeds have no
    /// frozen digests and pass.
    pub fn check(
        &self,
        kernel: &str,
        params: &[i64],
        seed: u64,
        digest: u64,
    ) -> Result<(), String> {
        match self.get(kernel, params, seed) {
            Some(frozen) if frozen == digest => Ok(()),
            Some(frozen) => Err(format!(
                "{kernel} {params:?}: digest {digest:016x} differs from frozen {frozen:016x}"
            )),
            None if seed == crate::DEFAULT_SEED => Err(format!(
                "{kernel} {params:?}: no frozen digest at the default seed"
            )),
            None => Ok(()),
        }
    }

    pub fn line(kernel: &str, params: &[i64], seed: u64, digest: u64) -> String {
        let params: Vec<String> = params.iter().map(i64::to_string).collect();
        format!("{kernel} {} {seed:x} {digest:016x}\n", params.join(","))
    }
}

/// Byte equality of every text filed under a key with the first one
/// filed under it (C text of one kernel across passes and front ends).
#[derive(Debug, Default)]
pub struct TextCheck {
    first: BTreeMap<String, String>,
}

impl TextCheck {
    /// Files `text` under `key`; `false` when it differs from the first
    /// text filed there or is empty.
    pub fn same(&mut self, key: &str, text: &str) -> bool {
        if text.is_empty() {
            return false;
        }
        match self.first.get(key) {
            Some(first) => first == text,
            None => {
                self.first.insert(key.to_string(), text.to_string());
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_single_flipped_bit_changes_the_digest() {
        let arrays = vec![vec![1.0, 2.0, 3.0], vec![0.5; 100]];
        let good = digest_vectors(&arrays);
        for (a, cell, bit) in [(0, 0, 0), (0, 2, 63), (1, 99, 17), (1, 0, 52)] {
            let mut bad = arrays.clone();
            bad[a][cell] = f64::from_bits(bad[a][cell].to_bits() ^ (1 << bit));
            assert_ne!(
                digest_vectors(&bad),
                good,
                "array {a} cell {cell} bit {bit}"
            );
        }
        // Sign of zero and cell order are part of the digest too.
        assert_ne!(digest_vectors(&[vec![0.0]]), digest_vectors(&[vec![-0.0]]));
        assert_ne!(
            digest_vectors(&[vec![1.0, 2.0]]),
            digest_vectors(&[vec![2.0, 1.0]])
        );
    }

    #[test]
    fn a_corrupted_c_line_is_caught() {
        let code = "for (t1 = 0; t1 <= N - 1; t1++) {\n  a[t1] = a[t1 - 1];\n}\n";
        let mut check = TextCheck::default();
        assert!(check.same("k", code));
        assert!(check.same("k", code));
        assert!(!check.same("k", &code.replace("t1 - 1", "t1 + 1")));
        assert!(!check.same("k", &code[..code.len() - 1]));
        assert!(!check.same("k", ""));
        // Another key has its own first text; an empty first text fails.
        assert!(check.same("other", "x"));
        assert!(!check.same("empty", ""));
    }

    #[test]
    fn expected_file_round_trips_and_rejects_garbage() {
        let text = format!(
            "# frozen\n{}{}",
            Expected::line("lu", &[200], 0x5eed2008, 0xdead_beef),
            Expected::line("fdtd-2d", &[4, 400, 400], 0x5eed2008, 7),
        );
        let e = Expected::parse(&text).unwrap();
        assert_eq!(e.get("lu", &[200], 0x5eed2008), Some(0xdead_beef));
        assert_eq!(e.get("fdtd-2d", &[4, 400, 400], 0x5eed2008), Some(7));
        assert_eq!(e.get("lu", &[201], 0x5eed2008), None);
        assert_eq!(e.get("lu", &[200], 1), None);
        // Agreement, disagreement, and an entry that went missing.
        assert!(e.check("lu", &[200], 0x5eed2008, 0xdead_beef).is_ok());
        assert!(e.check("lu", &[200], 0x5eed2008, 0xdead_beee).is_err());
        assert_eq!(crate::DEFAULT_SEED, 0x5eed2008);
        assert!(e.check("lu", &[201], 0x5eed2008, 1).is_err());
        assert!(e.check("mvt", &[200], 0x5eed2008, 1).is_err());
        assert!(e.check("lu", &[200], 0x5eed2009, 1).is_ok());
        assert!(Expected::parse("lu 200 5eed2008").is_err());
        assert!(Expected::parse("lu 2x0 5eed2008 ff").is_err());
        assert!(Expected::parse(&format!("{0}{0}", Expected::line("lu", &[2], 1, 1))).is_err());
    }
}
