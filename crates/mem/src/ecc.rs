//! ECC protection domains: binary linear codes over the 64-bit words the
//! machine stores in the instruction queue and in cache lines.
//!
//! Every scheme is a systematic-in-spirit binary linear code described by
//! its parity-check matrix `H`, stored column-wise: position `p` of the
//! `n = k + r` codeword contributes column `cols[p]` (an `r`-bit value) to
//! the syndrome. The first `r` positions are the check bits, the last `k`
//! positions carry the data word. Decoding is pure syndrome lookup: a
//! table maps each correctable pattern's syndrome to the pattern, so
//! classifying an arbitrary error mask is O(weight) XORs and one probe —
//! cheap enough to sit on the fault-injection hot path.
//!
//! The schemes:
//!
//! * [`EccScheme::None`] — no check bits; every non-empty error is silent.
//! * [`EccScheme::Parity`] — one check bit; odd-weight errors are
//!   detected, even-weight errors escape (§2's multi-bit caveat).
//! * [`EccScheme::HammingSec`] — shortened Hamming code correcting any
//!   single bit; many double errors alias a column and *miscorrect*.
//! * [`EccScheme::SecDed`] — Hsiao construction (all columns odd
//!   weight): corrects singles and detects every double, because an even
//!   number of odd columns XORs to an even-weight syndrome that can never
//!   equal an (odd-weight) column.
//! * [`EccScheme::Taec`] — single + adjacent-double + adjacent-triple
//!   error correction: the correctable set is every linear burst `1`,
//!   `11`, `111` inside the codeword, built greedily.
//! * [`EccScheme::Dec`] — double-error correction via the classic BCH
//!   construction over GF(2^m) (`cols[p] = (α^p, α^{3p})`, `r = 2m`).
//!
//! The classification tables are *proven* rather than sampled: the
//! exhaustive oracle (`tests/ecc_oracle.rs`) enumerates every error
//! pattern of weight ≤ 3 per codeword geometry and checks the fast path
//! against [`RefDecoder`], an independent row-representation decoder.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The ECC scheme protecting one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccScheme {
    /// No protection: every non-empty error is silent.
    None,
    /// One parity bit per codeword (detect-only, odd weights).
    Parity,
    /// Shortened Hamming single-error-correcting code.
    HammingSec,
    /// Hsiao single-error-correcting, double-error-detecting code.
    SecDed,
    /// Triple-adjacent-error-correcting code (bursts of length ≤ 3).
    Taec,
    /// Double-error-correcting BCH code.
    Dec,
}

impl EccScheme {
    /// All schemes, in ascending-strength order.
    pub const ALL: [EccScheme; 6] = [
        EccScheme::None,
        EccScheme::Parity,
        EccScheme::HammingSec,
        EccScheme::SecDed,
        EccScheme::Taec,
        EccScheme::Dec,
    ];

    /// Stable label for artifacts and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            EccScheme::None => "none",
            EccScheme::Parity => "parity",
            EccScheme::HammingSec => "sec",
            EccScheme::SecDed => "sec-ded",
            EccScheme::Taec => "taec",
            EccScheme::Dec => "dec",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// Returns the unknown label.
    pub fn parse(s: &str) -> Result<EccScheme, String> {
        EccScheme::ALL
            .into_iter()
            .find(|m| m.label() == s)
            .ok_or_else(|| {
                format!("unknown ECC scheme '{s}' (use none/parity/sec/sec-ded/taec/dec)")
            })
    }
}

/// How a codeword decoder disposes of one error pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccClass {
    /// The pattern is in the correctable set: absorbed, no residual error.
    Corrected,
    /// Uncorrectable but detected: the domain raises a machine check.
    Detected,
    /// The syndrome aliases a different correctable pattern: the decoder
    /// "fixes" the wrong bits and the residual error flows on silently.
    Miscorrected,
    /// Zero syndrome on a non-empty error (the error is a codeword):
    /// completely invisible to the checker.
    Undetected,
}

impl EccClass {
    /// Whether the error survives the decoder without a machine check.
    pub fn is_silent(self) -> bool {
        matches!(self, EccClass::Miscorrected | EccClass::Undetected)
    }
}

/// One binary linear code: `k` data bits, `r` check bits, column-wise `H`.
#[derive(Debug)]
pub struct EccCode {
    scheme: EccScheme,
    k: u32,
    r: u32,
    /// Syndrome column of each codeword position (`n = r + k` entries;
    /// positions `0..r` are check bits, `r..n` carry data bits `0..k`).
    cols: Vec<u32>,
    /// Syndrome → correctable pattern.
    table: HashMap<u32, u128>,
}

impl EccCode {
    /// Data bits per codeword.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Check bits per codeword.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Codeword length `k + r`.
    pub fn n(&self) -> u32 {
        self.k + self.r
    }

    /// The scheme this code implements.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// The syndrome of an error mask over codeword positions.
    pub fn syndrome(&self, e: u128) -> u32 {
        let mut s = 0u32;
        let mut m = e;
        while m != 0 {
            let p = m.trailing_zeros() as usize;
            s ^= self.cols[p];
            m &= m - 1;
        }
        s
    }

    /// Classifies an error mask and returns the residual error left after
    /// the decoder acts (zero for corrected patterns, the miscorrection
    /// artifact `e ⊕ ê` for aliased ones, `e` itself otherwise).
    pub fn decode(&self, e: u128) -> (EccClass, u128) {
        debug_assert_eq!(e >> self.n(), 0, "error exceeds the codeword");
        let s = self.syndrome(e);
        if s == 0 {
            // A non-empty codeword-shaped error: invisible. (e == 0 is the
            // caller's no-strike case and never reaches a decoder.)
            return (EccClass::Undetected, e);
        }
        match self.table.get(&s) {
            Some(&p) if p == e => (EccClass::Corrected, 0),
            Some(&p) => (EccClass::Miscorrected, e ^ p),
            None => (EccClass::Detected, e),
        }
    }

    /// Classifies an error mask.
    pub fn classify(&self, e: u128) -> EccClass {
        self.decode(e).0
    }

    /// Embeds a data-word error mask into codeword positions (check bits
    /// clean — the geometry of a strike on the stored word).
    pub fn data_error(&self, data_mask: u64) -> u128 {
        debug_assert_eq!(
            u128::from(data_mask) >> self.k,
            0,
            "data mask exceeds k bits"
        );
        u128::from(data_mask) << self.r
    }

    /// The data-word part of a codeword error mask.
    pub fn data_mask(&self, e: u128) -> u64 {
        ((e >> self.r) & ((1u128 << self.k) - 1)) as u64
    }

    /// An independent reference decoder over the same code (row-wise `H`,
    /// sorted-list syndrome search): the oracle's second opinion.
    pub fn reference(&self) -> RefDecoder {
        let rows: Vec<u128> = (0..self.r)
            .map(|j| {
                let mut row = 0u128;
                for (p, &c) in self.cols.iter().enumerate() {
                    if c >> j & 1 == 1 {
                        row |= 1u128 << p;
                    }
                }
                row
            })
            .collect();
        // Re-enumerate the correctable set geometrically — independent of
        // the construction-time bookkeeping the fast table was built from.
        let mut correctable: Vec<(u32, u128)> = correctable_shapes(self.scheme, self.n())
            .into_iter()
            .map(|p| (syndrome_by_rows(&rows, p), p))
            .collect();
        correctable.sort_unstable();
        RefDecoder { rows, correctable }
    }
}

/// Syndrome of `e` computed row-wise: bit `j` is the parity of `rows[j] ∩ e`.
fn syndrome_by_rows(rows: &[u128], e: u128) -> u32 {
    rows.iter()
        .enumerate()
        .fold(0u32, |s, (j, &row)| s | (((row & e).count_ones() & 1) << j))
}

/// Independent syndrome decoder used to verify [`EccCode`]: the same code,
/// but with `H` stored row-wise and the correctable set re-derived from
/// the scheme's geometry and searched as a sorted list instead of probed
/// through the construction-time hash table.
#[derive(Debug)]
pub struct RefDecoder {
    rows: Vec<u128>,
    /// `(syndrome, pattern)`, sorted by syndrome.
    correctable: Vec<(u32, u128)>,
}

impl RefDecoder {
    /// Classifies an error mask through the reference path.
    pub fn classify(&self, e: u128) -> EccClass {
        let s = syndrome_by_rows(&self.rows, e);
        if s == 0 {
            return EccClass::Undetected;
        }
        match self.correctable.binary_search_by_key(&s, |&(syn, _)| syn) {
            Ok(i) if self.correctable[i].1 == e => EccClass::Corrected,
            Ok(_) => EccClass::Miscorrected,
            Err(_) => EccClass::Detected,
        }
    }

    /// Every distinct correctable-pattern syndrome maps to exactly one
    /// pattern — the well-formedness the oracle asserts per scheme.
    pub fn syndromes_are_unique(&self) -> bool {
        self.correctable.windows(2).all(|w| w[0].0 != w[1].0)
    }
}

/// The correctable error patterns of a scheme over an `n`-bit codeword,
/// derived purely from the scheme's geometry.
fn correctable_shapes(scheme: EccScheme, n: u32) -> Vec<u128> {
    let singles = || (0..n).map(|p| 1u128 << p);
    match scheme {
        EccScheme::None | EccScheme::Parity => Vec::new(),
        EccScheme::HammingSec | EccScheme::SecDed => singles().collect(),
        EccScheme::Taec => {
            let mut v: Vec<u128> = singles().collect();
            v.extend((0..n - 1).map(|p| 0b11u128 << p));
            v.extend((0..n - 2).map(|p| 0b111u128 << p));
            v
        }
        EccScheme::Dec => {
            let mut v: Vec<u128> = singles().collect();
            for a in 0..n {
                for b in a + 1..n {
                    v.push(1u128 << a | 1u128 << b);
                }
            }
            v
        }
    }
}

/// Builds the code for `(scheme, k)`; `k` must be at most 64.
fn build(scheme: EccScheme, k: u32) -> EccCode {
    assert!(
        (1..=64).contains(&k),
        "codeword data width {k} out of range"
    );
    match scheme {
        EccScheme::None => EccCode {
            scheme,
            k,
            r: 0,
            cols: vec![0; k as usize],
            table: HashMap::new(),
        },
        EccScheme::Parity => EccCode {
            scheme,
            k,
            r: 1,
            cols: vec![1; k as usize + 1],
            table: HashMap::new(),
        },
        EccScheme::Dec => build_bch_dec(k),
        EccScheme::HammingSec | EccScheme::SecDed | EccScheme::Taec => {
            // Iterate the check-bit count upward until the greedy column
            // search closes; the loop is deterministic, so every build of
            // (scheme, k) lands on the same code.
            let mut r = match scheme {
                EccScheme::HammingSec => (1..).find(|&r| (1u64 << r) > u64::from(k + r)).unwrap(),
                EccScheme::SecDed => (2..).find(|&r| odd_weight_count(r) >= k).unwrap(),
                EccScheme::Taec => (3..).find(|&r| (1u64 << r) > 3 * u64::from(k + r)).unwrap(),
                _ => unreachable!("greedy construction handles SEC/SEC-DED/TAEC only"),
            };
            loop {
                if let Some(code) = try_greedy(scheme, k, r) {
                    return code;
                }
                r += 1;
                assert!(r <= 24, "no {scheme:?} code found for k={k}");
            }
        }
    }
}

/// Number of odd-weight-≥3 values on `r` bits (the Hsiao data-column pool).
fn odd_weight_count(r: u32) -> u32 {
    (1u32..1 << r)
        .filter(|v| v.count_ones() % 2 == 1 && v.count_ones() >= 3)
        .count() as u32
}

/// Greedy column construction: check positions carry unit vectors, data
/// positions take the smallest candidate column that keeps every
/// correctable-pattern syndrome distinct and non-zero. Left-to-right, so
/// appending position `p` only creates patterns whose support ends at `p`.
fn try_greedy(scheme: EccScheme, k: u32, r: u32) -> Option<EccCode> {
    let n = k + r;
    let mut cols: Vec<u32> = Vec::with_capacity(n as usize);
    let mut table: HashMap<u32, u128> = HashMap::new();

    // Patterns whose support ends at the newly appended position `p`.
    let new_patterns = |p: u32| -> Vec<u128> {
        let mut v = vec![1u128 << p];
        if scheme == EccScheme::Taec {
            if p >= 1 {
                v.push(0b11u128 << (p - 1));
            }
            if p >= 2 {
                v.push(0b111u128 << (p - 2));
            }
        }
        v
    };

    let admit = |cols: &mut Vec<u32>, table: &mut HashMap<u32, u128>, c: u32| -> bool {
        let p = cols.len() as u32;
        cols.push(c);
        let pats = new_patterns(p);
        let mut syns = Vec::with_capacity(pats.len());
        for &pat in &pats {
            let mut s = 0u32;
            let mut m = pat;
            while m != 0 {
                let q = m.trailing_zeros() as usize;
                s ^= cols[q];
                m &= m - 1;
            }
            if s == 0 || table.contains_key(&s) || syns.iter().any(|&(t, _)| t == s) {
                cols.pop();
                return false;
            }
            syns.push((s, pat));
        }
        table.extend(syns);
        true
    };

    for j in 0..r {
        if !admit(&mut cols, &mut table, 1 << j) {
            return None;
        }
    }
    for _ in 0..k {
        let found = (1u32..1 << r).find(|&c| {
            let ok = match scheme {
                EccScheme::SecDed => c.count_ones() % 2 == 1 && c.count_ones() >= 3,
                _ => c.count_ones() >= 2,
            };
            ok && admit(&mut cols, &mut table, c)
        });
        found?;
    }
    Some(EccCode {
        scheme,
        k,
        r,
        cols,
        table,
    })
}

/// Primitive polynomials of GF(2^m) for the BCH DEC construction.
fn primitive_poly(m: u32) -> u32 {
    match m {
        3 => 0b1011,
        4 => 0b1_0011,
        5 => 0b10_0101,
        6 => 0b100_0011,
        7 => 0b1000_1001,
        8 => 0b1_0001_1101,
        _ => panic!("no primitive polynomial table entry for m={m}"),
    }
}

/// Double-error-correcting BCH code: `cols[p] = α^p | α^{3p} << m` over
/// GF(2^m), with `m` the smallest field exponent fitting `n = k + 2m`
/// positions into the 2^m − 1 distinct powers of α. The (S₁, S₃) syndrome
/// pair of every error of weight ≤ 2 is distinct and non-zero — the
/// classic BCH argument — which the construction double-checks while
/// filling the decode table.
fn build_bch_dec(k: u32) -> EccCode {
    let m = (3..=8)
        .find(|&m| (1u32 << m) > k + 2 * m)
        .unwrap_or_else(|| panic!("no DEC field exponent for k={k}"));
    let r = 2 * m;
    let n = k + r;
    let order = (1u32 << m) - 1;
    // Antilog table of α = x.
    let poly = primitive_poly(m);
    let mut alog = Vec::with_capacity(order as usize);
    let mut v = 1u32;
    for _ in 0..order {
        alog.push(v);
        v <<= 1;
        if v >> m & 1 == 1 {
            v ^= poly;
        }
    }
    let cols: Vec<u32> = (0..n)
        .map(|p| alog[(p % order) as usize] | alog[(3 * p % order) as usize] << m)
        .collect();
    let mut table = HashMap::new();
    let insert = |s: u32, p: u128, table: &mut HashMap<u32, u128>| {
        assert_ne!(s, 0, "BCH correctable pattern with zero syndrome");
        let prev = table.insert(s, p);
        assert!(prev.is_none(), "BCH syndrome collision at {s:#x}");
    };
    for a in 0..n as usize {
        insert(cols[a], 1u128 << a, &mut table);
        for b in a + 1..n as usize {
            insert(cols[a] ^ cols[b], 1u128 << a | 1u128 << b, &mut table);
        }
    }
    EccCode {
        scheme: EccScheme::Dec,
        k,
        r,
        cols,
        table,
    }
}

/// The cached code for `(scheme, data width)`.
///
/// Codes are deterministic functions of their parameters, so the cache is
/// purely a cost optimization — campaigns probe the same few geometries
/// millions of times.
pub fn code_for(scheme: EccScheme, k: u32) -> Arc<EccCode> {
    type CodeCache = Mutex<HashMap<(EccScheme, u32), Arc<EccCode>>>;
    static CODES: OnceLock<CodeCache> = OnceLock::new();
    let cache = CODES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("ECC code cache poisoned");
    map.entry((scheme, k))
        .or_insert_with(|| Arc::new(build(scheme, k)))
        .clone()
}

/// What an ECC protection domain does with one strike on a stored word
/// (evaluated at the read that would consume the word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordVerdict {
    /// Every codeword decoded its error away: the read sees clean data.
    Corrected,
    /// At least one codeword detected an uncorrectable error: the domain
    /// raises a machine check (a DUE event).
    Signalled,
    /// Every codeword stayed silent and at least one residual bit
    /// survives: the corrupted word flows on as an SDC candidate.
    Silent {
        /// The residual data-word error after all decoders acted.
        effective: u64,
    },
}

/// An ECC protection domain over 64-bit stored words: a scheme plus a
/// physical interleaving factor. With `interleave = d`, bit `i` of the
/// word belongs to codeword `i mod d`, so the `d` codewords each protect
/// `64 / d` data bits and a spatial burst of `d` adjacent cells lands as
/// single-bit errors in `d` distinct codewords — the interleaving defence
/// the paper cites against multi-bit upsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccDomain {
    /// The code protecting each codeword.
    pub scheme: EccScheme,
    /// Physical interleaving factor (1, 2, or 4).
    pub interleave: u32,
}

impl EccDomain {
    /// A domain with no interleaving.
    pub fn new(scheme: EccScheme) -> EccDomain {
        EccDomain {
            scheme,
            interleave: 1,
        }
    }

    /// A domain with `interleave`-way physical interleaving.
    ///
    /// # Panics
    ///
    /// Panics unless `interleave` is 1, 2, or 4.
    pub fn interleaved(scheme: EccScheme, interleave: u32) -> EccDomain {
        assert!(
            matches!(interleave, 1 | 2 | 4),
            "interleave must be 1, 2, or 4 (got {interleave})"
        );
        EccDomain { scheme, interleave }
    }

    /// Data bits per codeword.
    pub fn codeword_bits(&self) -> u32 {
        64 / self.interleave
    }

    /// Check bits the domain spends per 64-bit word — the area cost the
    /// trade study weighs against squash/throttle IPC cost.
    pub fn check_bits(&self) -> u32 {
        self.interleave * code_for(self.scheme, self.codeword_bits()).r()
    }

    /// Stable label, e.g. `sec-ded` or `sec-ded/x4`.
    pub fn label(&self) -> String {
        if self.interleave == 1 {
            self.scheme.label().to_string()
        } else {
            format!("{}/x{}", self.scheme.label(), self.interleave)
        }
    }

    /// Classifies a strike pattern on one stored word (check bits clean).
    ///
    /// Each codeword decodes its share of the flipped bits independently;
    /// any detection signals (machine check), otherwise any surviving
    /// residual bit makes the strike silent, otherwise everything was
    /// absorbed.
    pub fn classify_word(&self, mask: u64) -> WordVerdict {
        debug_assert_ne!(mask, 0, "a strike flips at least one bit");
        let d = self.interleave;
        let code = code_for(self.scheme, self.codeword_bits());
        let mut signalled = false;
        let mut effective = 0u64;
        for c in 0..d {
            // Gather bits i ≡ c (mod d) into codeword-local data positions.
            let mut local = 0u64;
            for j in 0..self.codeword_bits() {
                if mask >> (c + j * d) & 1 == 1 {
                    local |= 1 << j;
                }
            }
            if local == 0 {
                continue;
            }
            let (class, residual) = code.decode(code.data_error(local));
            match class {
                EccClass::Corrected => {}
                EccClass::Detected => signalled = true,
                EccClass::Miscorrected | EccClass::Undetected => {
                    let res = code.data_mask(residual);
                    for j in 0..self.codeword_bits() {
                        if res >> j & 1 == 1 {
                            effective |= 1 << (c + j * d);
                        }
                    }
                }
            }
        }
        if signalled {
            WordVerdict::Signalled
        } else if effective != 0 {
            WordVerdict::Silent { effective }
        } else {
            WordVerdict::Corrected
        }
    }

    /// Classifies a strike across a multi-word cache line: each 64-bit
    /// word is its own protection domain, so a strike is signalled if any
    /// word detects and silent if any word's residual survives — the
    /// protection-domain granularity question for uncore structures.
    pub fn classify_line(&self, word_masks: &[u64]) -> WordVerdict {
        let mut signalled = false;
        let mut silent = false;
        for &m in word_masks.iter().filter(|&&m| m != 0) {
            match self.classify_word(m) {
                WordVerdict::Corrected => {}
                WordVerdict::Signalled => signalled = true,
                WordVerdict::Silent { .. } => silent = true,
            }
        }
        if signalled {
            WordVerdict::Signalled
        } else if silent {
            WordVerdict::Silent { effective: 0 }
        } else {
            WordVerdict::Corrected
        }
    }

    /// Exact disposition counts over an enumerated family of strike
    /// patterns — the analytic per-class profile the sampled campaign's
    /// residual rates are validated against.
    pub fn profile(&self, masks: impl IntoIterator<Item = u64>) -> ClassProfile {
        let mut p = ClassProfile::default();
        for m in masks {
            p.total += 1;
            match self.classify_word(m) {
                WordVerdict::Corrected => p.corrected += 1,
                WordVerdict::Signalled => p.detected += 1,
                WordVerdict::Silent { .. } => p.silent += 1,
            }
        }
        p
    }
}

/// Exact disposition counts of one enumerated pattern family under one
/// domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassProfile {
    /// Patterns fully absorbed.
    pub corrected: u64,
    /// Patterns converted to a machine check (DUE).
    pub detected: u64,
    /// Patterns that survive silently (SDC candidates).
    pub silent: u64,
    /// Patterns enumerated.
    pub total: u64,
}

impl ClassProfile {
    /// Fraction of patterns converted to DUE.
    pub fn detected_fraction(&self) -> f64 {
        self.frac(self.detected)
    }

    /// Fraction of patterns surviving silently.
    pub fn silent_fraction(&self) -> f64 {
        self.frac(self.silent)
    }

    /// Fraction of patterns absorbed.
    pub fn corrected_fraction(&self) -> f64 {
        self.frac(self.corrected)
    }

    fn frac(&self, x: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            x as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_table_matches_the_classic_codes() {
        assert_eq!(code_for(EccScheme::None, 64).r(), 0);
        assert_eq!(code_for(EccScheme::Parity, 64).r(), 1);
        assert_eq!(code_for(EccScheme::HammingSec, 64).r(), 7);
        assert_eq!(code_for(EccScheme::SecDed, 64).r(), 8);
        assert_eq!(code_for(EccScheme::Dec, 64).r(), 14);
        // TAEC sits between SEC-DED and DEC in check-bit cost.
        let taec = code_for(EccScheme::Taec, 64).r();
        assert!((8..14).contains(&taec), "TAEC r={taec}");
    }

    #[test]
    fn sec_corrects_singles_and_miscorrects_some_doubles() {
        let code = code_for(EccScheme::HammingSec, 64);
        for p in 0..code.n() {
            assert_eq!(code.classify(1u128 << p), EccClass::Corrected);
        }
        let mis = (0..code.n())
            .flat_map(|a| (a + 1..code.n()).map(move |b| (a, b)))
            .filter(|&(a, b)| code.classify(1u128 << a | 1u128 << b) == EccClass::Miscorrected)
            .count();
        assert!(mis > 0, "a SEC code must alias some double errors");
    }

    #[test]
    fn sec_ded_detects_every_double() {
        let code = code_for(EccScheme::SecDed, 64);
        for a in 0..code.n() {
            assert_eq!(code.classify(1u128 << a), EccClass::Corrected);
            for b in a + 1..code.n() {
                assert_eq!(
                    code.classify(1u128 << a | 1u128 << b),
                    EccClass::Detected,
                    "double ({a},{b}) must be detected"
                );
            }
        }
    }

    #[test]
    fn taec_corrects_adjacent_bursts() {
        let code = code_for(EccScheme::Taec, 64);
        for p in 0..code.n() - 2 {
            assert_eq!(code.classify(0b1u128 << p), EccClass::Corrected);
            assert_eq!(code.classify(0b11u128 << p), EccClass::Corrected);
            assert_eq!(code.classify(0b111u128 << p), EccClass::Corrected);
        }
    }

    #[test]
    fn dec_corrects_every_double() {
        let code = code_for(EccScheme::Dec, 32);
        for a in 0..code.n() {
            for b in a + 1..code.n() {
                assert_eq!(
                    code.classify(1u128 << a | 1u128 << b),
                    EccClass::Corrected,
                    "double ({a},{b}) must be corrected"
                );
            }
        }
    }

    #[test]
    fn parity_misses_even_weights() {
        let code = code_for(EccScheme::Parity, 64);
        assert_eq!(code.classify(1), EccClass::Detected);
        assert_eq!(code.classify(0b11), EccClass::Undetected);
        assert_eq!(code.classify(0b111), EccClass::Detected);
    }

    #[test]
    fn interleaving_turns_bursts_into_singles() {
        let flat = EccDomain::new(EccScheme::SecDed);
        let x2 = EccDomain::interleaved(EccScheme::SecDed, 2);
        // An adjacent double defeats a flat SEC-DED correction (detected,
        // DUE) but splits into two correctable singles under x2.
        assert_eq!(flat.classify_word(0b11 << 20), WordVerdict::Signalled);
        assert_eq!(x2.classify_word(0b11 << 20), WordVerdict::Corrected);
    }

    #[test]
    fn miscorrection_residual_is_visible_in_the_data_word() {
        // For data-only strikes the residual e ⊕ ê is a codeword of
        // weight ≥ d, so it can never vanish from the data positions: the
        // pipeline's parity-mismatch bookkeeping always sees silent
        // survivors.
        for scheme in [EccScheme::HammingSec, EccScheme::SecDed, EccScheme::Taec] {
            let d = EccDomain::new(scheme);
            let code = code_for(scheme, 64);
            let mut checked = 0;
            for a in 0..64u32 {
                for b in a + 1..64u32 {
                    let mask = 1u64 << a | 1u64 << b;
                    if code.classify(code.data_error(mask)) == EccClass::Miscorrected {
                        match d.classify_word(mask) {
                            WordVerdict::Silent { effective } => {
                                assert_ne!(effective, 0);
                                checked += 1;
                            }
                            v => panic!("{scheme:?}: miscorrected double yielded {v:?}"),
                        }
                    }
                }
            }
            if scheme == EccScheme::HammingSec {
                assert!(checked > 0, "SEC must miscorrect some data doubles");
            }
        }
    }

    #[test]
    fn line_classification_aggregates_word_verdicts() {
        let d = EccDomain::new(EccScheme::SecDed);
        assert_eq!(d.classify_line(&[0, 1 << 3, 0]), WordVerdict::Corrected);
        assert_eq!(d.classify_line(&[0b11, 1 << 3]), WordVerdict::Signalled);
        assert_eq!(d.classify_line(&[0, 0, 0]), WordVerdict::Corrected);
    }

    #[test]
    fn scheme_labels_round_trip() {
        for s in EccScheme::ALL {
            assert_eq!(EccScheme::parse(s.label()), Ok(s));
        }
        assert!(EccScheme::parse("chipkill").is_err());
    }
}
