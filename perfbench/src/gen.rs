//! Seeded benchmark inputs. The schemas come from the repository's own
//! synthetic generator (`cupid_corpus::synthetic::generate`, as the
//! criterion serve and soak benches use it) and reach the matcher as SDL
//! text rendered by `cupid_io::write_sdl`. The corpus and the edit
//! stream the `serve_churn` workload replaces schemas with are both
//! fixed by the workload seed: equal seeds give byte-identical text.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use cupid_corpus::synthetic::{generate, SyntheticConfig};
use cupid_lexical::Thesaurus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Leaves the generator aims at per source schema (the perturbed
/// target of each generated pair drops a few).
pub const LEAVES: usize = 48;

/// Generator seed of the fixed thesaurus every workload matches under.
const THESAURUS_SEED: u64 = 1000;

/// Generator draws per workload seed: corpus pairs take the lower half
/// of the range, edit-stream schemas the upper half.
const DRAWS_PER_SEED: u64 = 1 << 24;
const EDIT_DRAWS: u64 = DRAWS_PER_SEED / 2;

/// The generator seed of draw `k` of workload seed `seed`.
fn draw_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(DRAWS_PER_SEED).wrapping_add(k)
}

/// The benchmark's own random stream `stream` of workload seed `seed`
/// (traffic mixes, sampled pairs, reservoirs).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(draw_seed(seed, 0) ^ stream.rotate_left(32))
}

/// `k` distinct values of `0..n` other than `skip`, in draw order.
pub fn distinct(rng: &mut StdRng, n: usize, k: usize, skip: Option<usize>) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).filter(|&i| Some(i) != skip).collect();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// The fixed thesaurus: the synonym and abbreviation entries of one
/// generated pair, independent of the workload seed.
pub fn thesaurus() -> Thesaurus {
    generate(&SyntheticConfig::sized(LEAVES, THESAURUS_SEED)).thesaurus
}

/// The repository name of corpus schema `i`.
pub fn name(i: usize) -> String {
    format!("S{i:04}")
}

/// `n` schemas as SDL text, named `S0000`, `S0001`, …: schemas `2k`
/// and `2k + 1` are the source and perturbed target of generated pair
/// `k`, so the discovery index always has one close candidate to find.
pub fn corpus(seed: u64, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for k in 0..n.div_ceil(2) {
        let pair = generate(&SyntheticConfig::sized(LEAVES, draw_seed(seed, k as u64)));
        for mut schema in [pair.source, pair.target] {
            if out.len() < n {
                schema.rename(name(out.len()));
                out.push(cupid_io::write_sdl(&schema).expect("generated schemas are SDL"));
            }
        }
    }
    out
}

fn content_hash(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The `serve_churn` edit stream: each call picks a corpus schema and
/// returns new SDL text for it, a freshly generated schema under the
/// picked name. A text is never returned twice, nor equal to a corpus
/// text, so every replacement is content the daemon's pair cache has
/// not seen.
#[derive(Debug)]
pub struct EditStream {
    seed: u64,
    rng: StdRng,
    n: usize,
    drawn: u64,
    /// Content hashes of every text seen so far.
    seen: HashSet<u64>,
}

impl EditStream {
    /// A stream over `corpus` (SDL texts), fixed by `seed`.
    pub fn new(seed: u64, corpus: &[String]) -> EditStream {
        EditStream {
            seed,
            rng: rng(seed, 0xED17),
            n: corpus.len(),
            drawn: 0,
            seen: corpus.iter().map(|t| content_hash(t)).collect(),
        }
    }

    /// The next edit: `(schema index, new SDL text)`.
    pub fn next_edit(&mut self) -> (usize, String) {
        let i = self.rng.gen_range(0..self.n);
        loop {
            let k = EDIT_DRAWS + self.drawn;
            self.drawn += 1;
            let mut schema =
                generate(&SyntheticConfig::sized(LEAVES, draw_seed(self.seed, k))).source;
            schema.rename(name(i));
            let text = cupid_io::write_sdl(&schema).expect("generated schemas are SDL");
            if self.seen.insert(content_hash(&text)) {
                return (i, text);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> Vec<String> {
        let mut out = corpus(seed, 24);
        let mut edits = EditStream::new(seed, &out);
        let stream: Vec<String> = (0..64)
            .map(|_| {
                let (i, text) = edits.next_edit();
                format!("{i}\n{text}")
            })
            .collect();
        out.extend(stream);
        out
    }

    #[test]
    fn equal_seeds_give_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
        assert_eq!(thesaurus().fingerprint(), thesaurus().fingerprint());
        let draws = |seed| {
            let mut r = rng(seed, 3);
            distinct(&mut r, 100, 10, Some(4))
        };
        assert_eq!(draws(7), draws(7));
        assert!(!draws(7).contains(&4));
    }

    #[test]
    fn every_text_round_trips_through_sdl() {
        let texts = corpus(3, 16);
        let mut edits = EditStream::new(3, &texts);
        let mut all = texts.clone();
        all.extend((0..32).map(|_| edits.next_edit().1));
        for (k, text) in all.iter().enumerate() {
            let schema = cupid_io::parse_sdl(text).expect("generated SDL parses");
            assert_eq!(&cupid_io::write_sdl(&schema).expect("writes"), text);
            let tree = cupid_model::expand(&schema, &Default::default()).expect("expands");
            let leaves = tree.iter().filter(|(_, n)| n.is_leaf()).count();
            // Corpus sources and every edit aim at `LEAVES`; the
            // perturbed targets drop a few.
            let floor = if k < texts.len() && k % 2 == 1 { LEAVES / 2 } else { LEAVES };
            assert!(leaves >= floor, "{leaves} leaves in\n{text}");
        }
    }

    #[test]
    fn edit_stream_never_repeats_content() {
        let texts = corpus(5, 4);
        let mut edits = EditStream::new(5, &texts);
        let mut seen: HashSet<String> = texts.into_iter().collect();
        for _ in 0..300 {
            assert!(seen.insert(edits.next_edit().1), "edit repeated earlier content");
        }
    }
}
