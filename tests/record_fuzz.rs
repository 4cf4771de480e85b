//! Seeded mutation fuzz of the two durable-record parsers: campaign
//! snapshots ([`parse_snapshot`]) and the serve journal
//! ([`parse_journal`]).
//!
//! Each parser gets a real artifact — a snapshot written by a finished
//! campaign, a journal written by a daemon holding queued jobs — and a
//! fixed-seed stream of mutations:
//!
//! * byte flips (one to three ASCII-preserving XORs),
//! * truncation at every line boundary (before and after each newline),
//! * deletion and duplication of every line,
//! * a second `fingerprint` line at every position, with the checksum
//!   recomputed so only the line walk can catch it.
//!
//! The parsers must never panic and never accept a mutated body. Seed
//! and iteration count are fixed so a failure replays exactly.

use std::path::PathBuf;

use stem::core::campaign::parse_snapshot;
use stem::prelude::*;
use stem::serve::parse_journal;
use stem::storage::record::fnv1a64;

const SEED: u64 = 0x5eed_f022_2025;
const FLIP_ROUNDS: usize = 4000;

/// SplitMix64: a self-contained deterministic stream for choosing
/// mutations.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-record-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A snapshot exactly as a finished two-workload campaign leaves it.
fn campaign_snapshot() -> String {
    let dir = scratch("snapshot");
    let path = dir.join("campaign.snap");
    let workloads: Vec<Workload> = rodinia_suite(5).into_iter().take(2).collect();
    let pipeline = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(3)
        .expect("positive reps")
        .with_seed(11);
    let sampler = StemRootSampler::new(StemConfig::default());
    pipeline
        .run_campaign(&sampler, &workloads, &path)
        .expect("campaign runs");
    let text = std::fs::read_to_string(&path).expect("snapshot written");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// A journal exactly as a daemon leaves it with four queued jobs (with
/// and without deadlines, under two samplers).
fn serve_journal() -> String {
    let dir = scratch("journal");
    let server = Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon starts");
    server.pause_workers();
    for (i, tenant) in ["alice", "bob", "alice", "carol"].into_iter().enumerate() {
        let spec = JobSpec {
            tenant: tenant.to_string(),
            suite: if i % 2 == 0 {
                SuiteId::Rodinia
            } else {
                SuiteId::Casio
            },
            suite_seed: 33,
            workload_index: i,
            reps: 2,
            seed: 40 + i as u64,
            deadline_ms: if i % 2 == 0 { Some(250) } else { None },
            sampler: if i < 2 { "STEM" } else { "RSS" }.to_string(),
        };
        server.try_submit(spec).expect("admitted");
    }
    server.shutdown();
    drop(server);
    let text = std::fs::read_to_string(dir.join("serve.journal")).expect("journal written");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Re-seals `lines` (checksum line excluded) with a correct checksum.
fn reseal(lines: &[&str]) -> String {
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()))
}

/// Runs every mutation class against `parse` and returns how many
/// mutated bodies were checked.
fn fuzz(name: &str, text: &str, parse: &dyn Fn(&str) -> Result<(), SnapshotError>) -> usize {
    assert_eq!(
        parse(text),
        Ok(()),
        "{name}: the unmutated artifact must parse"
    );
    let mut checked = 0;
    let mut reject = |what: &str, mutated: &str| {
        assert_ne!(mutated, text, "{name}: {what} left the body unchanged");
        assert!(
            parse(mutated).is_err(),
            "{name}: accepted {what}:\n{mutated}"
        );
        checked += 1;
    };

    let mut rng = Mutator(SEED ^ fnv1a64(name.as_bytes()));
    for round in 0..FLIP_ROUNDS {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            // Masks below 0x80 keep every byte ASCII, so the body stays
            // valid UTF-8 and reaches the parser.
            bytes[at] ^= 1 + rng.below(0x7f) as u8;
        }
        let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        if mutated != text {
            reject(&format!("flip round {round}"), &mutated);
        }
    }

    for (at, _) in text.match_indices('\n') {
        reject(&format!("truncation before byte {at}"), &text[..at]);
        if at + 1 < text.len() {
            reject(&format!("truncation after byte {at}"), &text[..=at]);
        }
    }

    let lines: Vec<&str> = text.lines().collect();
    for i in 0..lines.len() {
        let mut deleted = lines.clone();
        deleted.remove(i);
        let deleted: String = deleted.iter().map(|l| format!("{l}\n")).collect();
        reject(&format!("deletion of line {}", i + 1), &deleted);
        let mut doubled = lines.clone();
        doubled.insert(i, lines[i]);
        let doubled: String = doubled.iter().map(|l| format!("{l}\n")).collect();
        reject(&format!("duplication of line {}", i + 1), &doubled);
    }

    // Checksum-valid bodies with a second fingerprint line: the line walk
    // alone must reject them, as `Malformed`.
    let (sealed, _) = lines.split_at(lines.len() - 1);
    for at in 2..=sealed.len() {
        let mut twice = sealed.to_vec();
        twice.insert(at, sealed[1]);
        let mutated = reseal(&twice);
        assert!(
            matches!(parse(&mutated), Err(SnapshotError::Malformed { .. })),
            "{name}: a duplicated fingerprint at line {} must be Malformed, got {:?}",
            at + 1,
            parse(&mutated)
        );
        checked += 1;
    }
    checked
}

#[test]
fn snapshot_parser_rejects_every_mutation() {
    let text = campaign_snapshot();
    let (_, units) = parse_snapshot(&text).expect("fresh snapshot parses");
    assert_eq!(units.len(), 6, "two workloads x three reps");
    let checked = fuzz("snapshot", &text, &|t| parse_snapshot(t).map(|_| ()));
    assert!(checked > FLIP_ROUNDS, "{checked}");
}

#[test]
fn journal_parser_rejects_every_mutation() {
    let text = serve_journal();
    assert!(text.starts_with("STEM-SERVE-JOURNAL v2\n"), "{text}");
    let (_, jobs) = parse_journal(&text).expect("fresh journal parses");
    assert_eq!(jobs.len(), 4);
    let checked = fuzz("journal", &text, &|t| parse_journal(t).map(|_| ()));
    assert!(checked > FLIP_ROUNDS, "{checked}");
}
