//! Pinned `GAIASRVS` service-snapshot bytes.
//!
//! The committed fixture (`tests/fixtures/service_v1_two_tenants.bin`)
//! is a two-tenant session under a spot-enabled policy, snapshotted
//! mid-run with one cancellation. The encoder must reproduce it byte
//! for byte, and the committed bytes must restore and re-encode to
//! themselves. Together these pin both directions of the codec.
//!
//! Regenerate (only when the service snapshot format version is bumped
//! on purpose) with `GAIA_BLESS=1 cargo test -p gaia-serve --test
//! snapshot_fixture`.

use gaia_carbon::{CarbonTrace, PerfectForecaster};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::SpotConfig;
use gaia_obs::NullSink;
use gaia_serve::protocol::Request;
use gaia_serve::Session;
use gaia_sim::{ClusterConfig, OnlineEngine};
use gaia_time::Minutes;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/service_v1_two_tenants.bin"
);

fn config() -> ClusterConfig {
    ClusterConfig::default().with_reserved(2).with_seed(5)
}

fn carbon() -> CarbonTrace {
    let hourly: Vec<f64> = (0..48)
        .map(|h| 150.0 + 90.0 * (((h * 29) % 24) as f64) / 24.0)
        .collect();
    CarbonTrace::from_hourly(hourly).expect("valid")
}

fn policy() -> PolicySpec {
    PolicySpec {
        base: BasePolicyKind::CarbonTime,
        res_first: true,
        spot: Some(SpotConfig {
            j_max: Minutes::from_hours(2),
        }),
    }
}

/// Eight submissions alternating between two tenants, one cancellation,
/// and a stats query, applied to a fresh session.
fn requests() -> Vec<Request> {
    let tenants = ["acme", "blue"];
    let mut log: Vec<Request> = (0..8u64)
        .map(|i| Request::Submit {
            tenant: tenants[(i % 2) as usize].to_owned(),
            at: i * 20,
            len: 45 + (i * 37) % 150,
            cpus: 1 + i % 2,
        })
        .collect();
    log.push(Request::Cancel { job: 7 });
    log.push(Request::Stats {
        tenant: Some("acme".to_owned()),
    });
    log
}

fn encode_mid_run() -> Vec<u8> {
    let (config, carbon) = (config(), carbon());
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = NullSink;
    let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
    let mut session = Session::new(engine, policy());
    for request in requests() {
        let line = session.apply(&request).to_json_line();
        assert!(line.starts_with("{\"ok\":true"), "{line}");
    }
    session.snapshot().1
}

#[test]
fn fixture_bytes_are_stable() {
    let bytes = encode_mid_run();
    if std::env::var("GAIA_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().expect("has parent"))
            .expect("create fixtures dir");
        std::fs::write(FIXTURE, &bytes).expect("write fixture");
        return;
    }
    let committed = std::fs::read(FIXTURE).expect(
        "fixture missing; generate with GAIA_BLESS=1 cargo test -p gaia-serve \
         --test snapshot_fixture",
    );
    assert_eq!(
        bytes, committed,
        "service snapshot bytes diverged from the committed fixture"
    );
}

#[test]
fn committed_fixture_restores_and_reencodes() {
    let (config, carbon) = (config(), carbon());
    let forecaster = PerfectForecaster::new(&carbon);
    let committed = std::fs::read(FIXTURE).expect("fixture present");
    let mut sink = NullSink;
    let session = gaia_serve::restore(
        &config,
        &carbon,
        &forecaster,
        &mut sink,
        None,
        None,
        &committed,
    )
    .expect("fixture restores");
    assert_eq!(session.policy(), policy());
    let names: Vec<&str> = session.tenants().iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["acme", "blue"]);
    assert_eq!(gaia_serve::encode(&session), committed);
}

/// Every strict prefix of the committed bytes is rejected, and no
/// single-bit flip makes the decoder panic. A flip that still decodes
/// builds a whole engine, which is slow in debug builds, so the flips
/// take every 7th bit: a fixed sample that reaches every byte
/// region and, 7 being odd, every bit position within a byte.
#[test]
fn every_fixture_prefix_fails_and_no_bit_flip_panics() {
    let (config, carbon) = (config(), carbon());
    let forecaster = PerfectForecaster::new(&carbon);
    let restore = |bytes: &[u8]| {
        let mut sink = NullSink;
        gaia_serve::restore(&config, &carbon, &forecaster, &mut sink, None, None, bytes).map(|_| ())
    };
    let bytes = std::fs::read(FIXTURE).expect("fixture present");
    for cut in 0..bytes.len() {
        assert!(restore(&bytes[..cut]).is_err(), "prefix {cut} restored");
    }
    let mut flipped = bytes.clone();
    for bit in (0..bytes.len() * 8).step_by(7) {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = restore(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// One random-corpus case: random bytes alone (`mode` 0), the fixture
/// with a random tail (1), random bytes written over the fixture at
/// `at` (2), or inserted into it at `at` (3).
fn corpus_case(fixture: &[u8], mode: u8, at: usize, noise: &[u8]) -> Vec<u8> {
    let at = at % (fixture.len() + 1);
    match mode {
        0 => noise.to_vec(),
        1 => [fixture, noise].concat(),
        2 => {
            let mut out = fixture.to_vec();
            let end = (at + noise.len()).min(out.len());
            out[at..end].copy_from_slice(&noise[..end - at]);
            out
        }
        _ => [&fixture[..at], noise, &fixture[at..]].concat(),
    }
}

fn fixture_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| std::fs::read(FIXTURE).expect("fixture present"))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24_000))]

    /// A fixed-seed random corpus (random bytes, and the fixture with a
    /// random tail, overwrite or insertion) never panics the decoder.
    /// Random bytes and a fixture with trailing bytes are always
    /// rejected.
    fn random_bytes_and_fixture_splices_never_panic(
        mode in 0u8..4,
        at in 0usize..1 << 20,
        noise in proptest::collection::vec(0u8..=255, 1..48),
    ) {
        let (config, carbon) = (config(), carbon());
        let forecaster = PerfectForecaster::new(&carbon);
        let bytes = corpus_case(fixture_bytes(), mode, at, &noise);
        let mut sink = NullSink;
        let restored =
            gaia_serve::restore(&config, &carbon, &forecaster, &mut sink, None, None, &bytes);
        if mode < 2 {
            assert!(restored.is_err(), "mode {mode} case restored");
        }
    }
}
