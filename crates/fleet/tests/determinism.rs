//! The fleet's byte-identity determinism properties — the contract the
//! CI `fleet-gate` job enforces:
//!
//! * same seed + any shard count ⇒ byte-identical per-device results
//!   (thread interleaving leaves no trace);
//! * reruns are byte-identical;
//! * queue depth changes timing only — host-visible results (tags,
//!   read values, acks) are invariant;
//! * a shard generating its own devices' traffic sees exactly the
//!   streams `generate_fleet` would have handed it.

use evanesco_fleet::{run_fleet, FleetConfig, QosMode, TenantQos};
use evanesco_ftl::SanitizePolicy;
use evanesco_workloads::{generate_device, generate_fleet, TrafficConfig};
use proptest::prelude::*;

fn fleet(devices: usize, shards: usize, qd: usize, mode: QosMode, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::noisy_neighbor_demo(devices, 2, 250, seed);
    cfg.shards = shards;
    cfg.qd = qd;
    cfg.mode = mode;
    if mode == QosMode::Shaped {
        cfg.qos[0] = TenantQos::limited(1, 50_000, 64);
    }
    cfg
}

#[test]
fn shard_count_leaves_no_trace_in_any_device() {
    for mode in [QosMode::Fifo, QosMode::Shaped] {
        let base = run_fleet(&fleet(5, 1, 8, mode, 99));
        for shards in [2, 4] {
            let sharded = run_fleet(&fleet(5, shards, 8, mode, 99));
            assert_eq!(base.fleet_digest, sharded.fleet_digest, "{mode:?} @ {shards} shards");
            for (a, b) in base.devices.iter().zip(&sharded.devices) {
                assert_eq!(a.device, b.device);
                assert_eq!(a.digest, b.digest, "device {} diverged at {shards} shards", a.device);
                assert_eq!(a.sim_time, b.sim_time);
            }
        }
    }
}

#[test]
fn shard_count_leaves_no_trace_in_any_tenants_exposure_gauges() {
    // Without sanitization exposure is non-zero, so the per-tenant
    // attribution has something to get wrong; with Evanesco it must stay
    // at zero on every shard split.
    for policy in [SanitizePolicy::none(), SanitizePolicy::evanesco()] {
        let with = |shards| {
            let mut cfg = fleet(5, shards, 8, QosMode::Shaped, 31);
            cfg.policy = policy;
            run_fleet(&cfg)
        };
        let base = with(1);
        let exposed: u64 = base.tenants.iter().map(|t| t.max_invalid).sum();
        assert_eq!(exposed > 0, policy == SanitizePolicy::none(), "{policy:?}: {exposed} exposed");
        for shards in [2, 4] {
            let sharded = with(shards);
            for (a, b) in base.devices.iter().zip(&sharded.devices) {
                assert_eq!(a.digest, b.digest, "device {} @ {shards} shards", a.device);
                for (t, (x, y)) in a.tenants.iter().zip(&b.tenants).enumerate() {
                    assert_eq!(
                        x.gauges, y.gauges,
                        "{policy:?}: device {} tenant {t} @ {shards} shards",
                        a.device
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "arrival rate must be positive")]
fn invalid_traffic_panics_on_the_callers_thread_with_the_generators_message() {
    // Not as "shard thread panicked": the shards generate the traffic
    // now, but the configuration is still checked before they start.
    let mut cfg = fleet(2, 2, 8, QosMode::Fifo, 1);
    cfg.traffic.base_rate_per_sec = 0.0;
    run_fleet(&cfg);
}

#[test]
fn reruns_are_byte_identical() {
    let a = run_fleet(&fleet(3, 2, 8, QosMode::Shaped, 7));
    let b = run_fleet(&fleet(3, 2, 8, QosMode::Shaped, 7));
    assert_eq!(a.fleet_digest, b.fleet_digest);
    for (x, y) in a.devices.iter().zip(&b.devices) {
        assert_eq!(x.digest, y.digest);
        assert_eq!(x.results_digest, y.results_digest);
    }
}

#[test]
fn queue_depth_changes_timing_but_not_host_visible_results() {
    let qd1 = run_fleet(&fleet(2, 1, 1, QosMode::Shaped, 21));
    let qd8 = run_fleet(&fleet(2, 1, 8, QosMode::Shaped, 21));
    for (a, b) in qd1.devices.iter().zip(&qd8.devices) {
        assert_eq!(
            a.results_digest, b.results_digest,
            "device {}: queue depth must not change what the host sees",
            a.device
        );
    }
    // Deeper queues overlap independent requests: the fleet finishes no
    // later than serialized.
    let t1: u64 = qd1.devices.iter().map(|d| d.sim_time.0).sum();
    let t8: u64 = qd8.devices.iter().map(|d| d.sim_time.0).sum();
    assert!(t8 <= t1, "qd8 total sim time {t8} > qd1 {t1}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// One device's stream does not depend on being generated alone or
    /// as part of a fleet of any size.
    #[test]
    fn a_device_generates_the_stream_the_fleet_would_hand_it(
        seed in any::<u64>(),
        devices in 1usize..=5,
        storm in any::<bool>(),
    ) {
        let traffic = if storm {
            TrafficConfig::sanitize_storm(3, 300, seed)
        } else {
            TrafficConfig::balanced(4, 300, seed)
        };
        let window = 1 << 10;
        let all = generate_fleet(&traffic, devices, window);
        for (d, stream) in all.iter().enumerate() {
            prop_assert_eq!(&generate_device(&traffic, window, d), stream, "device {}", d);
        }
    }

    /// Randomized determinism sweep: any (seed, shard split, qd pair,
    /// mode) upholds both invariances on a small fleet.
    #[test]
    fn determinism_holds_for_random_fleets(
        seed in 0u64..1_000_000,
        shards in 1usize..=4,
        qd in 1usize..=8,
        shaped in any::<bool>(),
    ) {
        let mode = if shaped { QosMode::Shaped } else { QosMode::Fifo };
        let a = run_fleet(&fleet(3, 1, qd, mode, seed));
        let b = run_fleet(&fleet(3, shards, qd, mode, seed));
        prop_assert_eq!(a.fleet_digest, b.fleet_digest);
        // And qd-invariance of host-visible results vs a serialized run.
        let serial = run_fleet(&fleet(3, shards, 1, mode, seed));
        for (x, y) in a.devices.iter().zip(&serial.devices) {
            prop_assert_eq!(x.results_digest, y.results_digest);
        }
    }
}
