//! Tests of the benchmark's own code: statistics, generators, `/proc`
//! parsers, the byte-identity check, the pipelined client and the
//! attribution check.

use std::collections::HashSet;

use dram_core::content_key;
use perfbench::affinity::CpuList;
use perfbench::check::identical;
use perfbench::client::Conn;
use perfbench::gen;
use perfbench::layers::{check_attribution, NEGATIVE_TOLERANCE};
use perfbench::procfs::{
    parse_cpus_allowed, parse_host_ticks, parse_signals_caught, parse_stat_cpu_ticks,
    parse_vmhwm_kb, HostTicks,
};
use perfbench::stats::{
    capped_rate, median, percentile, samples_beyond, tail_percentile, windowed_p99,
    MIN_SAMPLES_BEYOND,
};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(tail_percentile(&ascending(999), 0.99), None);
    assert_eq!(tail_percentile(&ascending(1000), 0.99), Some(990.0));
    assert_eq!(tail_percentile(&ascending(2000), 0.99), Some(1980.0));
    assert!(samples_beyond(100, 0.9) >= MIN_SAMPLES_BEYOND);
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let v = ascending(10);
    assert_eq!(percentile(&v, 0.5), 5.0);
    assert_eq!(percentile(&v, 0.99), 10.0);
    assert_eq!(percentile(&v, 0.01), 1.0);
    assert!(percentile(&[], 0.5).is_nan());
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn windowed_p99_is_the_median_of_full_windows() {
    assert_eq!(windowed_p99(&ascending(999)), None);
    // Three windows whose p99s are 990, 1990 and 2990; the partial
    // fourth window is ignored.
    let v = ascending(3500);
    assert_eq!(windowed_p99(&v), Some(1990.0));
    // One stalled window does not move the figure.
    let mut stalled = vec![1.0; 3000];
    stalled[10..30].iter_mut().for_each(|x| *x = 500.0);
    assert_eq!(windowed_p99(&stalled), Some(1.0));
}

#[test]
fn capped_rate_counts_slow_requests_and_caps_stalls() {
    // 100 requests of 1 ms, one item each: 1000 items/s.
    let mut gaps = vec![0.001; 100];
    assert!((capped_rate(100, &gaps, 3.0) - 1000.0).abs() < 1e-9);
    // 40 requests at twice the time count in full.
    gaps[..40].iter_mut().for_each(|g| *g = 0.002);
    assert!((capped_rate(100, &gaps, 3.0) - 100.0 / 0.14).abs() < 1e-9);
    // A 1 s stall counts as 3 × the median gap.
    let mut stalled = vec![0.001; 100];
    stalled[50] = 1.0;
    assert!((capped_rate(100, &stalled, 3.0) - 100.0 / 0.102).abs() < 1e-9);
    assert!(capped_rate(0, &[], 3.0).is_nan());
}

#[test]
fn generators_repeat_for_a_seed_and_differ_across_seeds() {
    assert_eq!(gen::preset_order(7), gen::preset_order(7));
    let mut order = gen::preset_order(7);
    order.sort_unstable();
    assert_eq!(order, (0..8).collect::<Vec<_>>());
    assert_eq!(gen::batch_request(7, 3).body, gen::batch_request(7, 3).body);
    assert_ne!(gen::batch_request(7, 3).body, gen::batch_request(8, 3).body);
    let a = gen::trace_stream(7, 1, 2_000);
    assert_eq!(a.text, gen::trace_stream(7, 1, 2_000).text);
    assert!(a.commands >= 2_000);
    assert_ne!(a.text, gen::trace_stream(7, 2, 2_000).text);
}

#[test]
fn batch_designs_are_unique_parseable_and_placed() {
    let mut keys = HashSet::new();
    for i in 0..40 {
        let req = gen::batch_request(11, i);
        assert_eq!(req.items.len(), gen::BATCH_ITEMS);
        let designs: Vec<&String> = req
            .items
            .iter()
            .filter_map(|it| match it {
                gen::BatchItem::Design(d) => Some(d),
                gen::BatchItem::Preset(_) => None,
            })
            .collect();
        assert_eq!(designs.len(), gen::BATCH_DESIGNS);
        for d in designs {
            let desc = dram_dsl::parse_description(d).expect("design parses");
            assert!(
                keys.insert(content_key(&desc)),
                "design repeated a cache key"
            );
            dram_core::Dram::new(desc).expect("design builds");
        }
    }
}

#[test]
fn chunked_framing_round_trips() {
    let payload = b"0 act 0\n6 rd 0\n10 pre 0\n";
    let framed = gen::chunked(payload, 5);
    let mut out = Vec::new();
    let mut dec = dram_server::http::ChunkedDecoder::new(1 << 20);
    assert_eq!(
        dec.advance(&framed, &mut out).expect("valid framing"),
        framed.len()
    );
    assert!(dec.is_done());
    assert_eq!(out, payload);
}

#[test]
fn proc_stat_cpu_ticks_count_from_the_last_parenthesis() {
    let stat = "4242 (dram (serve) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 567 0 0 20 0 7 0 99 1000 200";
    assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 567));
    assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2"), None);
}

#[test]
fn proc_status_fields_parse() {
    let status = "Name:\tdram-serve\nVmPeak:\t  20000 kB\nVmHWM:\t    4608 kB\n\
         SigCgt:\t0000000000004402\nCpus_allowed_list:\t0-1\n";
    assert_eq!(parse_vmhwm_kb(status), Some(4608));
    let caught = parse_signals_caught(status).expect("SigCgt");
    assert_ne!(caught & (1 << (15 - 1)), 0, "SIGTERM is caught");
    assert_eq!(caught & (1 << (9 - 1)), 0, "SIGKILL is not");
    assert_eq!(parse_cpus_allowed(status).as_deref(), Some("0-1"));
    assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
}

#[test]
fn host_steal_comes_from_the_aggregate_cpu_line() {
    let before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
    let after = "cpu  200 0 100 1600 20 0 10 70 0 0\n";
    let a = parse_host_ticks(before).expect("parses");
    assert_eq!(
        a,
        HostTicks {
            steal: 35,
            total: 1000
        }
    );
    let b = parse_host_ticks(after).expect("parses");
    assert!((b.steal_pct_since(a) - 3.5).abs() < 1e-12);
    assert_eq!(parse_host_ticks("intr 1 2 3\n"), None);
}

#[test]
fn byte_identity_rejects_a_one_byte_difference() {
    let reference = br#"{"name":"ddr3","idd_ma":{"IDD0":61.5}}"#.to_vec();
    assert!(identical(&reference, &reference.clone()).is_ok());
    let mut flipped = reference.clone();
    flipped[20] ^= 1;
    let m = identical(&reference, &flipped).expect_err("one flipped byte");
    assert_eq!(m.offset, 20);
    let mut longer = reference.clone();
    longer.push(b' ');
    assert_eq!(
        identical(&reference, &longer)
            .expect_err("one extra byte")
            .offset,
        reference.len()
    );
}

#[test]
fn cpu_lists_parse_ranges_and_lists() {
    assert_eq!(CpuList::parse("0-1").expect("range").cpus(), &[0, 1]);
    assert_eq!(CpuList::parse("3,1,1").expect("list").cpus(), &[1, 3]);
    assert_eq!(CpuList::parse("1").expect("single").render(), "1");
    assert!(CpuList::parse("2-1").is_err());
    assert!(CpuList::parse("x").is_err());
}

#[test]
fn live_proc_files_parse() {
    let pid = std::process::id();
    assert!(perfbench::procfs::process_cpu_ms(pid).expect("own stat") >= 0.0);
    assert!(perfbench::procfs::process_vmhwm_kb(pid).expect("own status") > 0);
    assert!(!perfbench::procfs::process_cpus_allowed(pid)
        .expect("own mask")
        .is_empty());
    let ticks = perfbench::procfs::host_ticks().expect("/proc/stat");
    assert!(ticks.total >= ticks.steal);
}

#[test]
fn attribution_fails_on_a_self_time_below_the_tolerance() {
    let p50_us = 1000.0;
    let floor = -NEGATIVE_TOLERANCE * p50_us;
    let selfs = |residual: f64| {
        [
            ("front.residual", residual),
            ("api.handle", 300.0),
            ("json.decode", 700.0 - residual),
        ]
        .into_iter()
        .collect()
    };
    assert!(check_attribution(&selfs(50.0), p50_us).is_ok());
    assert!(check_attribution(&selfs(floor + 1.0), p50_us).is_ok());
    let err = check_attribution(&selfs(floor - 1.0), p50_us).unwrap_err();
    assert!(err.contains("front.residual"), "{err}");
}

/// A one-connection server that reads `requests` request heads and
/// answers them all with `reply` in one write.
fn canned_server(requests: usize, reply: &'static [u8]) -> std::net::SocketAddr {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut seen = Vec::new();
        let mut buf = [0; 1024];
        while seen.windows(4).filter(|w| *w == b"\r\n\r\n").count() < requests {
            let n = s.read(&mut buf).expect("read");
            seen.extend_from_slice(&buf[..n]);
        }
        s.write_all(reply).expect("write");
    });
    addr
}

#[test]
fn pipelined_replies_split_in_order_and_extra_bytes_fail() {
    let get = b"GET / HTTP/1.1\r\nhost: t\r\n\r\n";
    let two: Vec<u8> = [&get[..], &get[..]].concat();
    let addr = canned_server(
        2,
        b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nabHTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nxyz",
    );
    let replies = Conn::new(addr)
        .send_pipelined(&two, 2)
        .expect("two replies");
    assert_eq!(replies, vec![(200, b"ab".to_vec()), (404, b"xyz".to_vec())]);

    let addr = canned_server(1, b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nabXX");
    assert!(Conn::new(addr).send_pipelined(get, 1).is_err());
}
