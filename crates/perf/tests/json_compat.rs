//! The bench-JSON emitter moved from a private `agb-perf` module into
//! `agb_types::json` (shared with the Maelstrom subsystem). The schema is
//! a CI artifact diffed across runs, so the move must be byte-invisible:
//! this golden test pins the exact text a report-shaped document emits.

use agb_perf::json::Json;

#[test]
fn bench_json_emission_is_byte_identical() {
    let doc = Json::obj([
        ("schema", Json::Str("agb-perf/v2".into())),
        ("seed", Json::Num(42.0)),
        ("quick", Json::Bool(true)),
        ("threads", Json::Num(4.0)),
        (
            "scenarios",
            Json::Arr(vec![Json::obj([
                ("name", Json::Str("n10000-recovery".into())),
                ("n_nodes", Json::Num(10000.0)),
                ("recovery", Json::Bool(true)),
                ("rounds_per_sec", Json::Num(123.456)),
                ("wall_secs", Json::Num(0.5)),
                ("peak_queue_depth", Json::Num(40000.0)),
                ("checksum", Json::Str("0x00ff".into())),
                ("note", Json::Str("line1\nline\"2\"".into())),
                ("empty_arr", Json::Arr(vec![])),
                ("empty_obj", Json::Obj(Default::default())),
                ("nothing", Json::Null),
            ])]),
        ),
    ]);
    let expected = concat!(
        "{\n",
        "  \"quick\": true,\n",
        "  \"scenarios\": [\n",
        "    {\n",
        "      \"checksum\": \"0x00ff\",\n",
        "      \"empty_arr\": [],\n",
        "      \"empty_obj\": {},\n",
        "      \"n_nodes\": 10000,\n",
        "      \"name\": \"n10000-recovery\",\n",
        "      \"note\": \"line1\\nline\\\"2\\\"\",\n",
        "      \"nothing\": null,\n",
        "      \"peak_queue_depth\": 40000,\n",
        "      \"recovery\": true,\n",
        "      \"rounds_per_sec\": 123.456,\n",
        "      \"wall_secs\": 0.5\n",
        "    }\n",
        "  ],\n",
        "  \"schema\": \"agb-perf/v2\",\n",
        "  \"seed\": 42,\n",
        "  \"threads\": 4\n",
        "}\n",
    );
    assert_eq!(doc.pretty(), expected);
    // And the parser still reads its own output back exactly.
    assert_eq!(Json::parse(expected).unwrap(), doc);
}

#[test]
fn committed_benchmark_json_parses() {
    // `BENCHMARK.json` is the file the CI gate reads: it must parse
    // through the relocated model without loss.
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("BENCHMARK.json readable");
    let parsed = Json::parse(&text).expect("BENCHMARK.json parses");
    assert!(parsed.get("workloads").is_some());
    // Re-emission is canonical: parse(pretty(parse(x))) == parse(x).
    assert_eq!(Json::parse(&parsed.pretty()).unwrap(), parsed);
}
